//! The two spellings every configuration token uses: the `AxBxC` numeric
//! form (LSQ capacities, table geometries, far tiers, sampling policies)
//! and the closed-vocabulary keyword form (machine classes, enforcement
//! modes, workload scales). Each token's own parser lives next to the
//! type it names and goes through one of these.

/// Splits an `AxB…` token into exactly `N` unsigned integers; `None` when
/// the field count is wrong or a field is not a number.
///
/// ```
/// use aim_types::token::parse_fields;
///
/// assert_eq!(parse_fields::<3>("400x64x8"), Some([400, 64, 8]));
/// assert_eq!(parse_fields::<2>("400x64x8"), None);
/// assert_eq!(parse_fields::<2>("48xlots"), None);
/// ```
pub fn parse_fields<const N: usize>(token: &str) -> Option<[u64; N]> {
    let mut fields = [0; N];
    let mut parts = token.split('x');
    for field in &mut fields {
        *field = parts.next()?.parse().ok()?;
    }
    parts.next().is_none().then_some(fields)
}

/// Gives a fieldless enum its closed keyword vocabulary: `ALL` (every
/// variant, in the order listed), `token()`, and the `Display`/`FromStr`
/// pair that round-trips through it. `FromStr` reports a word outside the
/// vocabulary as ``unknown <what> `<word>` (a|b|c)``.
///
/// ```
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Switch { On, Off }
/// aim_types::keyword_tokens!(Switch, "switch", { On => "on", Off => "off" });
///
/// assert_eq!("off".parse(), Ok(Switch::Off));
/// assert_eq!(Switch::On.to_string(), "on");
/// assert_eq!("dim".parse::<Switch>(), Err("unknown switch `dim` (on|off)".to_string()));
/// ```
#[macro_export]
macro_rules! keyword_tokens {
    ($ty:ident, $what:literal, { $($variant:ident => $token:literal),+ $(,)? }) => {
        impl $ty {
            /// Every value, in the order the CLI lists them.
            pub const ALL: [$ty; [$($token),+].len()] = [$($ty::$variant),+];

            /// The CLI/wire token.
            pub fn token(self) -> &'static str {
                match self {
                    $($ty::$variant => $token,)+
                }
            }
        }

        impl ::std::fmt::Display for $ty {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(self.token())
            }
        }

        impl ::std::str::FromStr for $ty {
            type Err = String;

            fn from_str(s: &str) -> Result<$ty, String> {
                $ty::ALL.into_iter().find(|v| v.token() == s).ok_or_else(|| {
                    format!("unknown {} `{s}` ({})", $what, [$($token),+].join("|"))
                })
            }
        }
    };
}
