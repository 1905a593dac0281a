//! Seeded fuzzing of the flat-JSON wire codec.
//!
//! The same encoder renders every serve reply and every artifact report,
//! so its decoder is fuzzed, not just unit-tested. Each case decodes a
//! `u64` seed into a random flat message — keys and strings with quotes,
//! backslashes, control characters and non-ASCII text; `U64` extremes;
//! negative, NaN and infinite `F64`s; booleans — and checks:
//!
//! 1. **Re-encoding is a fixed point**: `to_json(parse(to_json(m))) ==
//!    to_json(m)`.
//! 2. **Damage never panics**: every truncation and a batch of byte flips
//!    of the rendering decode to `Err` or to a message, and a message
//!    decoded from damaged text re-encodes to a fixed point too.
//! 3. **Encoded numbers decode**: every number the encoder writes passes
//!    the decoder's strict JSON number grammar.
//!
//! Seeds worth keeping are pinned in `prop_wire.proptest-regressions` and
//! replayed by [`regression_seeds_stay_green`] (the vendored proptest does
//! not consume regression files itself).

use aim_types::wire::{WireMsg, WireValue};
use proptest::prelude::*;

/// SplitMix64: the case generator, fully determined by the seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A string drawn from the characters a decoder is most likely to
    /// mishandle.
    fn text(&mut self) -> String {
        const PIECES: &[&str] = &[
            "a", "Z", "0", "_", " ", "\"", "\\", "/", "\n", "\t", "\r", "\u{0}", "\u{1f}",
            "\u{7f}", "é", "→", "日本", "🦀", "{", "}", "[", "]", ":", ",", "\\u0041", "nan",
        ];
        let len = self.below(8);
        (0..len)
            .map(|_| PIECES[self.below(PIECES.len() as u64) as usize])
            .collect()
    }

    fn value(&mut self) -> WireValue {
        match self.below(10) {
            0 => WireValue::U64(0),
            1 => WireValue::U64(u64::MAX),
            2 => WireValue::U64(self.next() >> self.below(64)),
            3 => WireValue::F64(f64::NAN),
            4 => WireValue::F64(if self.below(2) == 0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }),
            5 => WireValue::F64(f64::from_bits(self.next())),
            6 => WireValue::F64((self.next() as i64 as f64) / 1e6),
            7 => WireValue::Bool(self.below(2) == 0),
            _ => WireValue::Str(self.text()),
        }
    }
}

/// The random flat message a seed decodes to.
fn message(seed: u64) -> WireMsg {
    let mut g = Gen(seed);
    let mut msg = WireMsg::new();
    for _ in 0..g.below(7) {
        let key = g.text();
        match g.value() {
            WireValue::Str(s) => msg.put_str(&key, &s),
            WireValue::U64(n) => msg.put_u64(&key, n),
            WireValue::F64(x) => msg.put_f64(&key, x),
            WireValue::Bool(b) => msg.put_bool(&key, b),
        };
    }
    msg
}

/// Decodes damaged text; whatever decodes must re-encode to a fixed point.
fn check_damaged(text: &str) -> Result<(), TestCaseError> {
    if let Ok(msg) = WireMsg::parse(text) {
        let once = msg.to_json();
        let twice = WireMsg::parse(&once)
            .map_err(|e| {
                TestCaseError::fail(format!("re-encoding of {text:?} does not decode: {e}"))
            })?
            .to_json();
        if once != twice {
            return Err(TestCaseError::fail(format!(
                "{text:?}: {once} re-encodes as {twice}"
            )));
        }
    }
    Ok(())
}

fn check_wire_case(seed: u64) -> Result<(), TestCaseError> {
    let json = message(seed).to_json();
    let back = WireMsg::parse(&json)
        .map_err(|e| TestCaseError::fail(format!("seed {seed}: {json} does not decode: {e}")))?;
    if back.to_json() != json {
        return Err(TestCaseError::fail(format!(
            "seed {seed}: {json} re-encodes as {}",
            back.to_json()
        )));
    }
    for (end, _) in json.char_indices() {
        check_damaged(&json[..end])?;
    }
    let mut g = Gen(!seed);
    for _ in 0..32 {
        let mut bytes = json.clone().into_bytes();
        let at = g.below(bytes.len() as u64) as usize;
        bytes[at] = if g.below(2) == 0 {
            b"\"\\{}[]:,.-+eEu0123456789 tfn"[g.below(28) as usize]
        } else {
            g.next() as u8
        };
        check_damaged(&String::from_utf8_lossy(&bytes))?;
    }
    Ok(())
}

/// Every number the encoder writes, whatever the value (NaN and the
/// infinities included), decodes under the strict JSON number grammar to a
/// value that renders the same.
fn check_number_case(seed: u64) -> Result<(), TestCaseError> {
    let mut g = Gen(seed);
    let mut msg = WireMsg::new();
    msg.put_u64("u", g.next() >> g.below(64));
    msg.put_f64("bits", f64::from_bits(g.next()));
    msg.put_f64("scaled", (g.next() as i64 as f64) / 1e6);
    msg.put_f64("odd", [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][g.below(4) as usize]);
    let json = msg.to_json();
    let back = WireMsg::parse(&json)
        .map_err(|e| TestCaseError::fail(format!("seed {seed}: {json} does not decode: {e}")))?;
    prop_assert_eq!(back.u64_field("u"), msg.u64_field("u"));
    prop_assert_eq!(back.to_json(), json);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn wire_messages_survive_encoding_and_damage(seed in any::<u64>()) {
        check_wire_case(seed)?;
    }

    #[test]
    fn encoded_numbers_always_decode(seed in any::<u64>()) {
        check_number_case(seed)?;
    }
}

/// Replays every seed recorded in the sibling `.proptest-regressions`
/// file (standard proptest format, parsed as in the `aim-serve` key
/// tests).
#[test]
fn regression_seeds_stay_green() {
    let recorded = include_str!("prop_wire.proptest-regressions");
    let mut replayed = 0;
    for line in recorded.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let seed: u64 = line
            .split("seed = ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("malformed regression line: {line}"));
        check_wire_case(seed).unwrap_or_else(|e| panic!("regression seed {seed}: {e}"));
        replayed += 1;
    }
    assert!(replayed >= 3, "regression file lost its seeds");
}
