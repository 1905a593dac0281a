//! Shared set-associative table geometry.
//!
//! The SFC, the MDT, the filtered-LSQ membership filter, and the PC-indexed
//! PCAX tables are all set-associative arrays indexed by a hashed key. This
//! module factors their common shape — number of sets, ways per set, and the
//! set-index hash — into one reusable type so each new table does not grow
//! its own private copy of the same three knobs.

use crate::hash::SetHash;

/// The shape of a set-associative table: `sets × ways`, indexed by `hash`.
///
/// `sets` must be a power of two (the hashes mask with `sets - 1`) and both
/// dimensions must be non-zero; [`TableGeometry::validate`] checks this and
/// the structures embedding a geometry call it at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableGeometry {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Ways (entries) per set.
    pub ways: usize,
    /// How a key selects a set.
    pub hash: SetHash,
}

impl TableGeometry {
    /// A direct-mapped table of `entries` sets × 1 way with the paper's
    /// low-bits hash — the shape of the producer-set PT/CT tables.
    pub fn direct(entries: usize) -> TableGeometry {
        TableGeometry {
            sets: entries,
            ways: 1,
            hash: SetHash::LowBits,
        }
    }

    /// Total entry capacity (`sets * ways`).
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }

    /// The geometry's conventional short name, `setsxways` (e.g. `1024x2`),
    /// as used in config names and sweep-report rows.
    pub fn label(&self) -> String {
        TableGeometry::dims_label((self.sets, self.ways))
    }

    /// Renders a `(sets, ways)` pair as the `SETSxWAYS` token the CLI's
    /// `--pcax`/`--filt` and the wire's `pcax`/`filt` fields use.
    pub fn dims_label((sets, ways): (usize, usize)) -> String {
        format!("{sets}x{ways}")
    }

    /// Parses the `SETSxWAYS` token [`TableGeometry::dims_label`] renders;
    /// `None` unless it is two numbers joined by `x`.
    pub fn parse_dims(token: &str) -> Option<(usize, usize)> {
        let [sets, ways] = aim_types::token::parse_fields(token)?;
        Some((usize::try_from(sets).ok()?, usize::try_from(ways).ok()?))
    }

    /// The cartesian sets × ways grid over `hash`, sets-major (every way
    /// count for the first set count, then the next) — the iteration order
    /// every geometry sweep shares, so report rows line up across
    /// artifacts.
    ///
    /// # Panics
    ///
    /// Panics if any resulting geometry is malformed (non-power-of-two
    /// sets, zero ways): a sweep over an invalid point would die mid-run
    /// with a worse message.
    pub fn grid(sets: &[usize], ways: &[usize], hash: SetHash) -> Vec<TableGeometry> {
        let mut out = Vec::with_capacity(sets.len() * ways.len());
        for &s in sets {
            for &w in ways {
                let g = TableGeometry {
                    sets: s,
                    ways: w,
                    hash,
                };
                g.validate("grid point");
                out.push(g);
            }
        }
        out
    }

    /// Maps a key (granule, word or PC) to its set index.
    #[inline]
    pub fn index(&self, key: u64) -> usize {
        self.hash.index(key, self.sets)
    }

    /// The tag that, together with the set index, uniquely identifies `key`
    /// under the low-bits hash: the key bits above the index.
    #[inline]
    pub fn tag(&self, key: u64) -> u64 {
        key >> self.sets.trailing_zeros()
    }

    /// Checks the geometry is well-formed (power-of-two sets, non-zero
    /// dimensions).
    ///
    /// # Errors
    ///
    /// Returns a one-line message prefixed with `what`.
    pub fn check(&self, what: &str) -> Result<(), String> {
        if !self.sets.is_power_of_two() {
            return Err(format!(
                "{what}: sets must be a non-zero power of two, got {}",
                self.sets
            ));
        }
        if self.ways == 0 {
            return Err(format!("{what}: ways must be non-zero"));
        }
        Ok(())
    }

    /// Panics unless the geometry is well-formed ([`TableGeometry::check`]).
    pub fn validate(&self, what: &str) {
        if let Err(e) = self.check(what) {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_geometry_is_one_way_low_bits() {
        let g = TableGeometry::direct(1024);
        assert_eq!(g.sets, 1024);
        assert_eq!(g.ways, 1);
        assert_eq!(g.entries(), 1024);
        assert_eq!(g.index(0x1234), 0x234);
    }

    #[test]
    fn index_respects_the_hash() {
        let low = TableGeometry {
            sets: 256,
            ways: 2,
            hash: SetHash::LowBits,
        };
        let fold = TableGeometry {
            sets: 256,
            ways: 2,
            hash: SetHash::XorFold,
        };
        assert_eq!(low.index(0x1234), SetHash::LowBits.index(0x1234, 256));
        assert_eq!(fold.index(0x1234), SetHash::XorFold.index(0x1234, 256));
    }

    #[test]
    fn tag_and_index_reconstruct_the_key_under_low_bits() {
        let g = TableGeometry::direct(256);
        let key = 0xdead_beefu64;
        assert_eq!((g.tag(key) << 8) | g.index(key) as u64, key);
    }

    #[test]
    fn validate_accepts_well_formed_shapes() {
        TableGeometry::direct(1).validate("t");
        TableGeometry {
            sets: 4096,
            ways: 16,
            hash: SetHash::XorFold,
        }
        .validate("t");
    }

    #[test]
    #[should_panic(expected = "sets must be a non-zero power of two")]
    fn validate_rejects_non_power_of_two_sets() {
        TableGeometry {
            sets: 3,
            ways: 1,
            hash: SetHash::LowBits,
        }
        .validate("t");
    }

    #[test]
    fn grid_is_sets_major_and_labelled() {
        let grid = TableGeometry::grid(&[16, 64], &[1, 2], SetHash::LowBits);
        let labels: Vec<String> = grid.iter().map(TableGeometry::label).collect();
        assert_eq!(labels, ["16x1", "16x2", "64x1", "64x2"]);
        assert_eq!(grid[1].entries(), 32);
        assert!(grid.iter().all(|g| g.hash == SetHash::LowBits));
        assert!(TableGeometry::grid(&[], &[1], SetHash::XorFold).is_empty());
    }

    #[test]
    #[should_panic(expected = "sets must be a non-zero power of two")]
    fn grid_rejects_malformed_points() {
        TableGeometry::grid(&[16, 3], &[1], SetHash::LowBits);
    }

    #[test]
    #[should_panic(expected = "ways must be non-zero")]
    fn validate_rejects_zero_ways() {
        TableGeometry {
            sets: 4,
            ways: 0,
            hash: SetHash::LowBits,
        }
        .validate("t");
    }
}
