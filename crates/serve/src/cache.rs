//! The checksummed on-disk entry store.
//!
//! One file per content address, named `<32-hex-key>.entry`, holding a
//! small text header and the canonical statistics payload:
//!
//! ```text
//! aim-serve-cache/v1
//! key <32 hex digits>
//! cycles <u64>
//! retired <u64>
//! sum <16 hex digits>
//! <canonical SimStats text — the rest of the file>
//! ```
//!
//! The `sum` line is an FNV-1a checksum over the headline counters and
//! the payload, so a truncated write, a flipped bit, or a hand-edited
//! header all read back as [`Lookup::Corrupt`]: the entry is **evicted**
//! (unlinked) and the caller recomputes. Entries are written to a
//! temporary file in the cache directory and renamed into place, so a
//! reader never observes a half-written entry under its final name and
//! concurrent writers of the same key last-writer-win with either writer's
//! bytes intact — which is safe precisely because the content address
//! makes both writers' bytes identical.

use aim_bench::{fingerprint_text, CacheKey};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The entry format's schema line.
const SCHEMA: &str = "aim-serve-cache/v1";

/// One memoized simulation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// Simulated cycles (headline; duplicated from the statistics text so
    /// clients need not parse it).
    pub cycles: u64,
    /// Retired instructions (headline).
    pub retired: u64,
    /// The canonical statistics text: the `Debug` rendering of the
    /// [`SimStats`](aim_pipeline::SimStats) with its host-dependent
    /// fields zeroed. Single line by construction.
    pub stats_text: String,
}

impl CacheEntry {
    /// Builds an entry from a finished simulation.
    pub fn from_stats(stats: &aim_pipeline::SimStats) -> CacheEntry {
        CacheEntry {
            cycles: stats.cycles,
            retired: stats.retired,
            stats_text: format!("{:?}", stats.with_zeroed_host()),
        }
    }

    /// The entry's statistics fingerprint
    /// ([`aim_bench::fingerprint_text`] of the payload).
    pub fn fingerprint(&self) -> u64 {
        fingerprint_text(&self.stats_text)
    }

    fn checksum(&self) -> u64 {
        fingerprint_text(&format!(
            "{}\n{}\n{}",
            self.cycles, self.retired, self.stats_text
        ))
    }
}

/// The outcome of a cache probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// A valid entry.
    Hit(CacheEntry),
    /// No entry on disk.
    Miss,
    /// An entry existed but failed validation; it has been evicted and the
    /// caller must recompute.
    Corrupt,
}

/// A content-addressed directory of [`CacheEntry`] files.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
}

/// Distinguishes concurrent writers' temporary files within one process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl DiskCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation error.
    pub fn open(dir: &Path) -> io::Result<DiskCache> {
        std::fs::create_dir_all(dir)?;
        Ok(DiskCache {
            dir: dir.to_path_buf(),
        })
    }

    /// The on-disk path of `key`'s entry.
    pub fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{}.entry", key.hex()))
    }

    /// Probes for `key`. A present-but-invalid entry is unlinked and
    /// reported as [`Lookup::Corrupt`].
    pub fn load(&self, key: CacheKey) -> Lookup {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Lookup::Miss,
            // Unreadable (permissions, non-UTF-8, transient I/O): treat as
            // corrupt so the caller recomputes rather than failing.
            Err(_) => {
                let _ = std::fs::remove_file(&path);
                return Lookup::Corrupt;
            }
        };
        match parse_entry(&text, key) {
            Some(entry) => Lookup::Hit(entry),
            None => {
                let _ = std::fs::remove_file(&path);
                Lookup::Corrupt
            }
        }
    }

    /// Writes `entry` under `key` atomically (temporary file + rename).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn store(&self, key: CacheKey, entry: &CacheEntry) -> io::Result<()> {
        let text = format!(
            "{SCHEMA}\nkey {}\ncycles {}\nretired {}\nsum {:016x}\n{}",
            key.hex(),
            entry.cycles,
            entry.retired,
            entry.checksum(),
            entry.stats_text,
        );
        let temp = self.dir.join(format!(
            ".{}.tmp{}-{}",
            key.hex(),
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::write(&temp, text)?;
        std::fs::rename(&temp, self.entry_path(key))
    }
}

fn parse_entry(text: &str, key: CacheKey) -> Option<CacheEntry> {
    let rest = text.strip_prefix(SCHEMA)?.strip_prefix('\n')?;
    let (key_line, rest) = rest.split_once('\n')?;
    if key_line.strip_prefix("key ")? != key.hex() {
        return None;
    }
    let (cycles_line, rest) = rest.split_once('\n')?;
    let cycles: u64 = cycles_line.strip_prefix("cycles ")?.parse().ok()?;
    let (retired_line, rest) = rest.split_once('\n')?;
    let retired: u64 = retired_line.strip_prefix("retired ")?.parse().ok()?;
    let (sum_line, payload) = rest.split_once('\n')?;
    let sum = u64::from_str_radix(sum_line.strip_prefix("sum ")?, 16).ok()?;
    let entry = CacheEntry {
        cycles,
        retired,
        stats_text: payload.to_string(),
    };
    (entry.checksum() == sum).then_some(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_bench::cache_key_of_texts;

    fn temp_cache(tag: &str) -> DiskCache {
        let dir =
            std::env::temp_dir().join(format!("aim_serve_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DiskCache::open(&dir).unwrap()
    }

    fn entry() -> CacheEntry {
        CacheEntry {
            cycles: 1000,
            retired: 800,
            stats_text: "SimStats { cycles: 1000, retired: 800 }".to_string(),
        }
    }

    #[test]
    fn entries_round_trip_and_missing_keys_miss() {
        let cache = temp_cache("roundtrip");
        let key = cache_key_of_texts("prog", "cfg", "v");
        assert_eq!(cache.load(key), Lookup::Miss);
        cache.store(key, &entry()).unwrap();
        assert_eq!(cache.load(key), Lookup::Hit(entry()));
        // A different key does not alias onto the stored entry.
        assert_eq!(
            cache.load(cache_key_of_texts("prog2", "cfg", "v")),
            Lookup::Miss
        );
    }

    #[test]
    fn corruption_is_detected_and_evicted() {
        let cache = temp_cache("corrupt");
        let key = cache_key_of_texts("prog", "cfg", "v");

        // Flipped payload byte.
        cache.store(key, &entry()).unwrap();
        let path = cache.entry_path(key);
        let tampered = std::fs::read_to_string(&path)
            .unwrap()
            .replace("800", "801");
        std::fs::write(&path, tampered).unwrap();
        assert_eq!(cache.load(key), Lookup::Corrupt);
        assert!(!path.exists(), "corrupt entry must be evicted");
        assert_eq!(cache.load(key), Lookup::Miss);

        // Truncation.
        cache.store(key, &entry()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 5]).unwrap();
        assert_eq!(cache.load(key), Lookup::Corrupt);

        // Header tampering (headline counters are covered by the checksum).
        cache.store(key, &entry()).unwrap();
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("cycles 1000", "cycles 9999");
        std::fs::write(&path, text).unwrap();
        assert_eq!(cache.load(key), Lookup::Corrupt);

        // Entry filed under the wrong key.
        let other = cache_key_of_texts("other", "cfg", "v");
        cache.store(other, &entry()).unwrap();
        std::fs::rename(cache.entry_path(other), &path).unwrap();
        assert_eq!(cache.load(key), Lookup::Corrupt);
    }

    #[test]
    fn fingerprint_matches_the_bench_helper() {
        let e = entry();
        assert_eq!(e.fingerprint(), aim_bench::fingerprint_text(&e.stats_text));
    }
}
