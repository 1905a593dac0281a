//! Fundamental types shared by every crate in the `aim-sim` workspace.
//!
//! `aim-sim` reproduces Stone, Woley & Frank, *"Address-Indexed Memory
//! Disambiguation and Store-to-Load Forwarding"* (MICRO-38, 2005). The types
//! here are the vocabulary of that paper's memory subsystem:
//!
//! * [`Addr`] — a 64-bit byte address,
//! * [`SeqNum`] — the monotonically increasing sequence number that imposes a
//!   total order on in-flight loads and stores (§2.2 of the paper),
//! * [`AccessSize`] / [`MemAccess`] — naturally aligned 1/2/4/8-byte accesses,
//! * [`ByteMask`] — the per-byte valid/corrupt masks used by the store
//!   forwarding cache (§2.3).
//!
//! # Examples
//!
//! ```
//! use aim_types::{Addr, AccessSize, MemAccess};
//!
//! let access = MemAccess::new(Addr(0x1004), AccessSize::Word).unwrap();
//! assert_eq!(access.word_addr(), Addr(0x1000));
//! assert_eq!(access.mask().count(), 4);
//! ```

mod addr;
mod mask;
mod sample;
mod scale;
mod seq;
pub mod token;
mod violation;
pub mod wire;

pub use addr::{AccessSize, Addr, MemAccess, MisalignedAccess};
pub use mask::ByteMask;
pub use sample::SampleSpec;
pub use scale::Scale;
pub use seq::SeqNum;
pub use violation::ViolationKind;

/// Number of bytes tracked by one SFC line / one MDT entry at the paper's
/// default granularity ("Empirically, we observe that an 8-byte granular MDT
/// is adequate for a 64-bit processor", §2.2).
pub const WORD_BYTES: u64 = 8;

/// `value` with its byte `k` (0 = least significant) replaced by `byte`:
/// how a forwarded byte lands in a load value read from committed memory.
///
/// # Examples
///
/// ```
/// assert_eq!(aim_types::overlay_byte(0x1122_3344, 1, 0xab), 0x1122_ab44);
/// ```
#[inline]
pub fn overlay_byte(value: u64, k: usize, byte: u8) -> u64 {
    let shift = 8 * k;
    (value & !(0xff << shift)) | (u64::from(byte) << shift)
}

/// Computes `numerator / denominator` as a percentage, returning 0.0 for an
/// empty denominator. Used throughout the statistics reporting.
///
/// # Examples
///
/// ```
/// assert_eq!(aim_types::percent(1, 4), 25.0);
/// assert_eq!(aim_types::percent(3, 0), 0.0);
/// ```
pub fn percent(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        100.0 * numerator as f64 / denominator as f64
    }
}

/// Geometric mean of a slice of positive values; 0.0 for an empty slice.
///
/// Figures 5 and 6 of the paper report per-suite averages of normalized IPC;
/// we follow the common convention of using the geometric mean for ratios.
///
/// # Examples
///
/// ```
/// let g = aim_types::geomean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_basic() {
        assert_eq!(percent(0, 10), 0.0);
        assert_eq!(percent(10, 10), 100.0);
        assert_eq!(percent(1, 8), 12.5);
    }

    #[test]
    fn percent_zero_denominator_is_zero() {
        assert_eq!(percent(7, 0), 0.0);
    }

    #[test]
    fn geomean_of_identical_values_is_that_value() {
        let g = geomean(&[3.5, 3.5, 3.5]);
        assert!((g - 3.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_empty_is_zero() {
        assert_eq!(geomean(&[]), 0.0);
    }
}
