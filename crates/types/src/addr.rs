//! Byte addresses and naturally aligned memory accesses.

use core::fmt;

use crate::mask::ByteMask;
use crate::WORD_BYTES;

/// A 64-bit byte address.
///
/// Newtype over `u64` so that addresses cannot be confused with data values or
/// sequence numbers in the simulator's many `u64`-shaped interfaces.
///
/// # Examples
///
/// ```
/// use aim_types::Addr;
///
/// let a = Addr(0x1234);
/// assert_eq!(a.word_addr(), Addr(0x1230));
/// assert_eq!(a.offset_in_word(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The address of the aligned 8-byte word containing this byte.
    ///
    /// The store forwarding cache and the memory disambiguation table are both
    /// indexed at this granularity (paper §2.2–2.3).
    #[inline]
    pub fn word_addr(self) -> Addr {
        Addr(self.0 & !(WORD_BYTES - 1))
    }

    /// Index of the containing aligned word (i.e. `addr / 8`).
    #[inline]
    pub fn word_index(self) -> u64 {
        self.0 / WORD_BYTES
    }

    /// Byte offset of this address within its aligned 8-byte word (0..8).
    #[inline]
    pub fn offset_in_word(self) -> u32 {
        (self.0 % WORD_BYTES) as u32
    }

    /// The address `bytes` past this one (wrapping, like hardware adders).
    #[inline]
    pub fn wrapping_add(self, bytes: u64) -> Addr {
        Addr(self.0.wrapping_add(bytes))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

/// The width of a memory access in bytes: 1, 2, 4 or 8.
///
/// The simulated ISA (like the paper's 64-bit MIPS target) performs only
/// naturally aligned accesses, so an access never straddles two aligned
/// words; each access maps to exactly one SFC line and one MDT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessSize {
    /// One byte (`LB`/`SB`).
    Byte,
    /// Two bytes (`LH`/`SH`).
    Half,
    /// Four bytes (`LW`/`SW`).
    Word,
    /// Eight bytes (`LD`/`SD`).
    Double,
}

impl AccessSize {
    /// Width in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            AccessSize::Byte => 1,
            AccessSize::Half => 2,
            AccessSize::Word => 4,
            AccessSize::Double => 8,
        }
    }

    /// The low `bytes()` bytes of a value set: what an access of this size
    /// stores, and the range a load of this size zero-extends from.
    #[inline]
    pub fn value_mask(self) -> u64 {
        u64::MAX >> (64 - 8 * self.bytes())
    }

    /// All four sizes, smallest first. Handy for tests and generators.
    pub const ALL: [AccessSize; 4] = [
        AccessSize::Byte,
        AccessSize::Half,
        AccessSize::Word,
        AccessSize::Double,
    ];
}

impl fmt::Display for AccessSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.bytes())
    }
}

/// Error returned when constructing a [`MemAccess`] whose address is not
/// naturally aligned for its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MisalignedAccess {
    /// The offending address.
    pub addr: Addr,
    /// The requested size.
    pub size: AccessSize,
}

impl fmt::Display for MisalignedAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "misaligned {} access at {}", self.size, self.addr)
    }
}

impl std::error::Error for MisalignedAccess {}

/// A naturally aligned memory access: an address plus a size.
///
/// # Examples
///
/// ```
/// use aim_types::{Addr, AccessSize, MemAccess};
///
/// let a = MemAccess::new(Addr(0x100), AccessSize::Double).unwrap();
/// assert_eq!(a.mask().bits(), 0xff);
/// assert!(MemAccess::new(Addr(0x101), AccessSize::Half).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    addr: Addr,
    size: AccessSize,
}

impl MemAccess {
    /// Creates an access, validating natural alignment.
    ///
    /// # Errors
    ///
    /// Returns [`MisalignedAccess`] if `addr` is not a multiple of the access
    /// width.
    pub fn new(addr: Addr, size: AccessSize) -> Result<MemAccess, MisalignedAccess> {
        if !addr.0.is_multiple_of(size.bytes()) {
            Err(MisalignedAccess { addr, size })
        } else {
            Ok(MemAccess { addr, size })
        }
    }

    /// The byte address of the access.
    #[inline]
    pub fn addr(self) -> Addr {
        self.addr
    }

    /// The access width.
    #[inline]
    pub fn size(self) -> AccessSize {
        self.size
    }

    /// The aligned 8-byte word containing the access.
    #[inline]
    pub fn word_addr(self) -> Addr {
        self.addr.word_addr()
    }

    /// The per-byte mask of this access within its containing aligned word.
    ///
    /// Bit *i* of the mask corresponds to byte `word_addr + i`.
    #[inline]
    pub fn mask(self) -> ByteMask {
        ByteMask::for_access(self.addr.offset_in_word(), self.size.bytes() as u32)
    }

    /// Whether two accesses touch at least one common byte.
    #[inline]
    pub fn overlaps(self, other: MemAccess) -> bool {
        self.word_addr() == other.word_addr() && self.mask().intersects(other.mask())
    }
}

impl fmt::Display for MemAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.size, self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_addr_masks_low_bits() {
        assert_eq!(Addr(0x1007).word_addr(), Addr(0x1000));
        assert_eq!(Addr(0x1008).word_addr(), Addr(0x1008));
        assert_eq!(Addr(0).word_addr(), Addr(0));
    }

    #[test]
    fn offsets_cover_word() {
        for i in 0..8 {
            assert_eq!(Addr(0x40 + i).offset_in_word(), i as u32);
        }
    }

    #[test]
    fn aligned_access_construction() {
        for &size in &AccessSize::ALL {
            let a = MemAccess::new(Addr(0x80), size).unwrap();
            assert_eq!(a.mask().count(), size.bytes() as u32);
        }
    }

    #[test]
    fn misaligned_access_rejected() {
        let err = MemAccess::new(Addr(0x81), AccessSize::Half).unwrap_err();
        assert_eq!(err.addr, Addr(0x81));
        assert_eq!(err.size, AccessSize::Half);
        assert!(err.to_string().contains("misaligned"));
    }

    #[test]
    fn byte_access_is_never_misaligned() {
        for off in 0..8 {
            assert!(MemAccess::new(Addr(0x90 + off), AccessSize::Byte).is_ok());
        }
    }

    #[test]
    fn overlap_requires_same_word_and_mask_intersection() {
        let a = MemAccess::new(Addr(0x100), AccessSize::Word).unwrap();
        let b = MemAccess::new(Addr(0x102), AccessSize::Half).unwrap();
        let c = MemAccess::new(Addr(0x104), AccessSize::Word).unwrap();
        let d = MemAccess::new(Addr(0x108), AccessSize::Word).unwrap();
        assert!(a.overlaps(b));
        assert!(!a.overlaps(c));
        assert!(!a.overlaps(d));
    }

    #[test]
    fn access_mask_positions() {
        let a = MemAccess::new(Addr(0x106), AccessSize::Half).unwrap();
        assert_eq!(a.mask().bits(), 0b1100_0000);
    }

    #[test]
    fn display_formats() {
        let a = MemAccess::new(Addr(0x10), AccessSize::Word).unwrap();
        assert_eq!(a.to_string(), "4B@0x10");
        assert_eq!(Addr(255).to_string(), "0xff");
    }
}
