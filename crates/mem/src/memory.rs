//! Sparse, byte-addressable committed memory.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use aim_types::{AccessSize, Addr, MemAccess};

const PAGE_SHIFT: u64 = 12;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

type Page = Box<[u8; PAGE_BYTES]>;

/// Hashes a page number with one multiply and a fold of the high half into
/// the low half, so that pages far apart (code, heap, stack) spread over
/// the map's buckets as well as neighbours do.
///
/// Page numbers come from the simulated program's own addresses. A program
/// built to collide its pages only slows its own simulation, so the
/// flooding resistance of the default SipHash buys nothing here, and its
/// per-probe cost sits under every simulated load and store.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, page: u64) {
        let h = page.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Splits an address into its page number and its offset in that page.
#[inline]
fn split(addr: Addr) -> (u64, usize) {
    (addr.0 >> PAGE_SHIFT, (addr.0 as usize) & (PAGE_BYTES - 1))
}

/// The `N` bytes of `page` from `off`.
#[inline]
fn le<const N: usize>(page: &[u8; PAGE_BYTES], off: usize) -> [u8; N] {
    page[off..off + N].try_into().expect("N bytes")
}

/// Sparse, byte-addressable 64-bit main memory.
///
/// Holds the *committed* architectural memory state. Reads of unmapped bytes
/// return zero (the simulated machine's memory is zero-initialized), which
/// also gives wrong-path loads to arbitrary addresses a well-defined value —
/// the paper's simulator likewise "executes all instructions, including those
/// on mispredicted paths".
///
/// Memory is a map of 4 KiB pages, allocated on first write. An aligned
/// access of at most 8 bytes never crosses a page, so [`read`](Self::read)
/// and [`write`](Self::write) cost one page lookup whatever their size.
///
/// All multi-byte values are little-endian.
///
/// # Examples
///
/// ```
/// use aim_mem::MainMemory;
/// use aim_types::{AccessSize, Addr, MemAccess};
///
/// let mut mem = MainMemory::new();
/// let lo = MemAccess::new(Addr(0x10), AccessSize::Word).unwrap();
/// mem.write(lo, 0x1122_3344);
/// let byte = MemAccess::new(Addr(0x11), AccessSize::Byte).unwrap();
/// assert_eq!(mem.read(byte), 0x33);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    pages: HashMap<u64, Page, BuildHasherDefault<PageHasher>>,
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> MainMemory {
        MainMemory::default()
    }

    /// The page numbered `page`, allocated zeroed on first touch.
    #[inline]
    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_BYTES] {
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0; PAGE_BYTES]))
    }

    /// Reads one byte; unmapped bytes read as zero.
    #[inline]
    pub fn read_byte(&self, addr: Addr) -> u8 {
        let (page, off) = split(addr);
        self.pages.get(&page).map_or(0, |p| p[off])
    }

    /// Writes one byte, allocating the containing page on demand.
    #[inline]
    pub fn write_byte(&mut self, addr: Addr, value: u8) {
        let (page, off) = split(addr);
        self.page_mut(page)[off] = value;
    }

    /// Reads an aligned access as a little-endian, zero-extended value.
    #[inline]
    pub fn read(&self, access: MemAccess) -> u64 {
        let (page, off) = split(access.addr());
        let Some(p) = self.pages.get(&page) else {
            return 0;
        };
        match access.size() {
            AccessSize::Byte => u64::from(p[off]),
            AccessSize::Half => u64::from(u16::from_le_bytes(le(p, off))),
            AccessSize::Word => u64::from(u32::from_le_bytes(le(p, off))),
            AccessSize::Double => u64::from_le_bytes(le(p, off)),
        }
    }

    /// Writes the low `size` bytes of `value` at an aligned access,
    /// little-endian.
    #[inline]
    pub fn write(&mut self, access: MemAccess, value: u64) {
        let (page, off) = split(access.addr());
        let p = self.page_mut(page);
        match access.size() {
            AccessSize::Byte => p[off] = value as u8,
            AccessSize::Half => p[off..off + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            AccessSize::Word => p[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes()),
            AccessSize::Double => p[off..off + 8].copy_from_slice(&value.to_le_bytes()),
        }
    }

    /// Copies `bytes` into memory starting at `addr`, one page-sized chunk
    /// at a time.
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        let mut at = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let (page, off) = split(at);
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_BYTES - off));
            self.page_mut(page)[off..off + chunk.len()].copy_from_slice(chunk);
            at = at.wrapping_add(chunk.len() as u64);
            rest = tail;
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: Addr, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_byte(addr.wrapping_add(i as u64)))
            .collect()
    }

    /// Number of 4 KiB pages currently allocated.
    pub fn allocated_pages(&self) -> usize {
        self.pages.len()
    }

    /// Every non-zero byte as `(address, value)`, sorted by address.
    ///
    /// Because unmapped bytes read as zero, two memories with the same
    /// non-zero byte set are architecturally indistinguishable — this is the
    /// canonical form the cross-backend parity tests compare.
    pub fn nonzero_bytes(&self) -> Vec<(u64, u8)> {
        let mut out = Vec::new();
        for (&page, bytes) in &self.pages {
            let base = page << PAGE_SHIFT;
            for (off, &b) in bytes.iter().enumerate() {
                if b != 0 {
                    out.push((base + off as u64, b));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(addr: u64, size: AccessSize) -> MemAccess {
        MemAccess::new(Addr(addr), size).unwrap()
    }

    #[test]
    fn unmapped_reads_zero() {
        let mem = MainMemory::new();
        assert_eq!(mem.read(acc(0xdead_0000, AccessSize::Double)), 0);
        assert_eq!(mem.read_byte(Addr(u64::MAX)), 0);
    }

    #[test]
    fn write_read_roundtrip_all_sizes() {
        let mut mem = MainMemory::new();
        for (i, &size) in AccessSize::ALL.iter().enumerate() {
            let a = acc(0x1000 + 16 * i as u64, size);
            let v = 0x8877_6655_4433_2211u64;
            mem.write(a, v);
            assert_eq!(mem.read(a), v & size.value_mask(), "size {size}");
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = MainMemory::new();
        mem.write(acc(0x2000, AccessSize::Double), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_byte(Addr(0x2000)), 0x08);
        assert_eq!(mem.read_byte(Addr(0x2007)), 0x01);
        assert_eq!(mem.read(acc(0x2004, AccessSize::Word)), 0x0102_0304);
    }

    #[test]
    fn page_boundary_block_copy() {
        let mut mem = MainMemory::new();
        let start = Addr((1 << 12) - 2);
        mem.write_bytes(start, &[1, 2, 3, 4]);
        assert_eq!(mem.read_bytes(start, 4), vec![1, 2, 3, 4]);
        assert_eq!(mem.allocated_pages(), 2);
    }

    #[test]
    fn partial_overwrite_preserves_neighbors() {
        let mut mem = MainMemory::new();
        mem.write(acc(0x3000, AccessSize::Double), u64::MAX);
        mem.write(acc(0x3002, AccessSize::Half), 0);
        assert_eq!(
            mem.read(acc(0x3000, AccessSize::Double)),
            0xffff_ffff_0000_ffff
        );
    }
}
