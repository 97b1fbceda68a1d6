//! Fixed-size disk pages with little-endian scalar accessors.

/// Disk page size in bytes. The paper fixes this at 4 KB for every metric
/// access method it evaluates ("All MAMs to index the datasets use a fixed
/// disk page size of 4KB", Section 6).
pub const PAGE_SIZE: usize = 4096;

/// Bytes of the CRC-32 footer at the end of every physical page.
pub(crate) const PAGE_CRC_SIZE: usize = 4;

/// Bytes of a page available to node codecs. The last [`PAGE_CRC_SIZE`]
/// bytes hold a CRC-32 over the data area, stamped by the pager on every
/// physical write and verified on every physical read (torn-write and
/// bit-rot detection). Codecs must size their layouts against this, not
/// [`PAGE_SIZE`]; the scalar accessors enforce it.
pub const PAGE_DATA_SIZE: usize = PAGE_SIZE - PAGE_CRC_SIZE;

/// Identifier of a page within one pager file (page number, not a byte
/// offset).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Byte offset of the page inside its file.
    pub(crate) fn byte_offset(self) -> u64 {
        self.0 * PAGE_SIZE as u64
    }
}

/// One in-memory 4 KB page.
///
/// Accessors read and write little-endian scalars at byte offsets; node
/// codecs in the B⁺-tree and baseline indexes are built on these. All
/// accessors panic on out-of-bounds offsets — a codec bug, never a runtime
/// condition.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// A zeroed page.
    pub fn new() -> Self {
        Page {
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }

    /// A page from raw bytes.
    pub fn from_bytes(bytes: [u8; PAGE_SIZE]) -> Self {
        Page {
            data: Box::new(bytes),
        }
    }

    /// The raw bytes.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// The raw bytes, mutably.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    /// The data area the CRC footer covers (everything but the footer).
    pub(crate) fn data_area(&self) -> &[u8] {
        &self.data[..PAGE_DATA_SIZE]
    }

    /// The CRC-32 stored in the page's footer.
    pub(crate) fn footer_crc(&self) -> u32 {
        let mut b = [0u8; PAGE_CRC_SIZE];
        b.copy_from_slice(&self.data[PAGE_DATA_SIZE..]);
        u32::from_le_bytes(b)
    }

    /// Stamps the footer with `crc`.
    pub(crate) fn set_footer_crc(&mut self, crc: u32) {
        self.data[PAGE_DATA_SIZE..].copy_from_slice(&crc.to_le_bytes());
    }

    /// Panics unless `[off, off + len)` lies inside the data area — a
    /// codec bug, never a runtime condition.
    #[track_caller]
    fn check_bounds(off: usize, len: usize) {
        assert!(
            off + len <= PAGE_DATA_SIZE,
            "page access [{off}, {}) overlaps the CRC footer (data area is {PAGE_DATA_SIZE} bytes)",
            off + len,
        );
    }

    /// Reads `len` bytes at `off`.
    pub fn read_slice(&self, off: usize, len: usize) -> &[u8] {
        Self::check_bounds(off, len);
        &self.data[off..off + len]
    }

    /// Writes `src` at `off`.
    pub fn write_slice(&mut self, off: usize, src: &[u8]) {
        Self::check_bounds(off, src.len());
        self.data[off..off + src.len()].copy_from_slice(src);
    }

    /// Reads a `u8` at `off`.
    pub fn read_u8(&self, off: usize) -> u8 {
        Self::check_bounds(off, 1);
        self.data[off]
    }

    /// Writes a `u8` at `off`.
    pub fn write_u8(&mut self, off: usize, v: u8) {
        Self::check_bounds(off, 1);
        self.data[off] = v;
    }

    /// Reads a little-endian `u16` at `off`.
    pub fn read_u16(&self, off: usize) -> u16 {
        Self::check_bounds(off, 2);
        let mut b = [0u8; 2];
        b.copy_from_slice(&self.data[off..off + 2]);
        u16::from_le_bytes(b)
    }

    /// Writes a little-endian `u16` at `off`.
    pub fn write_u16(&mut self, off: usize, v: u16) {
        Self::check_bounds(off, 2);
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a little-endian `u32` at `off`.
    pub fn read_u32(&self, off: usize) -> u32 {
        Self::check_bounds(off, 4);
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.data[off..off + 4]);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32` at `off`.
    pub fn write_u32(&mut self, off: usize, v: u32) {
        Self::check_bounds(off, 4);
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a little-endian `u64` at `off`.
    pub fn read_u64(&self, off: usize) -> u64 {
        Self::check_bounds(off, 8);
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.data[off..off + 8]);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `off`.
    pub fn write_u64(&mut self, off: usize, v: u64) {
        Self::check_bounds(off, 8);
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a little-endian `u128` at `off` (SFC values, MBB corners).
    pub fn read_u128(&self, off: usize) -> u128 {
        Self::check_bounds(off, 16);
        let mut b = [0u8; 16];
        b.copy_from_slice(&self.data[off..off + 16]);
        u128::from_le_bytes(b)
    }

    /// Writes a little-endian `u128` at `off`.
    pub fn write_u128(&mut self, off: usize, v: u128) {
        Self::check_bounds(off, 16);
        self.data[off..off + 16].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a little-endian `f64` at `off` (covering radii, distances).
    pub fn read_f64(&self, off: usize) -> f64 {
        Self::check_bounds(off, 8);
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.data[off..off + 8]);
        f64::from_le_bytes(b)
    }

    /// Writes a little-endian `f64` at `off`.
    pub fn write_f64(&mut self, off: usize, v: f64) {
        Self::check_bounds(off, 8);
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page(4096 bytes)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        let mut p = Page::new();
        p.write_u8(0, 0xab);
        p.write_u16(1, 0x1234);
        p.write_u32(3, 0xdead_beef);
        p.write_u64(7, u64::MAX - 1);
        p.write_u128(15, u128::MAX / 3);
        p.write_f64(40, -1.5e300);
        assert_eq!(p.read_u8(0), 0xab);
        assert_eq!(p.read_u16(1), 0x1234);
        assert_eq!(p.read_u32(3), 0xdead_beef);
        assert_eq!(p.read_u64(7), u64::MAX - 1);
        assert_eq!(p.read_u128(15), u128::MAX / 3);
        assert_eq!(p.read_f64(40), -1.5e300);
    }

    #[test]
    fn slices_and_ids() {
        let mut p = Page::new();
        p.write_slice(100, b"hello");
        assert_eq!(p.read_slice(100, 5), b"hello");
        assert_eq!(PageId(3).byte_offset(), 3 * 4096);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        let mut p = Page::new();
        p.write_u32(PAGE_SIZE - 2, 1);
    }

    #[test]
    fn data_area_boundary_is_usable() {
        let mut p = Page::new();
        p.write_u32(PAGE_DATA_SIZE - 4, 0xffff_ffff);
        assert_eq!(p.read_u32(PAGE_DATA_SIZE - 4), 0xffff_ffff);
    }

    #[test]
    #[should_panic(expected = "CRC footer")]
    fn write_into_footer_panics() {
        let mut p = Page::new();
        p.write_u8(PAGE_DATA_SIZE, 0);
    }
}
