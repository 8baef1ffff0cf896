//! Simulated flat address space shared by the VM and the collector.
//!
//! Three fixed regions mirror a conventional process image:
//!
//! * **globals** (statically allocated data) starting at [`GLOBAL_BASE`];
//! * **stack** starting at [`STACK_BASE`] and growing downward from
//!   `STACK_BASE + stack_size`;
//! * **heap** starting at [`HEAP_BASE`], managed by the collector.
//!
//! As in a process, memory costs nothing until it is written. Each region
//! reserves its whole address range up front, and region lookups and
//! faults depend only on those ranges. Storage is committed only for the
//! run of bytes the region's writes have reached: a prefix of the range
//! for the globals and the heap, a suffix ending at the stack top for the
//! downward-growing stack. A write past the run grows it, at least
//! doubling each time; every byte outside the run reads as zero, and
//! zeroing ([`Memory::fill`] with 0) commits nothing. Neither does a
//! collection: the sweep poisons only the committed bytes of freed
//! objects, so a dead object the program never wrote stays uncommitted
//! and reads zero, as it did while it was live. So a run that touches a
//! few KiB never zeroes a megabyte of stack or maps the whole heap, and
//! no collection stop pays to grow a region.
//!
//! The paper's GC-roots are "the machine stack, registers, and statically
//! allocated memory" — the first two regions plus the VM register file.

use std::fmt;

/// Base address of the globals region.
pub const GLOBAL_BASE: u64 = 0x0001_0000;
/// Base address of the stack region.
pub const STACK_BASE: u64 = 0x0040_0000;
/// Base address of the heap region.
pub const HEAP_BASE: u64 = 0x1000_0000;

/// A simulated memory access error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemFault {
    /// Offending address.
    pub addr: u64,
    /// Access width in bytes.
    pub width: u32,
    /// Whether the access was a write.
    pub write: bool,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory fault: {} of {} bytes at {:#x}",
            if self.write { "write" } else { "read" },
            self.width,
            self.addr
        )
    }
}

impl std::error::Error for MemFault {}

/// Result alias for memory accesses.
pub type MemResult<T> = Result<T, MemFault>;

/// Which region an address falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Statically allocated data.
    Globals,
    /// The machine stack.
    Stack,
    /// The collected heap.
    Heap,
}

/// The smallest growth of a region's committed run, in bytes.
const COMMIT_STEP: usize = 4096;

/// One region: its reserved address range and the run of it committed so
/// far — a prefix of the range, or a suffix ending at the top for a region
/// that grows down. Reserved bytes outside the run read as zero.
#[derive(Debug, Clone)]
struct Segment {
    /// First reserved address.
    base: u64,
    /// Reserved bytes.
    size: usize,
    /// Whether the committed run ends at the top of the range.
    grows_down: bool,
    /// Address of the committed run's first byte.
    start: u64,
    /// The committed run.
    bytes: Vec<u8>,
}

impl Segment {
    fn new(base: u64, size: usize, grows_down: bool) -> Self {
        let start = if grows_down { base + size as u64 } else { base };
        Segment {
            base,
            size,
            grows_down,
            start,
            bytes: Vec::new(),
        }
    }

    fn end(&self) -> u64 {
        self.base + self.size as u64
    }

    /// Whether `addr` is reserved here: one compare.
    #[inline]
    fn contains(&self, addr: u64) -> bool {
        addr.wrapping_sub(self.base) < self.size as u64
    }

    /// Where the `len` bytes at `addr` sit in the committed run, if all of
    /// them are committed.
    #[inline]
    fn committed(&self, addr: u64, len: usize) -> Option<usize> {
        let off = addr.wrapping_sub(self.start) as usize;
        (off <= self.bytes.len() && len <= self.bytes.len() - off).then_some(off)
    }

    /// The committed part of `[start, end)`; empty when `lo >= hi`.
    fn overlap(&self, start: u64, end: u64) -> (u64, u64) {
        let run_end = self.start + self.bytes.len() as u64;
        (start.max(self.start), end.min(run_end))
    }

    /// Copies the bytes at `addr` into the zeroed `out`, leaving the
    /// uncommitted ones zero.
    fn load(&self, addr: u64, out: &mut [u8]) {
        let (lo, hi) = self.overlap(addr, addr + out.len() as u64);
        if lo < hi {
            let (from, to, n) = (
                (lo - self.start) as usize,
                (lo - addr) as usize,
                (hi - lo) as usize,
            );
            out[to..to + n].copy_from_slice(&self.bytes[from..from + n]);
        }
    }

    /// Commits `[addr, addr + len)`, which lies in the reserved range,
    /// and returns where `addr` sits in the committed run.
    #[inline]
    fn commit(&mut self, addr: u64, len: usize) -> usize {
        match self.committed(addr, len) {
            Some(off) => off,
            None => self.grow(addr, len),
        }
    }

    /// [`Segment::commit`] past the run: it at least doubles, by at least
    /// [`COMMIT_STEP`], whenever it grows.
    #[cold]
    fn grow(&mut self, addr: u64, len: usize) -> usize {
        let have = self.bytes.len();
        let need = if self.grows_down {
            self.end() - addr
        } else {
            addr + len as u64 - self.base
        } as usize;
        let want = need.max(2 * have).max(COMMIT_STEP).min(self.size);
        if self.grows_down {
            let mut bytes = vec![0; want];
            bytes[want - have..].copy_from_slice(&self.bytes);
            self.bytes = bytes;
            self.start = self.end() - want as u64;
        } else {
            self.bytes.resize(want, 0);
        }
        (addr - self.start) as usize
    }
}

/// Decodes the first `width` (1, 2, 4, or 8) bytes of `b`, little-endian.
#[inline]
fn decode(b: &[u8], width: u32) -> u64 {
    match width {
        1 => b[0] as u64,
        2 => u16::from_le_bytes(b[..2].try_into().expect("width 2")) as u64,
        4 => u32::from_le_bytes(b[..4].try_into().expect("width 4")) as u64,
        8 => u64::from_le_bytes(b[..8].try_into().expect("width 8")),
        _ => panic!("unsupported access width {width}"),
    }
}

/// The simulated address space. Each region reserves its whole range when
/// the space is created but commits storage only as writes reach it (see
/// the module docs), so creating one allocates nothing.
#[derive(Debug, Clone)]
pub struct Memory {
    /// The globals, stack and heap segments, indexed by [`Region`].
    segs: [Segment; 3],
}

impl Memory {
    /// Reserves an address space with the given region sizes in bytes.
    /// Nothing is committed until it is written.
    pub fn new(global_size: usize, stack_size: usize, heap_size: usize) -> Self {
        Memory {
            segs: [
                Segment::new(GLOBAL_BASE, global_size, false),
                Segment::new(STACK_BASE, stack_size, true),
                Segment::new(HEAP_BASE, heap_size, false),
            ],
        }
    }

    /// Reserves an address space with workload-sized defaults
    /// (1 MiB globals, 1 MiB stack, 32 MiB heap).
    pub fn with_defaults() -> Self {
        Memory::new(1 << 20, 1 << 20, 32 << 20)
    }

    fn seg(&self, region: Region) -> &Segment {
        &self.segs[region as usize]
    }

    fn seg_mut(&mut self, region: Region) -> &mut Segment {
        &mut self.segs[region as usize]
    }

    /// Reserved size of the heap region in bytes.
    pub fn heap_size(&self) -> usize {
        self.seg(Region::Heap).size
    }

    /// Reserved size of the stack region in bytes.
    pub fn stack_size(&self) -> usize {
        self.seg(Region::Stack).size
    }

    /// Highest valid stack address + 1 (the initial stack pointer).
    pub fn stack_top(&self) -> u64 {
        self.seg(Region::Stack).end()
    }

    /// Classifies an address, if it is mapped.
    pub fn region_of(&self, addr: u64) -> Option<Region> {
        if self.seg(Region::Globals).contains(addr) {
            Some(Region::Globals)
        } else if self.seg(Region::Stack).contains(addr) {
            Some(Region::Stack)
        } else if self.seg(Region::Heap).contains(addr) {
            Some(Region::Heap)
        } else {
            None
        }
    }

    /// Whether `addr` lies in the heap region: one compare.
    #[inline]
    pub fn in_heap(&self, addr: u64) -> bool {
        self.seg(Region::Heap).contains(addr)
    }

    /// The region and run offset of the `len` bytes at `addr`, if they
    /// are all committed: the accessors' fast path, which needs no region
    /// lookup because every committed run lies inside its region.
    #[inline]
    fn find_committed(&self, addr: u64, len: usize) -> Option<(Region, usize)> {
        [Region::Heap, Region::Stack, Region::Globals]
            .into_iter()
            .find_map(|r| Some((r, self.seg(r).committed(addr, len)?)))
    }

    /// The region holding the whole `len`-byte range starting at `addr`.
    /// Checking the endpoints alone is not enough: the regions are
    /// discontiguous, so a range whose first byte is in one region and
    /// last byte in the next straddles an unmapped hole even though both
    /// endpoints are valid.
    fn locate(&self, addr: u64, len: usize, write: bool) -> MemResult<Region> {
        let fault = || MemFault {
            addr,
            width: len.min(u32::MAX as usize) as u32,
            write,
        };
        let region = self.region_of(addr).ok_or_else(fault)?;
        let seg = self.seg(region);
        if (addr - seg.base) as usize + len > seg.size {
            return Err(fault());
        }
        Ok(region)
    }

    /// Reads `width` (1, 4, or 8) bytes, little-endian, sign-agnostic.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] for unmapped or out-of-range accesses.
    #[inline(always)]
    pub fn read(&self, addr: u64, width: u32) -> MemResult<u64> {
        match self.find_committed(addr, width as usize) {
            Some((region, off)) => Ok(decode(&self.seg(region).bytes[off..], width)),
            None => self.read_uncommitted(addr, width),
        }
    }

    /// [`Memory::read`] of bytes not all committed: zeros, or a fault.
    #[inline(never)]
    fn read_uncommitted(&self, addr: u64, width: u32) -> MemResult<u64> {
        let region = self.locate(addr, width as usize, false)?;
        let mut word = [0; 8];
        self.seg(region)
            .load(addr, &mut word[..(width as usize).min(8)]);
        Ok(decode(&word, width))
    }

    /// Writes `width` (1, 4, or 8) bytes, little-endian, committing the
    /// region up to them.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] for unmapped or out-of-range accesses.
    #[inline(always)]
    pub fn write(&mut self, addr: u64, width: u32, value: u64) -> MemResult<()> {
        let (region, off) = match self.find_committed(addr, width as usize) {
            Some(hit) => hit,
            None => self.commit_for_write(addr, width)?,
        };
        let buf = &mut self.seg_mut(region).bytes;
        match width {
            1 => buf[off] = value as u8,
            2 => buf[off..off + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            4 => buf[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes()),
            8 => buf[off..off + 8].copy_from_slice(&value.to_le_bytes()),
            _ => panic!("unsupported access width {width}"),
        }
        Ok(())
    }

    /// [`Memory::write`] past the committed runs: the region and run
    /// offset of the `width` bytes at `addr` once committed, or a fault.
    #[inline(never)]
    fn commit_for_write(&mut self, addr: u64, width: u32) -> MemResult<(Region, usize)> {
        let region = self.locate(addr, width as usize, true)?;
        Ok((region, self.seg_mut(region).grow(addr, width as usize)))
    }

    /// Copies `len` bytes within the address space (regions may differ;
    /// overlapping ranges behave like `memmove`), committing the
    /// destination.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if either range is invalid.
    pub fn copy(&mut self, dst: u64, src: u64, len: usize) -> MemResult<()> {
        // Validate both full ranges before touching any byte, so a failed
        // copy leaves memory untouched.
        if len == 0 {
            return Ok(());
        }
        let src_region = self.locate(src, len, false)?;
        let dst_region = self.locate(dst, len, true)?;
        if src_region == dst_region && self.seg(src_region).committed(src, len).is_some() {
            let seg = self.seg_mut(dst_region);
            let d = seg.commit(dst, len);
            let s = seg.committed(src, len).expect("commits only grow the run");
            seg.bytes.copy_within(s..s + len, d);
        } else {
            // Another region, or bytes never written: stage the source,
            // zeros and all.
            let mut bytes = vec![0; len];
            self.seg(src_region).load(src, &mut bytes);
            let seg = self.seg_mut(dst_region);
            let d = seg.commit(dst, len);
            seg.bytes[d..d + len].copy_from_slice(&bytes);
        }
        Ok(())
    }

    /// Fills `len` bytes at `addr` with `byte`. Zeroing commits nothing:
    /// only the committed part of the range needs clearing.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if the range is invalid.
    pub fn fill(&mut self, addr: u64, byte: u8, len: usize) -> MemResult<()> {
        if byte != 0 && len != 0 && self.find_committed(addr, len).is_none() {
            let region = self.locate(addr, len, true)?;
            self.seg_mut(region).grow(addr, len);
        }
        self.fill_committed(addr, byte, len)
    }

    /// Fills the committed bytes among the `len` at `addr` with `byte` and
    /// commits nothing: the others keep reading as zero. The collector
    /// poisons freed objects this way, so a collection never grows a
    /// region.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if the range is invalid.
    pub(crate) fn fill_committed(&mut self, addr: u64, byte: u8, len: usize) -> MemResult<()> {
        if len == 0 {
            return Ok(());
        }
        if let Some((region, off)) = self.find_committed(addr, len) {
            self.seg_mut(region).bytes[off..off + len].fill(byte);
            return Ok(());
        }
        let seg = self.seg_mut(self.locate(addr, len, true)?);
        let (lo, hi) = seg.overlap(addr, addr + len as u64);
        if lo < hi {
            let from = (lo - seg.start) as usize;
            seg.bytes[from..from + (hi - lo) as usize].fill(byte);
        }
        Ok(())
    }

    /// Reads a NUL-terminated C string starting at `addr` (capped at 1 MiB).
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if the string runs off mapped memory.
    pub fn read_cstr(&self, addr: u64) -> MemResult<Vec<u8>> {
        let mut out = Vec::new();
        let mut a = addr;
        loop {
            let b = self.read(a, 1)? as u8;
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
            a += 1;
            if out.len() > (1 << 20) {
                return Err(MemFault {
                    addr: a,
                    width: 1,
                    write: false,
                });
            }
        }
    }

    /// Bytes committed per region, in [`Region`] order.
    #[cfg(test)]
    pub(crate) fn committed(&self) -> [usize; 3] {
        self.segs.each_ref().map(|s| s.bytes.len())
    }

    /// Calls `f` with each 8-byte-aligned full word of the range, without
    /// materialising a buffer. This is the collector's scan primitive: the
    /// range is located once, its committed words are walked as a byte
    /// slice and the rest passed as zeros, so `f` sees every word exactly
    /// once and a traced object costs no per-word region lookups and no
    /// allocation. Ranges that leave mapped memory fall back to per-word
    /// reads, skipping faulting words.
    pub fn scan_words<F: FnMut(u64)>(&self, start: u64, end: u64, mut f: F) {
        let a = (start + 7) & !7;
        if a + 8 > end {
            return;
        }
        let stop = a + ((end - a) & !7);
        let len = (stop - a) as usize;
        if let Some((region, off)) = self.find_committed(a, len) {
            for chunk in self.seg(region).bytes[off..off + len].chunks_exact(8) {
                f(u64::from_le_bytes(chunk.try_into().expect("width 8")));
            }
            return;
        }
        let Ok(region) = self.locate(a, len, false) else {
            let mut a = a;
            while a + 8 <= end {
                if let Ok(w) = self.read(a, 8) {
                    f(w);
                }
                a += 8;
            }
            return;
        };
        let seg = self.seg(region);
        let (lo, hi) = seg.overlap(a, stop);
        let edge = |w: u64| {
            let mut word = [0; 8];
            seg.load(w, &mut word);
            u64::from_le_bytes(word)
        };
        let mut w = a;
        if lo < hi {
            // Uncommitted words below the run, then any word across its
            // start.
            let below = (lo - w) / 8;
            (0..below).for_each(|_| f(0));
            w += below * 8;
            if w < lo {
                f(edge(w));
                w += 8;
            }
            if w < hi {
                let n = (hi - w) & !7;
                let off = (w - seg.start) as usize;
                for chunk in seg.bytes[off..off + n as usize].chunks_exact(8) {
                    f(u64::from_le_bytes(chunk.try_into().expect("width 8")));
                }
                w += n;
                if w < hi {
                    f(edge(w));
                    w += 8;
                }
            }
        }
        // Uncommitted words above the run, or the whole range.
        (0..(stop - w) / 8).for_each(|_| f(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_widths() {
        let mut m = Memory::new(4096, 4096, 4096);
        for &(width, value) in &[
            (1u32, 0xABu64),
            (4, 0xDEAD_BEEF),
            (8, 0x0123_4567_89AB_CDEF),
        ] {
            m.write(GLOBAL_BASE + 16, width, value).unwrap();
            assert_eq!(m.read(GLOBAL_BASE + 16, width).unwrap(), value);
        }
    }

    #[test]
    fn unaligned_access_works() {
        let mut m = Memory::new(4096, 4096, 4096);
        m.write(HEAP_BASE + 3, 8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read(HEAP_BASE + 3, 8).unwrap(), 0x1122_3344_5566_7788);
    }

    #[test]
    fn unmapped_access_faults() {
        let m = Memory::new(4096, 4096, 4096);
        assert!(m.read(0, 8).is_err());
        assert!(m.read(GLOBAL_BASE + 4095, 8).is_err());
        assert!(m.read(HEAP_BASE + 4096, 1).is_err());
    }

    #[test]
    fn region_classification() {
        let m = Memory::new(4096, 4096, 4096);
        assert_eq!(m.region_of(GLOBAL_BASE), Some(Region::Globals));
        assert_eq!(m.region_of(STACK_BASE + 10), Some(Region::Stack));
        assert_eq!(m.region_of(HEAP_BASE), Some(Region::Heap));
        assert_eq!(m.region_of(1), None);
        assert!(m.in_heap(HEAP_BASE + 1));
    }

    #[test]
    fn copy_handles_overlap() {
        let mut m = Memory::new(4096, 4096, 4096);
        for i in 0..8u64 {
            m.write(GLOBAL_BASE + i, 1, i + 1).unwrap();
        }
        m.copy(GLOBAL_BASE + 2, GLOBAL_BASE, 6).unwrap();
        let got: Vec<u64> = (0..8)
            .map(|i| m.read(GLOBAL_BASE + i, 1).unwrap())
            .collect();
        assert_eq!(got, vec![1, 2, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn copy_across_a_region_hole_faults_without_mutating() {
        // A range whose first byte ends the globals region and whose last
        // byte begins the stack region has valid endpoints but an unmapped
        // hole in the middle. The endpoint-only validation this test pins
        // down accepted it and faulted mid-write, leaving the destination
        // partially mutated.
        let mut m = Memory::new(4096, 4096, 4096);
        let hole_src = GLOBAL_BASE + 4096 - 4; // 4 valid bytes, then the hole
        let len = (STACK_BASE - hole_src) as usize + 4;
        for i in 0..8u64 {
            m.write(STACK_BASE + i, 1, 0x55).unwrap();
        }
        assert!(m.copy(STACK_BASE, hole_src, len).is_err());
        for i in 0..8u64 {
            assert_eq!(m.read(STACK_BASE + i, 1).unwrap(), 0x55, "byte {i} mutated");
        }

        // Same hole on the destination side: nothing before the hole may
        // be written either.
        let hole_dst = GLOBAL_BASE + 4096 - 4;
        assert!(m.copy(hole_dst, STACK_BASE, len).is_err());
        for i in 0..4u64 {
            assert_eq!(m.read(hole_dst + i, 1).unwrap(), 0, "dst byte {i} mutated");
        }
    }

    #[test]
    fn fill_across_a_region_hole_faults_without_mutating() {
        let mut m = Memory::new(4096, 4096, 4096);
        let start = GLOBAL_BASE + 4096 - 4;
        let len = (STACK_BASE - start) as usize + 4;
        assert!(m.fill(start, 0xEE, len).is_err());
        for i in 0..4u64 {
            assert_eq!(m.read(start + i, 1).unwrap(), 0, "byte {i} mutated");
        }
        assert_eq!(m.read(STACK_BASE, 1).unwrap(), 0);
    }

    #[test]
    fn copy_between_regions_still_works() {
        let mut m = Memory::new(4096, 4096, 4096);
        for i in 0..16u64 {
            m.write(HEAP_BASE + i, 1, i + 1).unwrap();
        }
        m.copy(GLOBAL_BASE + 100, HEAP_BASE, 16).unwrap();
        for i in 0..16u64 {
            assert_eq!(m.read(GLOBAL_BASE + 100 + i, 1).unwrap(), i + 1);
        }
    }

    #[test]
    fn cstr_roundtrip() {
        let mut m = Memory::new(4096, 4096, 4096);
        for (i, b) in b"hello\0".iter().enumerate() {
            m.write(STACK_BASE + i as u64, 1, *b as u64).unwrap();
        }
        assert_eq!(m.read_cstr(STACK_BASE).unwrap(), b"hello");
    }

    #[test]
    fn fill_sets_range() {
        let mut m = Memory::new(4096, 4096, 4096);
        m.fill(HEAP_BASE + 8, 0xDD, 16).unwrap();
        assert_eq!(m.read(HEAP_BASE + 8, 1).unwrap(), 0xDD);
        assert_eq!(m.read(HEAP_BASE + 23, 1).unwrap(), 0xDD);
        assert_eq!(m.read(HEAP_BASE + 24, 1).unwrap(), 0);
    }

    #[test]
    fn fill_committed_overwrites_only_committed_bytes() {
        let mut m = Memory::new(4096, 4096, 4 * COMMIT_STEP);
        m.write(HEAP_BASE, 8, u64::MAX).unwrap();
        let run = committed(&m)[2];
        let edge = HEAP_BASE + run as u64 - 8;
        m.fill_committed(edge, 0xDD, 16).unwrap();
        assert_eq!(committed(&m)[2], run, "nothing committed");
        assert_eq!(m.read(edge, 8).unwrap(), 0xDDDD_DDDD_DDDD_DDDD);
        assert_eq!(m.read(edge + 8, 8).unwrap(), 0);
        m.fill_committed(HEAP_BASE + 2 * COMMIT_STEP as u64, 0xDD, 64)
            .unwrap();
        assert_eq!(committed(&m)[2], run);
        assert!(m
            .fill_committed(HEAP_BASE + run as u64, 0xDD, 4 * COMMIT_STEP)
            .is_err());
    }

    #[test]
    fn scan_words_skips_partial() {
        let mut m = Memory::new(4096, 4096, 4096);
        m.write(STACK_BASE + 8, 8, 42).unwrap();
        let mut words = Vec::new();
        m.scan_words(STACK_BASE + 3, STACK_BASE + 16, |w| words.push(w));
        assert_eq!(words, vec![42]);
    }

    fn committed(m: &Memory) -> [usize; 3] {
        m.committed()
    }

    #[test]
    fn a_fresh_address_space_commits_nothing() {
        let m = Memory::with_defaults();
        assert_eq!(committed(&m), [0, 0, 0]);
        assert_eq!(m.heap_size(), 32 << 20);
        assert_eq!(m.stack_size(), 1 << 20);
        assert_eq!(m.stack_top(), STACK_BASE + (1 << 20));
    }

    #[test]
    fn unwritten_bytes_read_as_zero() {
        let mut m = Memory::with_defaults();
        let probes = [
            GLOBAL_BASE,
            GLOBAL_BASE + (1 << 20) - 8,
            STACK_BASE,
            m.stack_top() - 8,
            HEAP_BASE,
            HEAP_BASE + (32 << 20) - 8,
        ];
        for &a in &probes {
            for width in [1, 2, 4, 8] {
                assert_eq!(m.read(a, width).unwrap(), 0, "{width} bytes at {a:#x}");
            }
        }
        // Still zero next to committed bytes, and across the run's edge.
        m.write(HEAP_BASE, 8, u64::MAX).unwrap();
        m.write(m.stack_top() - 8, 8, u64::MAX).unwrap();
        assert_eq!(m.read(HEAP_BASE + 8, 8).unwrap(), 0);
        assert_eq!(m.read(HEAP_BASE + (1 << 20), 8).unwrap(), 0);
        assert_eq!(m.read(m.stack_top() - 16, 8).unwrap(), 0);
        let edge = HEAP_BASE + committed(&m)[2] as u64 - 4;
        assert_eq!(m.read(edge, 8).unwrap(), 0);
        m.write(edge, 4, 0xAABB_CCDD).unwrap();
        assert_eq!(m.read(edge, 8).unwrap(), 0xAABB_CCDD);
        // A copy whose source runs past the committed bytes copies zeros.
        m.write(GLOBAL_BASE, 8, u64::MAX).unwrap();
        m.copy(GLOBAL_BASE, edge, 8).unwrap();
        assert_eq!(m.read(GLOBAL_BASE, 8).unwrap(), 0xAABB_CCDD);
    }

    #[test]
    fn one_word_commits_at_most_one_growth_step() {
        let mut m = Memory::with_defaults();
        let top = m.stack_top();
        m.write(top - 8, 8, 7).unwrap();
        m.write(HEAP_BASE, 8, 9).unwrap();
        let [globals, stack, heap] = committed(&m);
        assert_eq!(globals, 0);
        assert!(
            (8..=COMMIT_STEP).contains(&stack),
            "stack committed {stack}"
        );
        assert!((8..=COMMIT_STEP).contains(&heap), "heap committed {heap}");
        assert_eq!(
            (m.read(top - 8, 8).unwrap(), m.read(HEAP_BASE, 8).unwrap()),
            (7, 9)
        );
        // Zeroing commits nothing, wherever it lands.
        m.fill(GLOBAL_BASE, 0, 1 << 16).unwrap();
        m.fill(HEAP_BASE + (1 << 20), 0, 1 << 16).unwrap();
        assert_eq!(committed(&m), [0, stack, heap]);
    }

    #[test]
    fn a_deep_stack_write_keeps_the_top() {
        let mut m = Memory::with_defaults();
        let top = m.stack_top();
        m.write(top - 8, 8, 0x1234).unwrap();
        m.write(top - 24, 4, 0x55).unwrap();
        let deep = STACK_BASE + 64;
        m.write(deep, 8, 0xBEEF).unwrap();
        assert_eq!(m.read(top - 8, 8).unwrap(), 0x1234);
        assert_eq!(m.read(top - 24, 4).unwrap(), 0x55);
        assert_eq!(m.read(deep, 8).unwrap(), 0xBEEF);
        assert_eq!(m.read(deep + 8, 8).unwrap(), 0);
        assert!(committed(&m)[1] as u64 >= top - deep);
    }

    #[test]
    fn scan_words_yields_committed_words_then_zeros() {
        let mut m = Memory::new(4 * COMMIT_STEP, 4096, 4096);
        for i in 0..8u64 {
            m.write(GLOBAL_BASE + 8 * i, 8, 100 + i).unwrap();
        }
        let run = committed(&m)[0] as u64;
        assert!(
            run < 4 * COMMIT_STEP as u64,
            "only part of the range is committed"
        );
        let end = GLOBAL_BASE + run + 64;
        let mut words = Vec::new();
        m.scan_words(GLOBAL_BASE, end, |w| words.push(w));
        assert_eq!(words.len() as u64, (end - GLOBAL_BASE) / 8);
        assert_eq!(words[..8], (100..108).collect::<Vec<u64>>());
        assert!(words[8..].iter().all(|&w| w == 0));

        // A stack whose top is not word-aligned: the committed run starts
        // mid-word, and the word across its edge is assembled from its
        // committed bytes and zeros.
        let mut m = Memory::new(4096, COMMIT_STEP + 4, 4096);
        m.write(m.stack_top() - 8, 8, u64::MAX).unwrap();
        m.write(m.stack_top() - COMMIT_STEP as u64, 4, 0x0102_0304)
            .unwrap();
        let mut words = Vec::new();
        m.scan_words(STACK_BASE, m.stack_top(), |w| words.push(w));
        assert_eq!(words.len(), (COMMIT_STEP + 4) / 8);
        assert_eq!(words[0], 0x0102_0304 << 32);
        let expected: Vec<u64> = (0..words.len() as u64)
            .map(|i| m.read(STACK_BASE + 8 * i, 8).unwrap())
            .collect();
        assert_eq!(words, expected);
    }
}
