//! The collector's page-level object map.
//!
//! The paper contrasts its lookup structure with Jones & Kelly's splay
//! tree: "we use a tree of fixed height 2 describing pages of uniformly
//! sized objects", and notes that mapping "any address to the beginning of
//! the corresponding object" is "an operation crucial to the collector's
//! performance". This module is that fixed-height-2 tree: a top-level
//! directory of second-level arrays of per-page descriptors.

/// Bytes per heap page.
pub const PAGE_SIZE: u64 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;
/// Pages per second-level leaf array. A leaf is materialised whole on
/// first use, so it is kept small: 64 descriptors, 5 KiB, are what a run's
/// first allocation pays for, and a 32 MiB heap's top level has 128
/// entries.
pub const LEAF_PAGES: usize = 64;

/// Descriptor for one heap page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageDesc {
    /// Never allocated / returned to the free page pool.
    Free,
    /// A page carved into uniformly sized small objects.
    Small(SmallPage),
    /// First page of a large (multi-page) object.
    LargeHead {
        /// Total object size in bytes (rounded up to pages).
        size: u64,
        /// Mark bit for the whole object.
        marked: bool,
        /// Whether the object is currently allocated.
        allocated: bool,
    },
    /// Continuation page of a large object; stores the distance back to the
    /// head page in pages.
    LargeCont(u32),
}

/// `u64` bitmap words per small page — sized for the smallest size class
/// (16-byte slots → 256 bits).
pub const BITMAP_WORDS: usize = 4;

/// Uniformly sized small-object page state.
///
/// Allocation and mark state are word-wide bitmaps (one bit per slot, in
/// slot order), so the sweep is `garbage = alloc & !mark` per word, "page
/// fully empty" is a word compare, and the allocator finds its next slot
/// with a trailing-zeros scan. Bits at and beyond [`SmallPage::slots`]
/// are never set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallPage {
    /// Object slot size in bytes (a size class; divides or tiles the page).
    pub obj_size: u32,
    slots: u32,
    alloc: [u64; BITMAP_WORDS],
    mark: [u64; BITMAP_WORDS],
}

impl SmallPage {
    /// Creates a fresh page descriptor for `obj_size`-byte slots.
    pub fn new(obj_size: u32) -> Self {
        let slots = (PAGE_SIZE / obj_size as u64) as u32;
        debug_assert!(slots as usize <= BITMAP_WORDS * 64);
        SmallPage {
            obj_size,
            slots,
            alloc: [0; BITMAP_WORDS],
            mark: [0; BITMAP_WORDS],
        }
    }

    /// Number of slots in the page.
    pub fn slots(&self) -> usize {
        self.slots as usize
    }

    /// Number of bitmap words covering this page's slots.
    pub fn words(&self) -> usize {
        (self.slots as usize).div_ceil(64)
    }

    /// The valid-slot mask for bitmap word `w` (tail words of size
    /// classes that don't divide the page cover fewer than 64 slots).
    fn used_mask(&self, w: usize) -> u64 {
        let used = (self.slots as usize).saturating_sub(w * 64).min(64);
        if used == 64 {
            u64::MAX
        } else {
            (1u64 << used) - 1
        }
    }

    /// Whether slot `slot` is allocated.
    #[inline]
    pub fn alloc_bit(&self, slot: usize) -> bool {
        self.alloc[slot / 64] >> (slot % 64) & 1 != 0
    }

    /// Allocates slot `slot`.
    pub fn set_alloc(&mut self, slot: usize) {
        self.alloc[slot / 64] |= 1 << (slot % 64);
    }

    /// Frees slot `slot`.
    pub fn clear_alloc(&mut self, slot: usize) {
        self.alloc[slot / 64] &= !(1 << (slot % 64));
    }

    /// Allocation bitmap word `w` — the word-wise view of which slots are
    /// allocated, used by the remembered-set card scan to enumerate a
    /// page's objects without probing slot by slot.
    pub fn alloc_word(&self, w: usize) -> u64 {
        self.alloc[w]
    }

    /// Whether slot `slot` is marked.
    pub fn mark_bit(&self, slot: usize) -> bool {
        self.mark[slot / 64] >> (slot % 64) & 1 != 0
    }

    /// Marks slot `slot`.
    pub fn set_mark(&mut self, slot: usize) {
        self.mark[slot / 64] |= 1 << (slot % 64);
    }

    /// The sweep's garbage word for bitmap word `w`: allocated but not
    /// marked.
    pub fn garbage_word(&self, w: usize) -> u64 {
        self.alloc[w] & !self.mark[w]
    }

    /// Retains only marked slots and clears all marks — the whole
    /// page's sweep in eight word operations.
    pub fn fold_marks(&mut self) {
        for w in 0..BITMAP_WORDS {
            self.alloc[w] &= self.mark[w];
            self.mark[w] = 0;
        }
    }

    /// Number of allocated slots (bitmap popcount).
    pub fn live_count(&self) -> u64 {
        self.alloc.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Whether no slot is allocated (a word compare per bitmap word).
    pub fn is_empty(&self) -> bool {
        self.alloc == [0; BITMAP_WORDS]
    }

    /// Whether at least one slot is free.
    pub fn has_free_slot(&self) -> bool {
        self.live_count() < u64::from(self.slots)
    }

    /// Lowest free slot, if any — the allocator's address-ordered fast
    /// path.
    pub fn lowest_free_slot(&self) -> Option<usize> {
        for w in 0..self.words() {
            let free = !self.alloc[w] & self.used_mask(w);
            if free != 0 {
                return Some(w * 64 + free.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// Fixed-height-2 page map over the heap region.
#[derive(Debug)]
pub struct PageMap {
    heap_base: u64,
    heap_pages: usize,
    top: Vec<Option<Box<[PageDesc]>>>,
}

impl PageMap {
    /// Creates a map for a heap of `heap_size` bytes starting at `heap_base`.
    pub fn new(heap_base: u64, heap_size: u64) -> Self {
        let heap_pages = (heap_size / PAGE_SIZE) as usize;
        let top_len = heap_pages.div_ceil(LEAF_PAGES);
        PageMap {
            heap_base,
            heap_pages,
            top: (0..top_len).map(|_| None).collect(),
        }
    }

    /// Total number of heap pages covered.
    pub fn page_count(&self) -> usize {
        self.heap_pages
    }

    /// Page index of an address, if it lies in the mapped heap.
    pub fn page_index(&self, addr: u64) -> Option<usize> {
        if addr < self.heap_base {
            return None;
        }
        let idx = ((addr - self.heap_base) >> PAGE_SHIFT) as usize;
        (idx < self.heap_pages).then_some(idx)
    }

    /// Start address of page `idx`.
    pub fn page_addr(&self, idx: usize) -> u64 {
        self.heap_base + (idx as u64) * PAGE_SIZE
    }

    /// Level-1 then level-2 lookup (the fixed-height-2 tree walk).
    #[inline]
    pub fn desc(&self, idx: usize) -> &PageDesc {
        const FREE: PageDesc = PageDesc::Free;
        match &self.top[idx / LEAF_PAGES] {
            Some(leaf) => &leaf[idx % LEAF_PAGES],
            None => &FREE,
        }
    }

    /// Mutable descriptor access, materialising the leaf on demand.
    pub fn desc_mut(&mut self, idx: usize) -> &mut PageDesc {
        let leaf = self.top[idx / LEAF_PAGES].get_or_insert_with(|| {
            (0..LEAF_PAGES)
                .map(|_| PageDesc::Free)
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        &mut leaf[idx % LEAF_PAGES]
    }

    /// Maps an arbitrary address to the base address of the allocated
    /// object containing it — the collector's `GC_base`. Interior pointers
    /// (any address within the object's extent) are recognised; addresses
    /// in free slots or free pages yield `None`.
    pub fn object_base(&self, addr: u64) -> Option<u64> {
        let idx = self.page_index(addr)?;
        match self.desc(idx) {
            PageDesc::Free => None,
            PageDesc::Small(sp) => {
                let page_start = self.page_addr(idx);
                let slot = ((addr - page_start) / sp.obj_size as u64) as usize;
                if slot < sp.slots() && sp.alloc_bit(slot) {
                    Some(page_start + slot as u64 * sp.obj_size as u64)
                } else {
                    None
                }
            }
            PageDesc::LargeHead { allocated, .. } => allocated.then(|| self.page_addr(idx)),
            PageDesc::LargeCont(back) => {
                let head_idx = idx - *back as usize;
                match self.desc(head_idx) {
                    PageDesc::LargeHead {
                        allocated: true,
                        size,
                        ..
                    } => {
                        let head = self.page_addr(head_idx);
                        (addr < head + size).then_some(head)
                    }
                    _ => None,
                }
            }
        }
    }

    /// The allocated extent (base, size-in-bytes) of the object containing
    /// `addr`, using the *rounded* slot size — the paper notes checking
    /// "is not completely accurate, since the garbage collector rounds up
    /// object sizes".
    pub fn object_extent(&self, addr: u64) -> Option<(u64, u64)> {
        let base = self.object_base(addr)?;
        let idx = self.page_index(base)?;
        match self.desc(idx) {
            PageDesc::Small(sp) => Some((base, sp.obj_size as u64)),
            PageDesc::LargeHead { size, .. } => Some((base, *size)),
            _ => None,
        }
    }

    /// Whether two addresses fall inside the same allocated heap object
    /// (the collector facility behind `GC_same_obj`).
    pub fn same_object(&self, p: u64, q: u64) -> bool {
        match (self.object_base(p), self.object_base(q)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// Iterates over all (page index, descriptor) pairs of mapped leaves.
    pub fn pages(&self) -> impl Iterator<Item = (usize, &PageDesc)> {
        self.top.iter().enumerate().flat_map(|(ti, leaf)| {
            leaf.iter().flat_map(move |l| {
                l.iter()
                    .enumerate()
                    .map(move |(pi, d)| (ti * LEAF_PAGES + pi, d))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 0x1000_0000;

    fn map_with_small_page(obj_size: u32) -> PageMap {
        let mut pm = PageMap::new(BASE, 1 << 20);
        let mut sp = SmallPage::new(obj_size);
        sp.set_alloc(0);
        sp.set_alloc(2);
        *pm.desc_mut(0) = PageDesc::Small(sp);
        pm
    }

    #[test]
    fn bitmap_accessors_round_trip() {
        let mut sp = SmallPage::new(48); // 85 slots: a ragged tail word
        assert_eq!(sp.slots(), 85);
        assert_eq!(sp.words(), 2);
        assert!(sp.is_empty());
        assert_eq!(sp.lowest_free_slot(), Some(0));
        for slot in [0, 1, 63, 64, 84] {
            assert!(!sp.alloc_bit(slot));
            sp.set_alloc(slot);
            assert!(sp.alloc_bit(slot));
        }
        assert_eq!(sp.live_count(), 5);
        assert!(!sp.is_empty());
        assert!(sp.has_free_slot());
        assert_eq!(sp.lowest_free_slot(), Some(2));
        sp.clear_alloc(1);
        assert_eq!(sp.lowest_free_slot(), Some(1));
        // Marks fold into alloc: only marked slots survive.
        sp.set_mark(0);
        sp.set_mark(84);
        assert_eq!(sp.garbage_word(0), 1 << 63); // slot 63 unmarked
        assert_eq!(sp.garbage_word(1), 1 << (64 - 64)); // slot 64 unmarked
        sp.fold_marks();
        assert!(sp.alloc_bit(0));
        assert!(sp.alloc_bit(84));
        assert!(!sp.alloc_bit(63));
        assert!(!sp.alloc_bit(64));
        assert!(!sp.mark_bit(0));
        assert_eq!(sp.live_count(), 2);
    }

    #[test]
    fn lowest_free_slot_on_a_full_page() {
        let mut sp = SmallPage::new(2048);
        assert_eq!(sp.slots(), 2);
        sp.set_alloc(0);
        sp.set_alloc(1);
        assert_eq!(sp.lowest_free_slot(), None);
        assert!(!sp.has_free_slot());
    }

    #[test]
    fn small_page_slot_count() {
        assert_eq!(SmallPage::new(16).slots(), 256);
        assert_eq!(SmallPage::new(48).slots(), 85);
    }

    #[test]
    fn object_base_for_interior_pointer() {
        let pm = map_with_small_page(64);
        // Slot 0: [BASE, BASE+64). Interior pointer anywhere inside maps
        // back to the slot base.
        assert_eq!(pm.object_base(BASE), Some(BASE));
        assert_eq!(pm.object_base(BASE + 63), Some(BASE));
        // Slot 1 is unallocated.
        assert_eq!(pm.object_base(BASE + 64), None);
        // Slot 2 allocated.
        assert_eq!(pm.object_base(BASE + 130), Some(BASE + 128));
    }

    #[test]
    fn same_object_respects_slot_bounds() {
        let pm = map_with_small_page(64);
        assert!(pm.same_object(BASE, BASE + 63));
        assert!(!pm.same_object(BASE, BASE + 130));
        assert!(!pm.same_object(BASE + 64, BASE + 64));
    }

    #[test]
    fn large_object_spans_pages() {
        let mut pm = PageMap::new(BASE, 1 << 20);
        *pm.desc_mut(4) = PageDesc::LargeHead {
            size: 3 * PAGE_SIZE,
            marked: false,
            allocated: true,
        };
        *pm.desc_mut(5) = PageDesc::LargeCont(1);
        *pm.desc_mut(6) = PageDesc::LargeCont(2);
        let head = pm.page_addr(4);
        assert_eq!(pm.object_base(head), Some(head));
        assert_eq!(pm.object_base(head + PAGE_SIZE + 100), Some(head));
        assert_eq!(pm.object_base(head + 3 * PAGE_SIZE - 1), Some(head));
        assert_eq!(pm.object_extent(head + 10), Some((head, 3 * PAGE_SIZE)));
    }

    #[test]
    fn out_of_heap_addresses_have_no_base() {
        let pm = map_with_small_page(32);
        assert_eq!(pm.object_base(BASE - 8), None);
        assert_eq!(pm.object_base(BASE + (1 << 20)), None);
        assert_eq!(pm.object_base(0), None);
    }

    #[test]
    fn lazy_leaves_read_as_free() {
        let pm = PageMap::new(BASE, 1 << 24);
        assert_eq!(*pm.desc(2000), PageDesc::Free);
        assert_eq!(pm.object_base(BASE + 2000 * PAGE_SIZE + 4), None);
    }
}
