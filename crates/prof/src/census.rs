//! Heap census: a point-in-time walk of the collector's page map.
//!
//! The collector fills this in (`gcheap`'s `GcHeap::census`); gcprof
//! only defines the shape so every layer above the heap can consume it.
//! All derived ratios are integer permille so reports containing them
//! stay byte-identical across runs and platforms.

/// Live-object census for one small-object size class.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClassCensus {
    /// Slot size in bytes.
    pub obj_size: u32,
    /// Pages currently carved into this class.
    pub pages: u64,
    /// Total slots across those pages.
    pub slots: u64,
    /// Allocated slots.
    pub live_objects: u64,
    /// Allocated bytes (slot-rounded, as the collector accounts them).
    pub live_bytes: u64,
}

/// A point-in-time census of the whole heap.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeapCensus {
    /// Per-size-class occupancy, ascending by `obj_size`; classes with no
    /// pages are omitted.
    pub classes: Vec<ClassCensus>,
    /// Live large (multi-page) objects.
    pub large_objects: u64,
    /// Bytes in live large objects (page-rounded).
    pub large_bytes: u64,
    /// Pages owned by live large objects.
    pub large_pages: u64,
    /// Pages currently carved into small-object slots.
    pub small_pages: u64,
    /// Byte capacity of those small pages (slot size × slot count).
    pub small_capacity_bytes: u64,
    /// Pages in the free pool or never touched.
    pub free_pages: u64,
    /// Total pages the heap covers.
    pub pages_total: u64,
    /// Pages the blacklist refuses to hand out (false-pointer pressure).
    pub blacklisted_pages: u64,
    /// Touched small pages bucketed by live-slot occupancy decile:
    /// index d counts pages with occupancy in `[d*10%, (d+1)*10%)`,
    /// with 100%-full pages counted in the last decile.
    pub occupancy_deciles: [u64; 10],
    /// Total live objects (small + large).
    pub live_objects: u64,
    /// Total live bytes (small slot-rounded + large page-rounded).
    pub live_bytes: u64,
}

impl HeapCensus {
    /// Wasted small-page capacity as permille: 0 means every slot of
    /// every touched small page is live, 1000 means all slack. Free and
    /// large pages don't count — this is internal fragmentation of the
    /// size-class pages only.
    pub fn fragmentation_permille(&self) -> u64 {
        let live_small: u64 = self.classes.iter().map(|c| c.live_bytes).sum();
        if self.small_capacity_bytes == 0 {
            return 0;
        }
        1000 - (1000 * live_small) / self.small_capacity_bytes
    }

    /// Decile index for a page with `live` of `slots` slots occupied.
    pub fn occupancy_decile(live: u64, slots: u64) -> usize {
        if slots == 0 {
            return 0;
        }
        (((10 * live) / slots) as usize).min(9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragmentation_is_slack_over_capacity() {
        let census = HeapCensus {
            classes: vec![ClassCensus {
                obj_size: 64,
                pages: 1,
                slots: 64,
                live_objects: 16,
                live_bytes: 1024,
            }],
            small_pages: 1,
            small_capacity_bytes: 4096,
            ..HeapCensus::default()
        };
        assert_eq!(census.fragmentation_permille(), 750);
        assert_eq!(HeapCensus::default().fragmentation_permille(), 0);
    }

    #[test]
    fn occupancy_deciles_clamp_full_pages() {
        assert_eq!(HeapCensus::occupancy_decile(0, 64), 0);
        assert_eq!(HeapCensus::occupancy_decile(6, 64), 0);
        assert_eq!(HeapCensus::occupancy_decile(7, 64), 1);
        assert_eq!(HeapCensus::occupancy_decile(32, 64), 5);
        assert_eq!(HeapCensus::occupancy_decile(64, 64), 9);
        assert_eq!(HeapCensus::occupancy_decile(0, 0), 0);
    }
}
