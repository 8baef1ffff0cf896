//! # gcheap — conservative mark-sweep collector substrate
//!
//! The collector the paper's techniques target (\[Boehm95\] in its default
//! configuration), rebuilt over a simulated address space:
//!
//! * [`mem::Memory`] — a flat simulated address space with globals, stack,
//!   and heap regions (the GC-roots are the first two plus the VM's
//!   register file), each reserved whole and committed as it is written;
//! * [`pagemap::PageMap`] — the paper's "tree of fixed height 2 describing
//!   pages of uniformly sized objects", giving O(1) `GC_base`;
//! * [`heap::GcHeap`] — size-classed allocation (with the paper's one
//!   extra byte per object), conservative marking with interior-pointer
//!   recognition, sweeping that poisons freed memory, and the
//!   `GC_same_obj` facility used by the checking mode.
//!
//! ## Example
//!
//! ```
//! use gcheap::{GcHeap, Memory, RootSet};
//!
//! let mut mem = Memory::with_defaults();
//! let mut heap = GcHeap::with_defaults(&mem);
//! let obj = heap.alloc(&mut mem, 64)?;
//! // An interior pointer in a root keeps the object alive…
//! let mut roots = RootSet::new();
//! roots.add_word(obj + 32);
//! heap.collect(&mut mem, &roots);
//! assert!(heap.is_allocated(obj));
//! // …and without any root it is reclaimed.
//! heap.collect(&mut mem, &RootSet::new());
//! assert!(!heap.is_allocated(obj));
//! # Ok::<(), gcheap::OutOfMemory>(())
//! ```

#![warn(missing_docs)]

pub mod heap;
pub mod mem;
pub mod pagemap;

pub use gcprof::{CollectCause, CollectionRecord};
pub use heap::{
    GcHeap, HeapConfig, HeapStats, OutOfMemory, PointerPolicy, RootSet, Roots, SIZE_CLASSES,
};
pub use mem::{MemFault, MemResult, Memory, Region, GLOBAL_BASE, HEAP_BASE, STACK_BASE};
pub use pagemap::{PageDesc, PageMap, SmallPage, BITMAP_WORDS, PAGE_SIZE};
