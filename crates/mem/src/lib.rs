//! Simulated memory substrate for the memory-persistency framework.
//!
//! The ISCA 2014 *Memory Persistency* paper assumes a system exposing both a
//! **volatile** and a **persistent** address space on a DRAM-like bus. This
//! crate provides that substrate for simulation:
//!
//! - [`MemAddr`] / [`Space`] — tagged addresses in either address space,
//! - [`AtomicPersistSize`] / [`TrackingGranularity`] — the two granularity
//!   knobs the paper's evaluation sweeps (Figures 4 and 5),
//! - [`BlockId`] — an aligned block of either space at a given granularity,
//! - [`MemoryImage`] — flat byte images of both spaces,
//! - [`PersistentAllocator`] — the `pmalloc`/`pfree` allocator used by
//!   workloads to place data in the persistent space,
//! - [`hw`] — real cache-line flush intrinsics for native (non-simulated)
//!   persistent data structures,
//! - [`PmemBackend`] / [`DirectPmem`] — the interposable persistence
//!   backend every persistent structure is written against once, so the
//!   same protocol body runs over a direct image, the `pfi` fault
//!   injector's shadow and traced memory.
//!
//! # Example
//!
//! ```rust
//! use persist_mem::{MemAddr, MemoryImage, PersistentAllocator, Space};
//!
//! # fn main() -> Result<(), persist_mem::MemError> {
//! let mut alloc = PersistentAllocator::new();
//! let head = alloc.alloc(8, 8)?; // 8 bytes, 8-byte aligned
//! assert_eq!(head.space(), Space::Persistent);
//!
//! let mut image = MemoryImage::new();
//! image.write_u64(head, 42)?;
//! assert_eq!(image.read_u64(head)?, 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod addr;
mod alloc;
pub mod backend;
mod error;
pub mod fx;
mod granularity;
pub mod hw;
mod image;

pub use addr::{MemAddr, Space};
pub use backend::{DirectPmem, PmemBackend};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet};
pub use alloc::PersistentAllocator;
pub use error::MemError;
pub use granularity::{AtomicPersistSize, BlockId, BlockRange, TrackingGranularity};
pub use image::MemoryImage;

/// The paper's baseline atomic persist size: eight bytes (pointer sized),
/// per §3 ("we expect NVRAM devices will guarantee atomic persists of some
/// size (e.g., eight-bytes)").
pub const DEFAULT_ATOMIC_PERSIST_BYTES: u64 = 8;

/// The paper's baseline dependence-tracking granularity (§7): eight-byte
/// aligned words.
pub const DEFAULT_TRACKING_BYTES: u64 = 8;

/// Cache-line size assumed throughout the evaluation (padding in §7 uses
/// 64-byte alignment to avoid false sharing).
pub const CACHE_LINE_BYTES: u64 = 64;
