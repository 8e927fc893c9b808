//! Thread-safe persistent queues from *Memory Persistency* (ISCA 2014).
//!
//! §6 of the paper introduces a persistent circular-buffer queue as the
//! motivating microbenchmark — the core of write-ahead logs and journaled
//! file systems — in two designs (Algorithm 1):
//!
//! - **Copy While Locked (CWL)**: one lock serializes inserts; each insert
//!   persists the entry (length + payload) into the data segment, then
//!   persists the advanced head pointer.
//! - **Two-Lock Concurrent (2LC)**: a reservation lock assigns disjoint
//!   data-segment regions so entry copies (and their persists) proceed in
//!   parallel; an update lock and a volatile insert list advance the head
//!   pointer only over the contiguous prefix of completed inserts,
//!   preventing holes.
//!
//! Recovery for both: an entry is valid iff the persisted head pointer
//! encompasses its region of the data segment.
//!
//! Each persistence protocol is written against the interposable
//! [`persist_mem::PmemBackend`], which traced memory implements too, so
//! one body serves the persistency analyses, crash-fuzz and `serve`:
//!
//! - [`traced`] — the queues run over [`mem_trace::TracedMem`] with their
//!   traced MCS locks, annotated with persist and strand barriers exactly
//!   as Algorithm 1 (including the *racing epochs* variant that elides
//!   the barriers around the lock). The Copy While Locked critical
//!   section inside the lock is backend-generic;
//! - [`pmem`] — the single-inserter wrappers `pfi` and `serve` drive over
//!   `DirectPmem` or the fault injector's shadow: Copy While Locked runs
//!   the same critical section (including a deliberately barrier-elided
//!   [`BarrierMode::Elided`] used to validate the injector); Two-Lock
//!   Concurrent still keeps its own completion protocol (it persists each
//!   entry when it completes, see the module docs),
//! - [`native`] — the same designs over real memory with real threads, MCS
//!   locks and cache-line flush intrinsics, kept as raw hardware code
//!   because it measures the instruction execution rate (the Table 1
//!   normalization baseline),
//! - [`entry`] — self-validating entry encoding (slot, lap, checksum) and
//!   [`entry::copy_entry`], the one Algorithm 1 entry copy every queue
//!   uses,
//! - [`recovery`] — queue recovery from a persistent-memory image and the
//!   crash-consistency invariant used with
//!   [`persistency::crash`],
//! - [`bounded`] — an extension with a persistent tail pointer and a
//!   consumer side, whose §5.3 read-then-barrier flow control makes
//!   circular-buffer reuse crash safe under every model.
//!
//! # Example
//!
//! ```rust
//! use mem_trace::{TracedMem, FreeRunScheduler};
//! use pqueue::traced::{QueueParams, BarrierMode, run_cwl_workload};
//! use persistency::{timing, AnalysisConfig, Model};
//!
//! let params = QueueParams::small_test();
//! let (trace, layout) =
//!     run_cwl_workload(TracedMem::new(FreeRunScheduler), params, BarrierMode::Full, 1, 10);
//! let strict = timing::analyze(&trace, &AnalysisConfig::new(Model::Strict));
//! let epoch = timing::analyze(&trace, &AnalysisConfig::new(Model::Epoch));
//! assert!(strict.critical_path > epoch.critical_path);
//! # let _ = layout;
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod bounded;
pub mod entry;
pub mod native;
pub mod pmem;
pub mod recovery;
pub mod traced;

pub use entry::{EntryCodec, PAYLOAD_BYTES};
pub use pmem::{PmemCwlQueue, PmemTwoLockQueue};
pub use traced::{BarrierMode, QueueLayout, QueueParams};
