//! Interposable persistence backend.
//!
//! Every persistent structure in the workspace (the `pstruct` table and
//! undo log, the `pqueue` Copy While Locked critical section and entry
//! copy) writes its persistence protocol *once*, against this trait:
//! stores, cache-line flushes and persist fences become trait calls, so
//! the same body runs over
//!
//! - [`DirectPmem`] — a plain [`MemoryImage`] where every store is
//!   immediately durable (functional testing, golden runs, `serve` shards),
//! - a tracking backend (the `pfi` crate's `ShadowPmem`) that records every
//!   store/flush/fence and injects crashes that drop any subset of
//!   *pending* (written-but-not-persisted) cache lines the active
//!   persistency model allows, or
//! - traced memory (`mem_trace::ThreadCtx`), which turns each call into
//!   the trace events the persistency analyses consume: `store` is a
//!   traced byte copy (one `Store` event per word chunk), the word ops are
//!   the traced word accesses, `fence` is a `PersistBarrier`, `strand` is
//!   a `NewStrand`, `mem_barrier` is a `MemBarrier` and `flush` records
//!   nothing (the paper's models order persists with barriers alone).
//!
//! The call mapping to hardware is one-to-one: [`PmemBackend::store`] is a
//! plain store to persistent memory, [`PmemBackend::flush`] is
//! `clflush`/`dc cvac` over the covered lines, and [`PmemBackend::fence`]
//! is `sfence`/`dmb ish` (see [`crate::hw`] for the per-target
//! instructions). A store is *guaranteed durable* only once a flush
//! covering it has been followed by a fence; anything weaker is pending
//! and may be lost — or survive — at a crash.
//!
//! # Example
//!
//! ```rust
//! use persist_mem::{DirectPmem, MemAddr, PmemBackend};
//!
//! let mut mem = DirectPmem::new();
//! let flag = MemAddr::persistent(0);
//! let payload = MemAddr::persistent(64);
//! mem.store_u64(payload, 42);
//! mem.persist(payload, 8); // flush + fence: payload durable
//! mem.store_u64(flag, 1);
//! mem.persist(flag, 8);
//! assert_eq!(mem.image().read_u64(payload).unwrap(), 42);
//! ```

use crate::{MemAddr, MemoryImage};

/// The persistence interface every persistent structure is written against.
///
/// All methods take `&mut self` so tracking backends can record ordering;
/// loads are included because recovery-relevant protocols read their own
/// persistent state (head pointers, probe chains, log counts). Protocol
/// bodies take the backend by value (`mut mem: impl PmemBackend`): pass
/// `&mut backend` for an owned backend (see the `&mut B` impl below) or a
/// `&ThreadCtx` for traced memory.
pub trait PmemBackend {
    /// Reads `buf.len()` bytes at `addr` from the current (cached, possibly
    /// not yet durable) contents.
    fn load(&mut self, addr: MemAddr, buf: &mut [u8]);

    /// Stores `data` at `addr`. The bytes become visible to subsequent
    /// loads immediately but are only *pending* durability.
    fn store(&mut self, addr: MemAddr, data: &[u8]);

    /// Initiates write-back of every cache line overlapping
    /// `[addr, addr + len)` (`clflush` per line). Durability is guaranteed
    /// only after a subsequent [`PmemBackend::fence`].
    fn flush(&mut self, addr: MemAddr, len: u64);

    /// Persist fence (`sfence`): all previously flushed lines are durable
    /// once this returns.
    fn fence(&mut self);

    /// Strand barrier (§5.3 of the paper): clears the persist-ordering
    /// dependences this execution has accumulated. A no-op for backends
    /// (and models) without strand semantics.
    fn strand(&mut self) {}

    /// Memory consistency barrier: orders store *visibility* on a relaxed
    /// consistency model (the RMO annotation strict persistency relies on,
    /// §4.2). Only traced memory records it; durability backends have
    /// nothing to do, so the default is a no-op.
    fn mem_barrier(&mut self) {}

    /// Reads a little-endian `u64` at `addr`.
    fn load_u64(&mut self, addr: MemAddr) -> u64 {
        let mut buf = [0u8; 8];
        self.load(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Stores a little-endian `u64` at `addr`.
    fn store_u64(&mut self, addr: MemAddr, value: u64) {
        self.store(addr, &value.to_le_bytes());
    }

    /// Flush + fence: makes `[addr, addr + len)` durable before returning.
    fn persist(&mut self, addr: MemAddr, len: u64) {
        self.flush(addr, len);
        self.fence();
    }
}

/// An exclusive borrow of a backend is a backend, so protocol bodies that
/// take theirs by value can be handed `&mut backend` and leave the caller
/// its owned backend. Every method forwards, so overrides of the provided
/// methods stay in effect.
impl<B: PmemBackend + ?Sized> PmemBackend for &mut B {
    fn load(&mut self, addr: MemAddr, buf: &mut [u8]) {
        (**self).load(addr, buf);
    }

    fn store(&mut self, addr: MemAddr, data: &[u8]) {
        (**self).store(addr, data);
    }

    fn flush(&mut self, addr: MemAddr, len: u64) {
        (**self).flush(addr, len);
    }

    fn fence(&mut self) {
        (**self).fence();
    }

    fn strand(&mut self) {
        (**self).strand();
    }

    fn mem_barrier(&mut self) {
        (**self).mem_barrier();
    }

    fn load_u64(&mut self, addr: MemAddr) -> u64 {
        (**self).load_u64(addr)
    }

    fn store_u64(&mut self, addr: MemAddr, value: u64) {
        (**self).store_u64(addr, value);
    }

    fn persist(&mut self, addr: MemAddr, len: u64) {
        (**self).persist(addr, len);
    }
}

/// A backend with no volatility: stores land directly in a
/// [`MemoryImage`] and are durable immediately; flushes and fences are
/// no-ops.
///
/// This is the golden-run backend: a structure driven over `DirectPmem`
/// yields the image a crash-free execution would leave behind, which the
/// fault injector compares recovered states against.
#[derive(Debug, Clone, Default)]
pub struct DirectPmem {
    image: MemoryImage,
}

impl DirectPmem {
    /// An empty (all-zero) persistent image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from an existing image (e.g. a recovered one).
    pub fn with_image(image: MemoryImage) -> Self {
        DirectPmem { image }
    }

    /// The current image.
    pub fn image(&self) -> &MemoryImage {
        &self.image
    }

    /// Consumes the backend, returning its image.
    pub fn into_image(self) -> MemoryImage {
        self.image
    }
}

impl PmemBackend for DirectPmem {
    fn load(&mut self, addr: MemAddr, buf: &mut [u8]) {
        self.image.read(addr, buf).expect("backend load in range");
    }

    fn store(&mut self, addr: MemAddr, data: &[u8]) {
        self.image.write(addr, data).expect("backend store in range");
    }

    fn flush(&mut self, _addr: MemAddr, _len: u64) {}

    fn fence(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_backend_roundtrip() {
        let mut mem = DirectPmem::new();
        let a = MemAddr::persistent(128);
        mem.store_u64(a, 7);
        assert_eq!(mem.load_u64(a), 7);
        mem.persist(a, 8);
        mem.strand(); // default no-ops
        mem.mem_barrier();
        assert_eq!(mem.into_image().read_u64(a).unwrap(), 7);
    }

    #[test]
    fn with_image_preserves_contents() {
        let mut img = MemoryImage::new();
        img.write_u64(MemAddr::persistent(0), 99).unwrap();
        let mut mem = DirectPmem::with_image(img);
        assert_eq!(mem.load_u64(MemAddr::persistent(0)), 99);
    }

    #[test]
    fn unwritten_bytes_read_zero() {
        let mut mem = DirectPmem::new();
        let mut buf = [0xAA; 4];
        mem.load(MemAddr::persistent(4096), &mut buf);
        assert_eq!(buf, [0; 4]);
    }
}
