//! Hardware persist primitives for *native* (non-simulated) code paths.
//!
//! The native queue implementations used to measure instruction execution
//! rate (the Table 1 normalization baseline) call these at the points where
//! a real persistent-memory system would flush cache lines and fence.
//!
//! # Per-target guarantees
//!
//! | target | [`flush_cache_line`] | [`persist_fence`] | guarantee |
//! |---|---|---|---|
//! | `x86_64` | `clflush` | `sfence` | line leaves the cache hierarchy; on ADR platforms flush + fence is durable |
//! | `aarch64` | `dc cvac` | `dmb ish` | line cleaned to the point of coherency; durable on platforms where PoC reaches the persistence domain (use `dc cvap`/PoP systems for stronger claims) |
//! | other | compiler/SeqCst fence | SeqCst fence | ordering only — no cache maintenance is performed; the code path and its control-flow shape are preserved but nothing is written back |
//!
//! There is no NVDIMM in the evaluation environment, so these do not make
//! data durable here regardless of target — they exercise the real
//! instruction sequence and its cost, which is what the instruction-rate
//! measurement needs (see DESIGN.md substitutions). The `pfi` crate's
//! shadow backend is the semantic counterpart: it gives the flush/fence
//! calls their *durability* meaning and crash-tests the protocols built
//! from them.

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
use std::sync::atomic::{fence, Ordering};

/// Flushes the cache line containing `p` toward memory.
///
/// On x86_64 this issues `clflush`; on aarch64 `dc cvac` (clean by virtual
/// address to the point of coherency); elsewhere it is a compiler fence so
/// the surrounding code is not reordered away. See the module table for
/// what each target actually guarantees.
///
/// # Safety
///
/// `p` must point into a mapped allocation (`clflush`/`dc cvac` of an
/// unmapped address faults). The pointee is never read or written.
///
/// # Example
///
/// ```rust
/// let x = 42u64;
/// unsafe { persist_mem::hw::flush_cache_line(&x as *const u64 as *const u8) };
/// persist_mem::hw::persist_fence();
/// ```
#[inline]
pub unsafe fn flush_cache_line(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the caller guarantees `p` is mapped, which is all `clflush`
    // needs; it writes the line back without reading or writing through
    // `p`, and SSE2 (which provides it) is baseline on x86_64.
    unsafe {
        core::arch::x86_64::_mm_clflush(p);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: the caller guarantees `p` is mapped; `dc cvac` performs no
    // data access beyond the cache maintenance itself. Linux enables EL0
    // cache maintenance (SCTLR_EL1.UCI), so this does not trap.
    unsafe {
        core::arch::asm!("dc cvac, {0}", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = p;
        fence(Ordering::SeqCst);
    }
}

/// Orders preceding flushes before subsequent stores (persist barrier at
/// the hardware level).
///
/// On x86_64 this issues `sfence`; on aarch64 `dmb ish` (inner-shareable
/// data barrier, which orders the preceding `dc cvac` completions);
/// elsewhere a sequentially consistent fence.
#[inline]
pub fn persist_fence() {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a store fence accesses no memory, and SSE (which provides
    // it) is baseline on x86_64.
    unsafe {
        core::arch::x86_64::_mm_sfence();
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: a data memory barrier accesses no memory.
    unsafe {
        core::arch::asm!("dmb ish", options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    fence(Ordering::SeqCst);
}

/// Flushes every cache line overlapping `len` bytes at `p`, without a
/// trailing fence (callers decide where the persist barrier goes).
///
/// # Safety
///
/// `p..p+len` must lie within a mapped allocation; the function only
/// *flushes*, never reads or writes through the pointer, so any live
/// allocation is fine.
#[inline]
pub unsafe fn flush_range(p: *const u8, len: usize) {
    if len == 0 {
        return;
    }
    let line = crate::CACHE_LINE_BYTES as usize;
    let start = p as usize & !(line - 1);
    let end = p as usize + len;
    let mut cur = start;
    while cur < end {
        // SAFETY: every flushed line overlaps the caller-guaranteed range.
        unsafe { flush_cache_line(cur as *const u8) };
        cur += line;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_and_fence_do_not_crash() {
        let buf = vec![0u8; 256];
        // SAFETY: the range is exactly `buf`'s live allocation.
        unsafe { flush_range(buf.as_ptr(), buf.len()) };
        persist_fence();
    }

    #[test]
    fn flush_range_handles_unaligned_and_empty() {
        let buf = vec![0u8; 300];
        // SAFETY: both ranges lie within `buf`'s 300 live bytes.
        unsafe {
            flush_range(buf.as_ptr().add(3), 200);
            flush_range(buf.as_ptr(), 0);
        }
        persist_fence();
    }

    #[test]
    fn flush_single_byte() {
        let x = 7u8;
        // SAFETY: `x` is a live local.
        unsafe { flush_cache_line(&x as *const u8) };
        persist_fence();
    }
}
