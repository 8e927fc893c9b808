//! Liveness and determinism of the seeded scheduler when threads outnumber
//! cores.
//!
//! Eight capture threads on a host with fewer cores force most handoffs
//! through the park path: a lost wakeup hangs the test, and a grant
//! decision that depended on host timing shows up as a trace that differs
//! between two runs of the same seed.

use mem_trace::locks::McsLock;
use mem_trace::{SeededScheduler, Trace, TracedMem};
use persist_mem::MemAddr;

const THREADS: u32 = 8;
const SEEDS: [u64; 3] = [1, 7, 42];

/// Runs `THREADS` threads; thread `t` takes the shared MCS lock
/// `iters(t)` times to increment one counter and bumps a private counter
/// as often. Returns the trace after checking it is SC and that both
/// counters hold their expected values.
fn run_checked(seed: u64, iters: impl Fn(u64) -> u64 + Sync) -> Trace {
    let lock = McsLock::new(MemAddr::volatile(64));
    let shared = MemAddr::volatile(128);
    let private = |t: u64| MemAddr::volatile(8192 + 64 * t);
    let mem = TracedMem::new(SeededScheduler::new(seed));
    let trace = mem.run(THREADS, |ctx| {
        let t = ctx.thread_id().as_u64();
        let node = MemAddr::volatile(4096 + 64 * t);
        for _ in 0..iters(t) {
            lock.acquire(ctx, node);
            let v = ctx.load_u64(shared);
            ctx.store_u64(shared, v + 1);
            lock.release(ctx, node);
            ctx.fetch_add_u64(private(t), 1);
        }
    });
    trace.validate_sc().unwrap();
    let image = trace.final_image();
    let total: u64 = (0..THREADS as u64).map(&iters).sum();
    assert_eq!(
        image.read_u64(shared).unwrap(),
        total,
        "seed {seed}: mutual exclusion violated"
    );
    for t in 0..THREADS as u64 {
        assert_eq!(
            image.read_u64(private(t)).unwrap(),
            iters(t),
            "seed {seed}: thread {t}"
        );
    }
    trace
}

fn assert_live_and_repeatable(iters: impl Fn(u64) -> u64 + Sync + Copy) {
    for seed in SEEDS {
        let a = run_checked(seed, iters);
        let b = run_checked(seed, iters);
        assert_eq!(
            a.events(),
            b.events(),
            "seed {seed}: interleaving changed between runs"
        );
    }
}

#[test]
fn contended_mcs_increments_oversubscribed() {
    assert_live_and_repeatable(|_| 40);
}

#[test]
fn lopsided_threads_leave_at_staggered_points() {
    // Thread 0 leaves without a single operation; the others leave one
    // after another as their shorter workloads run out.
    assert_live_and_repeatable(|t| 8 * t);
}
