//! Persistent open-addressing hash table.
//!
//! Each bucket is one cache line: `[state][key][value][checksum]`
//! (8 bytes each). Publication follows the valid-flag protocol: key,
//! value and checksum persist first, a persist barrier orders them, and
//! only then does the state word flip to `VALID`. Recovery trusts exactly
//! the buckets whose state is `VALID` and whose checksum matches — any
//! reachable failure state recovers to a map whose every visible entry
//! was actually written.
//!
//! Updates overwrite the value word in place *through a fresh publish*:
//! the bucket is first invalidated (state → `DIRTY`, persisted), then the
//! new value and checksum are persisted, then the state returns to
//! `VALID`. A failure mid-update loses that key (acceptable for a cache;
//! use [`crate::txn::UndoLog`] for atomic multi-word updates).
//!
//! The protocol is written once, against [`PmemBackend`]: the same
//! `put`/`get`/`remove` bodies run over traced memory (pass the
//! `&ThreadCtx`) for the persistency analyses and over `DirectPmem` or the
//! `pfi` shadow (pass `&mut backend`) for `serve` and crash-fuzz.

use mem_trace::{Scheduler, ThreadCtx, TracedMem};
use persist_mem::{MemAddr, MemoryImage, PmemBackend, CACHE_LINE_BYTES};

/// Bucket states.
const EMPTY: u64 = 0;
const VALID: u64 = 1;
const DIRTY: u64 = 2;

/// Field offsets within a bucket.
const STATE: u64 = 0;
const KEY: u64 = 8;
const VALUE: u64 = 16;
const CKSUM: u64 = 24;

/// Mixes a key/value pair into a checksum word.
fn checksum(key: u64, value: u64) -> u64 {
    let mut x = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ value.rotate_left(31);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^ (x >> 29) | 1 // never zero, so an all-zero bucket cannot validate
}

/// A fixed-capacity persistent hash table over any [`PmemBackend`].
///
/// Keys are nonzero `u64`s; values are `u64`s. Probing is linear. The
/// table never resizes (persistent-structure resizing is its own research
/// problem); `put` panics when full.
///
/// Mutation (`put`/`remove`) is **single-writer**: the structure carries
/// no internal lock, so concurrent mutators must be serialized externally
/// (e.g. with [`mem_trace::locks::McsLock`]). Concurrent readers are fine.
///
/// # Example
///
/// ```rust
/// use mem_trace::{TracedMem, FreeRunScheduler};
/// use pstruct::kv::PersistentKv;
///
/// let mem = TracedMem::new(FreeRunScheduler);
/// let kv = PersistentKv::create(&mem, 64);
/// let trace = mem.run(1, |ctx| {
///     kv.put(ctx, 7, 700);
///     kv.put(ctx, 9, 900);
///     assert_eq!(kv.get(ctx, 7), Some(700));
///     assert_eq!(kv.get(ctx, 8), None);
/// });
/// // Recover from the final persistent image.
/// let entries = kv.recover(&trace.final_image()).unwrap();
/// assert_eq!(entries.len(), 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PersistentKv {
    base: MemAddr,
    buckets: u64,
}

impl PersistentKv {
    /// Allocates a table with `buckets` slots (rounded up to a power of
    /// two) in the persistent space.
    ///
    /// # Panics
    ///
    /// Panics if allocation fails or `buckets` is zero.
    pub fn create<S: Scheduler>(mem: &TracedMem<S>, buckets: u64) -> Self {
        assert!(buckets > 0, "table needs at least one bucket");
        let buckets = buckets.next_power_of_two();
        let base = mem
            .setup_alloc(buckets * CACHE_LINE_BYTES, CACHE_LINE_BYTES)
            .expect("kv table allocation");
        PersistentKv { base, buckets }
    }

    /// Places a table at a fixed persistent address (no traced allocator),
    /// for backends that have none (`DirectPmem`, the `pfi` shadow).
    /// `buckets` is rounded up
    /// to a power of two; the table occupies
    /// `buckets * CACHE_LINE_BYTES` bytes at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero, `base` is not persistent, or `base` is
    /// not cache-line aligned.
    pub fn from_raw(base: MemAddr, buckets: u64) -> Self {
        assert!(buckets > 0, "table needs at least one bucket");
        assert!(base.is_persistent(), "kv table lives in the persistent space");
        assert_eq!(base.offset() % CACHE_LINE_BYTES, 0, "table base must be line aligned");
        PersistentKv { base, buckets: buckets.next_power_of_two() }
    }

    /// Number of bucket slots.
    pub fn capacity(&self) -> u64 {
        self.buckets
    }

    fn bucket(&self, i: u64) -> MemAddr {
        self.base.add((i % self.buckets) * CACHE_LINE_BYTES)
    }

    fn probe_start(&self, key: u64) -> u64 {
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.buckets
    }

    /// Inserts or updates `key → value`. Every persist barrier is a
    /// flush + fence of the bucket line.
    ///
    /// The body opens no strand: whether an operation may start a fresh
    /// strand, dropping its order after everything the thread persisted
    /// before, is the caller's choice. Callers running independent
    /// operations (crash-fuzz, `serve`) call `strand()` first; one that must
    /// order the table after another structure (an index entry after the
    /// log record it points at) must not.
    ///
    /// # Panics
    ///
    /// Panics if `key` is zero or the table is full.
    pub fn put(&self, mut mem: impl PmemBackend, key: u64, value: u64) {
        assert_ne!(key, 0, "keys must be nonzero");
        let start = self.probe_start(key);
        for p in 0..self.buckets {
            let b = self.bucket(start + p);
            let state = mem.load_u64(b.add(STATE));
            if state == VALID || state == DIRTY {
                if mem.load_u64(b.add(KEY)) != key {
                    continue;
                }
                // In-place update through invalidate → write → publish.
                mem.store_u64(b.add(STATE), DIRTY);
                mem.persist(b, CACHE_LINE_BYTES); // invalidation before new bytes
                mem.store_u64(b.add(VALUE), value);
                mem.store_u64(b.add(CKSUM), checksum(key, value));
                mem.persist(b, CACHE_LINE_BYTES); // new bytes before re-publish
                mem.store_u64(b.add(STATE), VALID);
                mem.persist(b, CACHE_LINE_BYTES);
                return;
            }
            if state == EMPTY {
                // Fresh publish: payload first, then the valid flag.
                mem.store_u64(b.add(KEY), key);
                mem.store_u64(b.add(VALUE), value);
                mem.store_u64(b.add(CKSUM), checksum(key, value));
                mem.persist(b, CACHE_LINE_BYTES); // payload before the flag
                mem.store_u64(b.add(STATE), VALID);
                mem.persist(b, CACHE_LINE_BYTES);
                return;
            }
        }
        panic!("persistent kv table is full");
    }

    /// Looks up `key`.
    pub fn get(&self, mut mem: impl PmemBackend, key: u64) -> Option<u64> {
        let start = self.probe_start(key);
        for p in 0..self.buckets {
            let b = self.bucket(start + p);
            match mem.load_u64(b.add(STATE)) {
                EMPTY => return None,
                s if (s == VALID || s == DIRTY) && mem.load_u64(b.add(KEY)) == key => {
                    return (s == VALID).then(|| mem.load_u64(b.add(VALUE)));
                }
                _ => {}
            }
        }
        None
    }

    /// Removes `key`; returns whether it was present. Opens no strand
    /// (see [`PersistentKv::put`]).
    pub fn remove(&self, mut mem: impl PmemBackend, key: u64) -> bool {
        let start = self.probe_start(key);
        for p in 0..self.buckets {
            let b = self.bucket(start + p);
            match mem.load_u64(b.add(STATE)) {
                EMPTY => return false,
                s if (s == VALID || s == DIRTY) && mem.load_u64(b.add(KEY)) == key => {
                    if s == DIRTY {
                        return false; // already deleted
                    }
                    // Tombstone: DIRTY keeps the probe chain intact.
                    mem.store_u64(b.add(STATE), DIRTY);
                    mem.persist(b, CACHE_LINE_BYTES);
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    /// Recovers the table from a persistent image: every `VALID` bucket
    /// must carry a matching checksum.
    ///
    /// # Errors
    ///
    /// Returns a description of the first corrupt bucket — a valid flag
    /// over unpersisted payload, exactly what a missing publish barrier
    /// would allow.
    pub fn recover(&self, image: &MemoryImage) -> Result<Vec<(u64, u64)>, String> {
        let mut out = Vec::new();
        self.recover_each(image, |k, v| out.push((k, v)))?;
        Ok(out)
    }

    /// Streaming [`PersistentKv::recover`]: validates every `VALID` bucket
    /// and hands each `(key, value)` to `sink` without allocating. The hot
    /// path for the crash injector, which validates thousands of images.
    ///
    /// # Errors
    ///
    /// As [`PersistentKv::recover`].
    pub fn recover_each(
        &self,
        image: &MemoryImage,
        mut sink: impl FnMut(u64, u64),
    ) -> Result<(), String> {
        for i in 0..self.buckets {
            let b = self.bucket(i);
            let state = image.read_u64(b.add(STATE)).map_err(|e| e.to_string())?;
            if state != VALID {
                continue;
            }
            let key = image.read_u64(b.add(KEY)).map_err(|e| e.to_string())?;
            let value = image.read_u64(b.add(VALUE)).map_err(|e| e.to_string())?;
            let ck = image.read_u64(b.add(CKSUM)).map_err(|e| e.to_string())?;
            if ck != checksum(key, value) {
                return Err(format!(
                    "bucket {i} is VALID but checksum mismatches (key {key:#x}, value {value:#x})"
                ));
            }
            if key == 0 {
                return Err(format!("bucket {i} is VALID with a null key"));
            }
            sink(key, value);
        }
        Ok(())
    }

    /// The crash-consistency invariant for [`persistency::crash::check`]:
    /// every recoverable state must decode.
    pub fn crash_invariant(self) -> impl Fn(&MemoryImage) -> Result<(), String> {
        move |image| self.recover(image).map(|_| ())
    }
}

/// A multi-writer wrapper: serializes mutations through a traced MCS
/// lock, with persist barriers around the critical section so writers'
/// publishes are ordered across threads (the §5.2 "barriers around lock
/// acquires and releases" discipline).
///
/// # Example
///
/// ```rust
/// use mem_trace::{TracedMem, FreeRunScheduler};
/// use persist_mem::MemAddr;
/// use pstruct::kv::{LockedKv, PersistentKv};
///
/// let mem = TracedMem::new(FreeRunScheduler);
/// let kv = LockedKv::new(PersistentKv::create(&mem, 64), MemAddr::volatile(1 << 22));
/// let trace = mem.run(4, |ctx| {
///     for i in 0..5u64 {
///         kv.put(ctx, 1 + i * 4 + ctx.thread_id().as_u64(), i);
///     }
/// });
/// assert_eq!(kv.inner().recover(&trace.final_image()).unwrap().len(), 20);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LockedKv {
    inner: PersistentKv,
    lock: mem_trace::locks::McsLock,
    nodes_base: MemAddr,
}

impl LockedKv {
    /// Wraps a table with a lock whose state lives at `lock_base` (one
    /// cache line for the lock word, one per thread for MCS nodes above
    /// it).
    pub fn new(inner: PersistentKv, lock_base: MemAddr) -> Self {
        LockedKv {
            inner,
            lock: mem_trace::locks::McsLock::new(lock_base),
            nodes_base: lock_base.add(CACHE_LINE_BYTES),
        }
    }

    /// The wrapped single-writer table.
    pub fn inner(&self) -> &PersistentKv {
        &self.inner
    }

    fn node<S: Scheduler>(&self, ctx: &ThreadCtx<'_, S>) -> MemAddr {
        self.nodes_base.add(CACHE_LINE_BYTES * ctx.thread_id().as_u64())
    }

    /// Serialized insert/update.
    ///
    /// # Panics
    ///
    /// As [`PersistentKv::put`].
    pub fn put<S: Scheduler>(&self, ctx: &ThreadCtx<'_, S>, key: u64, value: u64) {
        let node = self.node(ctx);
        ctx.persist_barrier();
        self.lock.acquire(ctx, node);
        ctx.mem_barrier();
        ctx.persist_barrier();
        self.inner.put(ctx, key, value);
        ctx.persist_barrier();
        ctx.mem_barrier();
        self.lock.release(ctx, node);
        ctx.persist_barrier();
    }

    /// Serialized removal.
    pub fn remove<S: Scheduler>(&self, ctx: &ThreadCtx<'_, S>, key: u64) -> bool {
        let node = self.node(ctx);
        ctx.persist_barrier();
        self.lock.acquire(ctx, node);
        ctx.mem_barrier();
        ctx.persist_barrier();
        let hit = self.inner.remove(ctx, key);
        ctx.persist_barrier();
        ctx.mem_barrier();
        self.lock.release(ctx, node);
        ctx.persist_barrier();
        hit
    }

    /// Lock-free lookup (readers never block writers in this wrapper; a
    /// concurrent update may make the key transiently absent, as in the
    /// single-writer table).
    pub fn get<S: Scheduler>(&self, ctx: &ThreadCtx<'_, S>, key: u64) -> Option<u64> {
        self.inner.get(ctx, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_trace::{FreeRunScheduler, SeededScheduler};
    use persistency::crash::{check, Exploration};
    use persistency::dag::PersistDag;
    use persistency::{AnalysisConfig, Model};

    #[test]
    fn put_get_remove_roundtrip() {
        let mem = TracedMem::new(FreeRunScheduler);
        let kv = PersistentKv::create(&mem, 32);
        mem.run(1, |ctx| {
            for k in 1..=20u64 {
                kv.put(ctx, k, k * 10);
            }
            for k in 1..=20u64 {
                assert_eq!(kv.get(ctx, k), Some(k * 10));
            }
            assert!(kv.remove(ctx, 7));
            assert!(!kv.remove(ctx, 7));
            assert_eq!(kv.get(ctx, 7), None);
            kv.put(ctx, 5, 999); // update
            assert_eq!(kv.get(ctx, 5), Some(999));
        });
    }

    #[test]
    fn recovery_sees_all_completed_puts() {
        let mem = TracedMem::new(FreeRunScheduler);
        let kv = PersistentKv::create(&mem, 64);
        let trace = mem.run(1, |ctx| {
            for k in 1..=15u64 {
                kv.put(ctx, k, k + 100);
            }
        });
        let mut entries = kv.recover(&trace.final_image()).unwrap();
        entries.sort_unstable();
        assert_eq!(entries.len(), 15);
        assert_eq!(entries[0], (1, 101));
    }

    #[test]
    fn collision_chains_survive() {
        // A one-bucket table forces every insert through the probe chain.
        let mem = TracedMem::new(FreeRunScheduler);
        let kv = PersistentKv::create(&mem, 4);
        let trace = mem.run(1, |ctx| {
            for k in 1..=4u64 {
                kv.put(ctx, k, k);
            }
            for k in 1..=4u64 {
                assert_eq!(kv.get(ctx, k), Some(k));
            }
        });
        assert_eq!(kv.recover(&trace.final_image()).unwrap().len(), 4);
    }

    #[test]
    #[should_panic(expected = "traced thread panicked")]
    fn overfull_table_panics() {
        let mem = TracedMem::new(FreeRunScheduler);
        let kv = PersistentKv::create(&mem, 2);
        mem.run(1, |ctx| {
            for k in 1..=3u64 {
                kv.put(ctx, k, k);
            }
        });
    }

    #[test]
    fn crash_consistent_under_relaxed_models() {
        for model in [Model::Epoch, Model::Strand] {
            let mem = TracedMem::new(SeededScheduler::new(3));
            let kv = PersistentKv::create(&mem, 16);
            let trace = mem.run(2, |ctx| {
                let t = ctx.thread_id().as_u64();
                for k in 1..=4u64 {
                    kv.put(ctx, k + 10 * t, k);
                }
            });
            let dag = PersistDag::build(&trace, &AnalysisConfig::new(model)).unwrap();
            let report = check(
                &dag,
                Exploration::Sampled { seed: 5, extensions: 200 },
                kv.crash_invariant(),
            )
            .unwrap();
            assert!(report.is_consistent(), "{model}: {report}");
        }
    }

    #[test]
    fn missing_publish_barrier_is_caught() {
        // Hand-roll a put without the payload-before-flag barrier: epoch
        // persistency lets the flag persist first.
        let mem = TracedMem::new(FreeRunScheduler);
        let kv = PersistentKv::create(&mem, 16);
        let base = kv.bucket(kv.probe_start(42));
        let trace = mem.run(1, move |ctx| {
            ctx.store_u64(base.add(KEY), 42);
            ctx.store_u64(base.add(VALUE), 4200);
            ctx.store_u64(base.add(CKSUM), checksum(42, 4200));
            // BUG: no persist barrier before the flag.
            ctx.store_u64(base.add(STATE), VALID);
        });
        let dag = PersistDag::build(&trace, &AnalysisConfig::new(Model::Epoch)).unwrap();
        let report = check(
            &dag,
            Exploration::Exhaustive { limit: 1000 },
            kv.crash_invariant(),
        )
        .unwrap();
        assert!(!report.is_consistent());
        // Under SC-strict the program order suffices.
        let dag = PersistDag::build(&trace, &AnalysisConfig::new(Model::Strict)).unwrap();
        let report = check(
            &dag,
            Exploration::Exhaustive { limit: 1000 },
            kv.crash_invariant(),
        )
        .unwrap();
        assert!(report.is_consistent());
    }

    #[test]
    fn persist_barriers_do_not_cover_strict_rmo() {
        // The table is annotated with *persist* barriers, which strict
        // persistency under relaxed consistency ignores — there the
        // publish protocol needs *memory* barriers instead. The checker
        // shows the annotation mismatch concretely.
        let mem = TracedMem::new(FreeRunScheduler);
        let kv = PersistentKv::create(&mem, 16);
        let trace = mem.run(1, |ctx| {
            for k in 1..=4u64 {
                kv.put(ctx, k, k);
            }
        });
        let dag = PersistDag::build(&trace, &AnalysisConfig::new(Model::StrictRmo)).unwrap();
        let report = check(
            &dag,
            Exploration::Sampled { seed: 2, extensions: 200 },
            kv.crash_invariant(),
        )
        .unwrap();
        assert!(
            !report.is_consistent(),
            "persist barriers alone must not protect strict-rmo"
        );
    }

    #[test]
    fn locked_kv_supports_concurrent_writers() {
        for seed in [1u64, 8] {
            let mem = TracedMem::new(SeededScheduler::new(seed));
            let kv = LockedKv::new(
                PersistentKv::create(&mem, 64),
                persist_mem::MemAddr::volatile(1 << 22),
            );
            let trace = mem.run(3, |ctx| {
                let t = ctx.thread_id().as_u64();
                for i in 0..5u64 {
                    kv.put(ctx, 1 + i * 3 + t, i * 100 + t);
                }
            });
            trace.validate_sc().unwrap();
            let mut entries = kv.inner().recover(&trace.final_image()).unwrap();
            entries.sort_unstable();
            assert_eq!(entries.len(), 15, "seed {seed}");
            // Crash consistency across concurrent writers.
            let dag = PersistDag::build(&trace, &AnalysisConfig::new(Model::Epoch)).unwrap();
            let report = check(
                &dag,
                Exploration::Sampled { seed: 2, extensions: 150 },
                kv.inner().crash_invariant(),
            )
            .unwrap();
            assert!(report.is_consistent(), "seed {seed}: {report}");
        }
    }

    #[test]
    fn update_is_not_atomic_but_never_corrupt() {
        // A failure mid-update may lose the key (DIRTY) but must never
        // present a wrong value as VALID.
        let mem = TracedMem::new(FreeRunScheduler);
        let kv = PersistentKv::create(&mem, 8);
        let trace = mem.run(1, |ctx| {
            kv.put(ctx, 3, 30);
            kv.put(ctx, 3, 31);
            kv.put(ctx, 3, 32);
        });
        let dag = PersistDag::build(&trace, &AnalysisConfig::new(Model::Epoch)).unwrap();
        let obs = persistency::observer::RecoveryObserver::new(&dag);
        for cut in obs.sample_cuts(1, 100) {
            let img = obs.recover(&cut);
            let entries = kv.recover(&img).expect("every state decodes");
            for (k, v) in entries {
                assert_eq!(k, 3);
                assert!([30, 31, 32].contains(&v), "phantom value {v}");
            }
        }
    }
}
