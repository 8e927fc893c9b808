//! Integration: multiple recoverable structures composed in one
//! execution.
//!
//! Real systems put several persistent structures in one address space —
//! a WAL, an index, application state under transactions. Persistency
//! models are *global*: one persist-order DAG covers them all, and
//! recovery must find every structure consistent simultaneously. This
//! test runs a queue (the WAL), a KV index, and an undo-log-transacted
//! counter pair in one trace, under two concurrent threads, and checks
//! the conjunction of all three invariants over sampled failure states.

use mem_trace::{SeededScheduler, TracedMem};
use persistency::crash::{check, Exploration};
use persistency::dag::PersistDag;
use persistency::{timing, AnalysisConfig, Model};
use pqueue::traced::{BarrierMode, CwlQueue, QueueLayout, QueueParams};
use pstruct::kv::PersistentKv;
use pstruct::txn::UndoLog;

#[test]
fn composite_system_is_crash_consistent() {
    let mem = TracedMem::new(SeededScheduler::new(2026));

    let qlayout = QueueLayout::allocate(&mem, QueueParams::new(32));
    let queue = CwlQueue::new(qlayout, BarrierMode::Full);
    let kv = PersistentKv::create(&mem, 32);
    let log = UndoLog::create(&mem, 8);
    let acct_a = mem.setup_alloc(8, 8).unwrap();
    let acct_b = mem.setup_alloc(8, 8).unwrap();

    let trace = mem.run(2, move |ctx| {
        let t = ctx.thread_id().as_u64();
        if t == 0 {
            // Thread 0: append WAL entries and index them.
            for i in 0..6u64 {
                ctx.work_begin(i);
                let pos = queue.insert(ctx);
                kv.put(ctx, i + 1, pos);
                ctx.work_end(i);
            }
        } else {
            // Thread 1: seed the accounts, then transacted transfers.
            ctx.store_u64(acct_a, 500);
            ctx.store_u64(acct_b, 500);
            ctx.persist_barrier();
            for _ in 0..4 {
                let va = ctx.load_u64(acct_a);
                let vb = ctx.load_u64(acct_b);
                let mut txn = log.begin(ctx);
                txn.write(ctx, acct_a, va - 50);
                txn.write(ctx, acct_b, vb + 50);
                txn.commit(ctx);
            }
        }
    });
    trace.validate_sc().unwrap();

    // The composed invariant: queue decodes, index decodes and only maps
    // into the queue's persisted region, ledger conserves money.
    let queue_inv = pqueue::recovery::crash_invariant(qlayout);
    let invariant = move |img: &persist_mem::MemoryImage| -> Result<(), String> {
        queue_inv(img)?;
        let entries = kv.recover(img)?;
        let q = pqueue::recovery::recover(img, &qlayout)?;
        for (k, pos) in entries {
            if pos >= q.head_bytes {
                return Err(format!(
                    "index key {k} points at {pos}, beyond the persisted head {}",
                    q.head_bytes
                ));
            }
        }
        let img2 = log.recover_image(img.clone())?;
        let va = img2.read_u64(acct_a).map_err(|e| e.to_string())?;
        let vb = img2.read_u64(acct_b).map_err(|e| e.to_string())?;
        let total = va + vb;
        if !(total == 1000 || total == 500 || total == 0) {
            return Err(format!("ledger not conserved: {va} + {vb}"));
        }
        Ok(())
    };

    for model in [Model::Strict, Model::Epoch, Model::Strand] {
        let dag = PersistDag::build(&trace, &AnalysisConfig::new(model)).unwrap();
        let report = check(
            &dag,
            Exploration::Sampled { seed: 4, extensions: 120 },
            &invariant,
        )
        .unwrap();
        assert!(report.is_consistent(), "{model}: {report}");
        assert!(report.states_checked > 100);
    }
}

/// The composed trace still shows the per-model concurrency ordering.
#[test]
fn composite_system_critical_paths_are_ordered() {
    let mem = TracedMem::new(SeededScheduler::new(9));
    let qlayout = QueueLayout::allocate(&mem, QueueParams::new(64));
    let queue = CwlQueue::new(qlayout, BarrierMode::Full);
    let kv = PersistentKv::create(&mem, 64);
    let trace = mem.run(2, move |ctx| {
        for i in 0..10u64 {
            let pos = queue.insert(ctx);
            // The KV store is single-writer (no internal lock): only
            // thread 0 indexes.
            if ctx.thread_id().0 == 0 {
                kv.put(ctx, i + 1, pos);
            }
        }
    });
    let cp = |m| timing::analyze(&trace, &AnalysisConfig::new(m)).critical_path;
    let strict = cp(Model::Strict);
    let epoch = cp(Model::Epoch);
    let strand = cp(Model::Strand);
    assert!(strict > epoch, "strict {strict} vs epoch {epoch}");
    assert!(epoch > strand, "epoch {epoch} vs strand {strand}");
}
