//! Durable key-value store + transactions: composing the framework's
//! structures (the §9 Mnemosyne/NV-Heaps connection).
//!
//! Builds a persistent hash table and a bank-transfer ledger under undo-log
//! transactions, measures persist concurrency per model, and drives the
//! recovery observer over both.
//!
//! Run with: `cargo run -p bench --release --example durable_kv`

use mem_trace::{FreeRunScheduler, TracedMem};
use persistency::crash::{check, Exploration};
use persistency::dag::PersistDag;
use persistency::observer::RecoveryObserver;
use persistency::{timing, AnalysisConfig, Model};
use pstruct::kv::PersistentKv;
use pstruct::txn::UndoLog;

fn main() {
    // --- Persistent hash table ----------------------------------------
    let mem = TracedMem::new(FreeRunScheduler);
    let kv = PersistentKv::create(&mem, 64);
    let trace = mem.run(1, |ctx| {
        for k in 1..=24u64 {
            ctx.work_begin(k);
            kv.put(ctx, k, k * k);
            ctx.work_end(k);
        }
        kv.remove(ctx, 13);
        kv.put(ctx, 7, 777); // in-place update
    });
    println!("kv store: {} events, {} persists", trace.events().len(), trace.persist_count());
    println!("\npersist critical path per put:");
    for model in [Model::Strict, Model::Epoch, Model::Strand] {
        let r = timing::analyze(&trace, &AnalysisConfig::new(model));
        println!("  {:<7} {:.2}", model.to_string(), r.critical_path_per_work());
    }

    let entries = kv.recover(&trace.final_image()).expect("clean final state");
    println!("\nrecovered {} entries from the final image", entries.len());

    let dag = PersistDag::build(&trace, &AnalysisConfig::new(Model::Epoch)).expect("small trace");
    let report = check(
        &dag,
        Exploration::Sampled { seed: 21, extensions: 250 },
        kv.crash_invariant(),
    )
    .expect("sampling");
    println!("crash check (epoch): {report}");
    assert!(report.is_consistent());

    // --- Durable transactions ------------------------------------------
    println!("\nbank ledger under undo-log transactions:");
    let mem = TracedMem::new(FreeRunScheduler);
    let log = UndoLog::create(&mem, 8);
    let accounts: Vec<_> = (0..4).map(|_| mem.setup_alloc(8, 8).unwrap()).collect();
    let accts = accounts.clone();
    let trace = mem.run(1, move |ctx| {
        for &a in &accts {
            ctx.store_u64(a, 1000);
        }
        ctx.persist_barrier();
        // Ring of transfers; each moves 100 to the next account.
        for i in 0..6u64 {
            let from = accts[(i % 4) as usize];
            let to = accts[((i + 1) % 4) as usize];
            let vf = ctx.load_u64(from);
            let vt = ctx.load_u64(to);
            let mut txn = log.begin(ctx);
            txn.write(ctx, from, vf - 100);
            txn.write(ctx, to, vt + 100);
            txn.commit(ctx);
        }
    });

    let dag = PersistDag::build(&trace, &AnalysisConfig::new(Model::Epoch)).expect("small trace");
    let obs = RecoveryObserver::new(&dag);
    let mut checked = 0usize;
    for cut in obs.sample_cuts(5, 300) {
        let img = obs.recover(&cut);
        let img = log.recover_image(img).expect("log decodes");
        let total: u64 = accounts.iter().map(|&a| img.read_u64(a).unwrap()).sum();
        assert!(
            total == 4000 || total == 0 || (1000..4000).contains(&total) && total.is_multiple_of(1000),
            "money not conserved: {total}"
        );
        checked += 1;
    }
    println!("transactional atomicity held over {checked} sampled failure states");
    println!("\n(the initial 4x1000 deposits are individual persists, so early states");
    println!("hold a multiple of 1000; once transfers begin, every recovered state is");
    println!("a transaction boundary — no state ever shows a half-applied transfer.)");
}
