//! Differential test: pfi's crash-injection rules against the core
//! persist-order DAG.
//!
//! A random one-thread [`ShadowEvent`] stream (aligned u64 stores over a
//! few cache lines, flushes, fences, strands) is crashed two ways at
//! every crash point:
//!
//! - by pfi: every survivor set of the pending fragments that
//!   [`FragmentSet::is_legal`] admits, materialized over the durable ones;
//! - by the core: the same stream as a trace (`Fence` → `PersistBarrier`
//!   and `MemBarrier`, `Strand` → `NewStrand`, `Flush` → nothing), its
//!   [`PersistDag`] at the default 8-byte granularity without coalescing
//!   (coalescing only removes cuts), and every consistent cut that
//!   contains pfi's durable stores, recovered by [`RecoveryObserver`].
//!
//! Soundness (every model): every legal image is a cut image, and every
//! [`FragmentSet::draw`] is legal. Completeness (strict, epoch, bpfs and
//! strand): every cut image is a legal image. Strict-rmo is the one
//! exception to completeness: pfi orders its pending stores per cache
//! line, which is coarser than the core's 8-byte strong persist atomicity.
//! Strand soundness is checked against the DAG with its strands isolated
//! (each its own thread over its own copy of the lines): pfi does not
//! carry strong persist atomicity across strands, a known gap that
//! `strand_rule_ignores_strong_persist_atomicity_across_strands` pins.

use mem_trace::rng::SmallRng;
use mem_trace::TraceBuilder;
use persist_mem::{AtomicPersistSize, MemAddr, MemoryImage, CACHE_LINE_BYTES};
use persistency::dag::PersistDag;
use persistency::observer::RecoveryObserver;
use persistency::{AnalysisConfig, Model};
use pfi::inject::{CrashCase, FragmentSet, Survivor};
use pfi::ShadowEvent;
use std::collections::BTreeSet;

const LINES: u64 = 4;
/// Bytes compared: the lines a stream may store to.
const SPAN: u64 = LINES * CACHE_LINE_BYTES;

/// The persistent bytes every image is compared over.
fn bytes(img: &MemoryImage) -> Vec<u8> {
    let mut buf = vec![0u8; SPAN as usize];
    img.read(MemAddr::persistent(0), &mut buf).expect("compared region in range");
    buf
}

/// A random stream: `stores` aligned u64 stores over 2–4 lines (two
/// 8-byte slots per line, so same-address and same-line stores both
/// occur), interleaved with flushes, fences and strands. Store values are
/// distinct and nonzero.
fn random_stream(rng: &mut SmallRng, stores: usize) -> Vec<ShadowEvent> {
    let lines = 2 + rng.gen_below(LINES - 1);
    let mut events = Vec::new();
    let mut value = 0u64;
    while value < stores as u64 {
        match rng.gen_below(10) {
            0..=4 => {
                value += 1;
                let addr = rng.gen_below(lines) * CACHE_LINE_BYTES + 8 * rng.gen_below(2);
                let data = value.to_le_bytes().to_vec();
                events.push(ShadowEvent::Store { addr: MemAddr::persistent(addr), data });
            }
            5 | 6 => {
                let line = rng.gen_below(lines);
                let addr = MemAddr::persistent(line * CACHE_LINE_BYTES);
                events.push(ShadowEvent::Flush { addr, len: CACHE_LINE_BYTES });
            }
            7 | 8 => events.push(ShadowEvent::Fence),
            _ => events.push(ShadowEvent::Strand),
        }
    }
    events
}

/// The first `point` events of `events` as a trace's DAG: one thread, or
/// with `isolate` one thread per strand, each over its own copy of the
/// lines (strand `k` at offset `k * SPAN`), so no order crosses strands.
fn dag_of(events: &[ShadowEvent], point: usize, model: Model, isolate: bool) -> PersistDag {
    let strands = 1 + events.iter().filter(|e| matches!(e, ShadowEvent::Strand)).count();
    let mut b = TraceBuilder::new(if isolate { strands as u32 } else { 1 });
    let mut k = 0;
    for e in &events[..point] {
        match e {
            ShadowEvent::Store { addr, data } => {
                let value = u64::from_le_bytes(data[..8].try_into().expect("u64 store"));
                b.store(k, addr.add(u64::from(k) * SPAN), value);
            }
            ShadowEvent::Fence => {
                b.persist_barrier(k).mem_barrier(k);
            }
            ShadowEvent::Strand if isolate => k += 1,
            ShadowEvent::Strand => {
                b.new_strand(0);
            }
            ShadowEvent::Flush { .. } | ShadowEvent::OpBegin(_) | ShadowEvent::OpEnd(_) => {}
        }
    }
    PersistDag::build(&b.build(), &AnalysisConfig::new(model).without_coalescing())
        .expect("trace builds")
}

/// The images of every consistent cut (of `dag_of`'s DAG) that contains
/// every store in `durable`. An isolated DAG's image folds the strand
/// copies slot by slot, keeping the largest value: values grow in store
/// order, so that is the last store to the slot.
fn cut_images(
    events: &[ShadowEvent],
    point: usize,
    model: Model,
    durable: &BTreeSet<u64>,
    isolate: bool,
) -> BTreeSet<Vec<u8>> {
    let dag = dag_of(events, point, model, isolate);
    let copies = 1 + events.iter().filter(|e| matches!(e, ShadowEvent::Strand)).count() as u64;
    let observer = RecoveryObserver::new(&dag);
    let cuts = observer.enumerate_cuts(1 << 14).expect("small DAG");
    cuts.iter()
        .filter(|cut| {
            let kept: BTreeSet<u64> = cut
                .nodes()
                .iter()
                .flat_map(|&id| dag.nodes()[id as usize].writes.iter().map(|w| w.value))
                .collect();
            durable.is_subset(&kept)
        })
        .map(|cut| {
            let img = observer.recover(cut);
            let mut out = vec![0u8; SPAN as usize];
            for slot in (0..SPAN).step_by(8) {
                let last = (0..copies)
                    .map(|k| {
                        img.read_u64(MemAddr::persistent(k * SPAN + slot)).expect("slot in range")
                    })
                    .max()
                    .expect("one copy at least");
                out[slot as usize..slot as usize + 8].copy_from_slice(&last.to_le_bytes());
            }
            out
        })
        .collect()
}

/// Every disagreement between pfi and the DAG on `events` under `model`,
/// one line each; empty when they agree. Soundness is checked against the
/// strand-isolated DAG when `isolate` is set, completeness only when
/// `complete` is.
fn disagreements(
    events: &[ShadowEvent],
    model: Model,
    isolate: bool,
    complete: bool,
) -> Vec<String> {
    let fs = FragmentSet::from_events(events, AtomicPersistSize::default());
    let base = MemoryImage::new();
    let mut out = Vec::new();
    let mut rng = SmallRng::seed_from_u64(events.len() as u64);
    for point in 0..=events.len() {
        let pending = fs.pending(model, point);
        // The stores pfi holds durable, by value (one fragment per store).
        let durable: BTreeSet<u64> = fs
            .fragments()
            .iter()
            .enumerate()
            .filter(|&(i, f)| f.event < point && !pending.contains(&i))
            .map(|(_, f)| u64::from_le_bytes(f.data[..8].try_into().expect("u64 fragment")))
            .collect();
        let exact = cut_images(events, point, model, &durable, false);
        let reference =
            if isolate { cut_images(events, point, model, &durable, true) } else { exact.clone() };

        let mut legal_images = BTreeSet::new();
        for mask in 0u32..1 << pending.len() {
            let survivors = pending
                .iter()
                .enumerate()
                .filter(|&(bit, _)| mask & (1 << bit) != 0)
                .map(|(_, &frag)| Survivor { frag, unit_mask: 1 })
                .collect();
            let case = CrashCase { point, survivors };
            if fs.is_legal(model, &case) {
                let img = bytes(&fs.materialize(&base, model, &case));
                if !reference.contains(&img) {
                    out.push(format!("point {point}: legal {:?} recovers no cut", case.survivors));
                }
                legal_images.insert(img);
            }
        }
        if complete && !exact.is_subset(&legal_images) {
            out.push(format!("point {point}: a cut image no legal case produces"));
        }
        for torn in [false, true] {
            let case = fs.draw(model, point, &mut rng, torn);
            if !fs.is_legal(model, &case) {
                out.push(format!("point {point}: draw {:?} is illegal", case.survivors));
            }
        }
    }
    out
}

/// `events` in one line: `S<offset>=<value>`, `F<offset>`, `|` for a
/// fence, `/` for a strand.
fn show(events: &[ShadowEvent]) -> String {
    let word = |e: &ShadowEvent| match e {
        ShadowEvent::Store { addr, data } => format!("S{}={}", addr.offset(), data[0]),
        ShadowEvent::Flush { addr, .. } => format!("F{}", addr.offset()),
        ShadowEvent::Fence => "|".into(),
        ShadowEvent::Strand => "/".into(),
        ShadowEvent::OpBegin(_) | ShadowEvent::OpEnd(_) => String::new(),
    };
    events.iter().map(word).collect::<Vec<_>>().join(" ")
}

fn check(events: &[ShadowEvent]) {
    for model in Model::ALL {
        let bad = disagreements(events, model, model == Model::Strand, model != Model::StrictRmo);
        assert!(bad.is_empty(), "{model} on {}:\n{}", show(events), bad.join("\n"));
    }
}

#[test]
fn random_streams_agree_with_the_dag() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    for _ in 0..150 {
        let stores = 2 + rng.gen_below(7) as usize;
        check(&random_stream(&mut rng, stores));
    }
}

fn store(line: u64, value: u64) -> ShadowEvent {
    let addr = MemAddr::persistent(line * CACHE_LINE_BYTES);
    ShadowEvent::Store { addr, data: value.to_le_bytes().to_vec() }
}

fn flush(line: u64) -> ShadowEvent {
    ShadowEvent::Flush { addr: MemAddr::persistent(line * CACHE_LINE_BYTES), len: 8 }
}

/// `store A; fence; store B` on two lines: the fence orders B after A
/// under bpfs as under epoch, so no crash keeps B and drops A.
#[test]
fn bpfs_fence_orders_stores_on_other_lines() {
    let events = [store(0, 1), ShadowEvent::Fence, store(1, 2)];
    let fs = FragmentSet::from_events(&events, AtomicPersistSize::default());
    let b_only = CrashCase { point: 3, survivors: vec![Survivor { frag: 1, unit_mask: 1 }] };
    assert!(!fs.is_legal(Model::Bpfs, &b_only));
    check(&events);
}

/// A never-flushed A is durable once a later-epoch B is: the fence
/// ordered A's persist before B's.
#[test]
fn durability_closes_downward_over_epochs() {
    let events = [store(0, 1), ShadowEvent::Fence, store(1, 2), flush(1), ShadowEvent::Fence];
    let fs = FragmentSet::from_events(&events, AtomicPersistSize::default());
    for model in Model::ALL {
        assert_eq!(fs.pending(model, events.len()), Vec::<usize>::new(), "{model}");
    }
    check(&events);
}

/// The one place pfi orders less than the DAG: strong persist atomicity
/// across strands. Strand 1 overwrites B, which
/// strand 0 fenced after A, so the DAG orders A before the overwrite; pfi
/// treats strands as unordered and may keep the overwrite while dropping
/// A. The random streams check strand soundness against the
/// strand-isolated DAG for this reason.
#[test]
fn strand_rule_ignores_strong_persist_atomicity_across_strands() {
    let events = [store(0, 1), ShadowEvent::Fence, store(1, 2), ShadowEvent::Strand, store(1, 3)];
    let fs = FragmentSet::from_events(&events, AtomicPersistSize::default());
    let survivors = vec![Survivor { frag: 2, unit_mask: 1 }];
    let overwrite_only = CrashCase { point: 5, survivors };
    assert!(fs.is_legal(Model::Strand, &overwrite_only));
    assert!(!disagreements(&events, Model::Strand, false, true).is_empty());
    assert!(disagreements(&events, Model::Strand, true, true).is_empty());
}
