//! Traced-run harness of the repository benchmark.
//!
//! Runs one layer group of a workload in process and times every call
//! into a layer's public functions from outside, so the program needs no
//! instrumentation of its own:
//!
//! ```text
//! bench-layers pipeline --queue cwl --threads 2 --inserts 2000 --barriers 8 --seed 1 --dir DIR
//! bench-layers serve --keys 100000 --ops 50000 --rates 5e6,15e6 --knee-ops 5000 --seed 1
//! bench-layers fuzz --injections 50000 --elided-injections 2000 --seed 1
//! bench-layers exec REPORT PROGRAM [ARGS...]
//! ```
//!
//! Output is line-oriented for `run.py`: `span NAME SECONDS` per layer
//! time on psim's own path (host seconds inside the calls the `psim`
//! subcommand makes; spans never overlap, so they sum to at most the
//! wall time), `ref NAME SECONDS` per layer time of reference-only work
//! (calls psim does not make, run for the checks and the finer split),
//! `metric NAME VALUE` per other layer metric (exact outputs of the
//! models, plus a few host-time ratios), `check NAME ok` or
//! `check NAME FAIL reason` per correctness check and, last,
//! `wall SECONDS`: the group's traced time with the reference-only work
//! taken out, so only `span` lines add up to it. `--cross-check` adds
//! the checks that need a second full run (serve at one worker against
//! `nproc` workers).

use bench::sweep::SweepRunner;
use mem_trace::mmapio::MappedTrace;
use mem_trace::profile::TraceProfile;
use mem_trace::rng::SmallRng;
use mem_trace::{io as trace_io, EventSource, SeededScheduler, ThreadCtx, TracedMem, SLAB_EVENTS};
use persist_mem::AtomicPersistSize;
use persistency::dag::PersistDag;
use persistency::profile::{barrier_candidates, profile_dag, score_barrier};
use persistency::{partition, timing, AnalysisConfig, Model};
use pfi::fuzz::shard_ranges;
use pfi::{
    CellPlan, CrashCase, FragmentSet, FuzzCell, FuzzConfig, Replayer, ShadowPmem, Structure,
};
use pqueue::traced::{BarrierMode, CwlQueue, QueueLayout, QueueParams, TwoLockQueue};
use serve::harness::render_json;
use serve::{
    find_knees, run_model, KneeConfig, Mode, ModelReport, OpStream, ServeConfig, StoreKind, Zipfian,
};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::time::Instant;

/// Metrics and check outcomes of one group run.
#[derive(Default)]
struct Out {
    spans: BTreeMap<String, f64>,
    refs: BTreeMap<String, f64>,
    metrics: BTreeMap<String, f64>,
    checks: Vec<(String, Result<(), String>)>,
    /// Wall seconds of reference-only work, kept out of the group's wall.
    aside_s: f64,
}

impl Out {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Adds host time spent in one layer's calls on psim's path; spans
    /// never overlap.
    fn span(&mut self, name: impl Into<String>, secs: f64) {
        *self.spans.entry(name.into()).or_insert(0.0) += secs;
    }

    /// Adds host time spent in one layer's reference-only calls.
    fn reference(&mut self, name: impl Into<String>, secs: f64) {
        *self.refs.entry(name.into()).or_insert(0.0) += secs;
    }

    /// Runs work psim itself does not do (reference passes, checks,
    /// counts) and keeps its wall time out of the group's wall.
    fn aside<T>(&mut self, f: impl FnOnce(&mut Out) -> T) -> T {
        let t0 = Instant::now();
        let r = f(self);
        self.aside_s += t0.elapsed().as_secs_f64();
        r
    }

    fn check(&mut self, name: &str, ok: bool, why: impl FnOnce() -> String) {
        self.checks
            .push((name.to_owned(), if ok { Ok(()) } else { Err(why()) }));
    }
}

/// Runs `f`, adding its host time in seconds to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = f();
    *acc += t0.elapsed().as_secs_f64();
    r
}

struct Args(Vec<String>);

impl Args {
    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn num(&self, flag: &str) -> Result<u64, String> {
        let v = self.get(flag).ok_or_else(|| format!("missing {flag}"))?;
        v.parse().map_err(|_| format!("bad {flag} {v}"))
    }

    fn floats(&self, flag: &str) -> Result<Vec<f64>, String> {
        let v = self.get(flag).ok_or_else(|| format!("missing {flag}"))?;
        v.split(',')
            .map(|s| s.parse().map_err(|_| format!("bad {flag} {v}")))
            .collect()
    }
}

/// capture → encode → decode → analyze → profile, the layers under
/// `psim capture`, `psim analyze` and `psim profile`.
fn pipeline(args: &Args, out: &mut Out) -> Result<(), String> {
    let queue = args.get("--queue").ok_or("missing --queue")?;
    let threads = args.num("--threads")? as u32;
    let inserts = args.num("--inserts")?;
    let max_barriers = args.num("--barriers")? as usize;
    let seed = args.num("--seed")?;
    let dir = args.get("--dir").ok_or("missing --dir")?;
    let total_inserts = threads as u64 * inserts;
    let workers = SweepRunner::from_env().workers();

    // Capture: the workload `psim capture` runs, through the timed entry
    // point so the merge splits out.
    let mem = TracedMem::new(SeededScheduler::new(seed));
    let params = QueueParams::new(total_inserts.next_power_of_two().max(64));
    let layout = QueueLayout::allocate(&mem, params);
    let body = |ctx: &ThreadCtx<'_, SeededScheduler>, insert: &dyn Fn()| {
        let t = ctx.thread_id().as_u64();
        for i in 0..inserts {
            ctx.work_begin(t * inserts + i);
            insert();
            ctx.work_end(t * inserts + i);
        }
    };
    let mut run_s = 0.0;
    let (trace, stats) = match queue {
        "cwl" => {
            let q = CwlQueue::new(layout, BarrierMode::Full);
            timed(&mut run_s, || {
                mem.run_timed(threads, |ctx| {
                    body(ctx, &|| {
                        q.insert(ctx);
                    })
                })
            })
        }
        "2lc" => {
            let q = TwoLockQueue::new(layout);
            timed(&mut run_s, || {
                mem.run_timed(threads, |ctx| {
                    body(ctx, &|| {
                        q.insert(ctx);
                    })
                })
            })
        }
        other => return Err(format!("unknown --queue {other}")),
    };
    out.span("capture.run_s", run_s - stats.merge_seconds);
    out.span("capture.merge_s", stats.merge_seconds);
    let mut validate_s = 0.0;
    let sc = timed(&mut validate_s, || trace.validate_sc());
    out.span("capture.validate_s", validate_s);
    let events = trace.events();
    let n = events.len() as f64;
    out.aside(|out| {
        out.check("capture.sc_valid", sc.is_ok(), || format!("{sc:?}"));
        out.set("capture.events", n);
        out.set("capture.events_per_insert", n / total_inserts as f64);
        let switches = events
            .windows(2)
            .filter(|w| w[0].thread != w[1].thread)
            .count();
        out.set("capture.thread_switches", switches as f64);
    });

    // Encode exactly as `psim capture` writes its output file.
    let path = format!("{dir}/layers.trace");
    let mut encode_s = 0.0;
    timed(&mut encode_s, || {
        let f = File::create(&path).map_err(|e| format!("create {path}: {e}"))?;
        let mut w = BufWriter::new(f);
        trace_io::write_trace2(&trace, &mut w)
            .and_then(|()| w.flush())
            .map_err(|e| format!("write {path}: {e}"))
    })?;
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;
    out.span("encode.s", encode_s);
    out.set("encode.bytes_per_event", bytes / n);

    // Decode (reference only; `psim analyze` decodes inside its chunked
    // pass): one slab pass over the mapped file, compared slab by slab
    // (outside the timed calls) with the captured events.
    let map = MappedTrace::open(&path).map_err(|e| format!("map {path}: {e}"))?;
    out.aside(|out| -> Result<(), String> {
        let mut decode_s = 0.0;
        let mut src = map.source();
        let mut slab = Vec::with_capacity(SLAB_EVENTS);
        let mut at = 0usize;
        let mut same = true;
        loop {
            slab.clear();
            let got = timed(&mut decode_s, || src.fill_slab(&mut slab, SLAB_EVENTS))
                .map_err(|e| format!("decode {path}: {e}"))?;
            if got == 0 {
                break;
            }
            same &= events.get(at..at + got) == Some(&slab[..]);
            at += got;
        }
        out.reference("decode.s", decode_s);
        out.set("decode.mb_per_s", bytes / decode_s / 1e6);
        out.check("io.round_trip", same && at == events.len(), || {
            format!(
                "decoded {at} events, captured {}, identical prefix {same}",
                events.len()
            )
        });
        Ok(())
    })?;

    // Analysis: the chunked pass `psim analyze` runs, then, as the
    // reference, each engine and the profile pass alone, sequentially.
    let configs: Vec<AnalysisConfig> = Model::ALL.iter().map(|&m| AnalysisConfig::new(m)).collect();
    let mut chunked_s = 0.0;
    let (chunked_profile, chunked) = timed(&mut chunked_s, || {
        partition::analyze_full(&map, &configs, workers)
    })
    .map_err(|e| format!("analyze {path}: {e}"))?;
    out.span("analyze.chunked_s", chunked_s);
    let epoch_cp = out.aside(|out| -> Result<u64, String> {
        let mut sequential_s = 0.0;
        let mut epoch_cp = 0;
        for (cfg, c) in configs.iter().zip(&chunked) {
            let mut engine_s = 0.0;
            let r = timed(&mut engine_s, || timing::analyze_source(map.source(), cfg))
                .map_err(|e| format!("analyze {path}: {e}"))?;
            sequential_s += engine_s;
            out.reference(format!("analyze.engine_s.{}", cfg.model), engine_s);
            out.set(
                format!("analyze.critical_path.{}", cfg.model),
                r.critical_path as f64,
            );
            out.check(
                &format!("analyze.chunked_eq_sequential.{}", cfg.model),
                r == *c,
                || {
                    format!(
                        "chunked cp {} vs sequential cp {}",
                        c.critical_path, r.critical_path
                    )
                },
            );
            if cfg.model == Model::Epoch {
                epoch_cp = r.critical_path;
            }
        }
        let mut pass_s = 0.0;
        let profile = timed(&mut pass_s, || TraceProfile::of_source(map.source()))
            .map_err(|e| format!("profile pass {path}: {e}"))?;
        sequential_s += pass_s;
        out.reference("analyze.profile_pass_s", pass_s);
        out.set("analyze.sequential_s", sequential_s);
        out.set("analyze.chunked_vs_sequential", chunked_s / sequential_s);
        out.check(
            "analyze.profile_eq_sequential",
            profile == chunked_profile,
            || "chunked trace profile differs from the sequential pass".into(),
        );
        Ok(epoch_cp)
    })?;

    // Profile (epoch), as `bench::profile::run_profile` composes it, with
    // the DAG build timed on its own.
    let mut load_s = 0.0;
    let loaded = timed(&mut load_s, || map.collect()).map_err(|e| format!("load {path}: {e}"))?;
    out.span("profile.load_s", load_s);
    let cfg = AnalysisConfig::new(Model::Epoch);
    let mut dag_s = 0.0;
    let dag = timed(&mut dag_s, || PersistDag::build(&loaded, &cfg)).map_err(|e| e.to_string())?;
    out.span("profile.dag_s", dag_s);
    let mut prof_s = 0.0;
    let report = timed(&mut prof_s, || {
        let mut report = profile_dag(&loaded, &dag, 0);
        let candidates: Vec<usize> = barrier_candidates(&loaded)
            .into_iter()
            .take(max_barriers)
            .collect();
        let baseline = report.timing_critical_path;
        report.barriers = SweepRunner::new(workers).run(&candidates, |_, &i| {
            score_barrier(&loaded, &cfg, baseline, i)
        });
        report
    });
    out.span("profile.run_s", prof_s);
    out.aside(|out| {
        out.set("profile.barriers_scored", report.barriers.len() as f64);
        out.set("profile.replayed_events", n * report.barriers.len() as f64);
        out.check(
            "profile.timing_cp_eq_analyze",
            report.timing_critical_path == epoch_cp,
            || {
                format!(
                    "profile timing cp {} vs analyze {epoch_cp}",
                    report.timing_critical_path
                )
            },
        );
    });
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    Ok(())
}

/// The exact outputs recorded per model and rate (virtual clock, so they
/// repeat bit for bit for a seed).
fn serve_counts(out: &mut Out, r: &ModelReport, rate: &str) {
    let m = r.model;
    out.set(format!("serve.completed.{m}.{rate}"), r.completed as f64);
    out.set(format!("serve.shed_frac.{m}.{rate}"), r.shed_frac());
    out.set(format!("serve.p99_ns.{m}.{rate}"), r.latency.quantile(0.99));
    out.set(
        format!("serve.stall_p99_ns.{m}.{rate}"),
        r.stall.quantile(0.99),
    );
    out.set(
        format!("serve.device_writes.{m}.{rate}"),
        r.device.device_writes as f64,
    );
    out.set(
        format!("serve.absorbed.{m}.{rate}"),
        r.device.absorbed() as f64,
    );
    out.set(format!("serve.mean_fill.{m}.{rate}"), r.mean_batch_fill());
}

/// Rate label of a metric name: `5M` for 5e6 ops/s.
fn rate_label(rate: f64) -> String {
    format!("{}M", rate / 1e6)
}

/// gen → shard protocol + device (`run_model`) → knee sweep, the layers
/// under `psim serve --smoke` and `psim serve --knee`.
fn serve_group(args: &Args, out: &mut Out, cross_check: bool) -> Result<(), String> {
    let workers = SweepRunner::from_env().workers();
    let mut cfg = ServeConfig::new(StoreKind::Kv);
    cfg.keys = args.num("--keys")?;
    cfg.ops = args.num("--ops")?;
    cfg.batch = 32;
    cfg.seed = args.num("--seed")?;
    let zipf = Zipfian::new(cfg.keys, cfg.theta);
    let mut gen_s = 0.0;
    for rate in args.floats("--rates")? {
        cfg.rate_ops_per_sec = rate;
        let label = rate_label(rate);
        let mut reports = Vec::new();
        // The generator alone, once per rate (reference only): every
        // shard draws the whole stream and keeps its own keys, so it is
        // `shards` drains of one stream, as in each model's run.
        out.aside(|_| {
            let drawn = timed(&mut gen_s, || {
                (0..cfg.shards)
                    .map(|_| {
                        OpStream::new(&zipf, cfg.seed, rate, cfg.get_ratio, cfg.ops)
                            .map(|op| op.key & 1)
                            .sum::<u64>()
                    })
                    .sum::<u64>()
            });
            std::hint::black_box(drawn);
        });
        for model in Model::ALL {
            let mut model_s = 0.0;
            let r = timed(&mut model_s, || {
                run_model(&cfg, model, Mode::Virtual, workers)
            })?;
            out.span(format!("serve.model_s.{model}"), model_s);
            out.aside(|out| {
                out.check(
                    &format!("serve.balance.{model}.{label}"),
                    r.completed + r.shed == r.offered,
                    || {
                        format!(
                            "completed {} + shed {} != offered {}",
                            r.completed, r.shed, r.offered
                        )
                    },
                );
                serve_counts(out, &r, &label);
            });
            reports.push(r);
        }
        if cross_check {
            out.aside(|out| -> Result<(), String> {
                let one: Result<Vec<ModelReport>, String> = Model::ALL
                    .iter()
                    .map(|&m| run_model(&cfg, m, Mode::Virtual, 1))
                    .collect();
                let one = render_json(&cfg, Mode::Virtual, &one?, "{}");
                let many = render_json(&cfg, Mode::Virtual, &reports, "{}");
                out.check(
                    &format!("serve.workers_identical.{label}"),
                    one == many,
                    || format!("1-worker and {workers}-worker reports differ at {label} ops/s"),
                );
                Ok(())
            })?;
        }
    }
    out.reference("serve.gen_s", gen_s);

    let knee = KneeConfig {
        shed_frac: 0.01,
        p99_limit_ns: 0.0,
        rate_floor: 50_000.0,
        probes: 6,
        workers,
    };
    cfg.ops = args.num("--knee-ops")?;
    let mut knee_s = 0.0;
    let knees = timed(&mut knee_s, || find_knees(&cfg, &Model::ALL, &knee))?;
    out.span("serve.knee_s", knee_s);
    for k in &knees {
        out.set(format!("serve.knee_ops_per_s.{}", k.model), k.knee_rate);
    }
    Ok(())
}

/// The per-call fuzz split replays one injection in this many, which
/// keeps a traced iteration short.
const SPLIT_EVERY: u64 = 4;

/// Injections of one cell through the public pieces of the injector,
/// timed call by call: draw, replay (`Replayer::load`/`reset`),
/// recover (`recovery_script` + applying it), check, and shrink of the
/// first failure. This is a replica of `run_shard`'s loop, not
/// `run_shard` itself: first crash leg only (no multi-crash scratch
/// path), over `1/SPLIT_EVERY` of the cell's injection count, choosing
/// crash points the way `run_shard` does (alternately swept and random)
/// but from the split's own seed. Returns whether any injection failed.
fn split_cell(out: &mut Out, cell: FuzzCell, cfg: &FuzzConfig) -> bool {
    let target = cell.structure.target();
    let mut shadow = ShadowPmem::new();
    target.run(&mut shadow, cfg.ops);
    let rec = shadow.into_recording();
    let frags = FragmentSet::build(&rec, AtomicPersistSize::default());
    let model = cell.model;
    let mut t = [0.0f64; 4];
    let mut replayer = timed(&mut t[1], || Replayer::new(&frags, &rec, model));
    let points = rec.events.len() as u64 + 1;
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ points);
    let mut failing: Option<CrashCase> = None;
    let mut eval = |case: &CrashCase, t: &mut [f64; 4]| -> Result<(), String> {
        timed(&mut t[1], || replayer.load(case));
        let script = timed(&mut t[2], || target.recovery_script(replayer.image()));
        let res = match script {
            Ok(script) => timed(&mut t[3], || {
                let (completed, begun) = replayer.ops_at(case.point);
                replayer.apply_recovery(&script);
                target.check(replayer.image(), completed, begun)
            }),
            Err(e) => Err(e),
        };
        timed(&mut t[1], || replayer.reset());
        res
    };
    for i in 0..cfg.injections / SPLIT_EVERY {
        let point = if i % 2 == 0 {
            ((i / 2) % points) as usize
        } else {
            rng.gen_below(points) as usize
        };
        let case = timed(&mut t[0], || frags.draw(model, point, &mut rng, cfg.torn));
        if eval(&case, &mut t).is_err() && failing.is_none() {
            failing = Some(case);
        }
    }
    let mut shrink_s = 0.0;
    if let Some(case) = &failing {
        let mut inner = [0.0f64; 4];
        timed(&mut shrink_s, || {
            frags.shrink(model, case, |c| eval(c, &mut inner).is_err())
        });
    }
    for (name, v) in ["draw", "replay", "recover", "check"].iter().zip(t) {
        out.reference(format!("fuzz.{name}_s"), v);
    }
    out.reference("fuzz.shrink_s", shrink_s);
    failing.is_some()
}

/// record → inject (`run_shard`) over the stock matrix and the elided
/// cells, plus the per-call split, the layers under `psim crash-fuzz`.
fn fuzz_group(args: &Args, out: &mut Out) -> Result<(), String> {
    let runner = SweepRunner::from_env();
    let seed = args.num("--seed")?;
    let stock = FuzzConfig {
        ops: 24,
        injections: args.num("--injections")?,
        seed,
        multi_crash: true,
        torn: false,
    };
    let elided = FuzzConfig {
        injections: args.num("--elided-injections")?,
        ..stock
    };
    let mut stock_injections = 0u64;
    let mut recovery_crashes = 0u64;
    let mut elided_failures = 0u64;
    for structure in Structure::ALL {
        let cfg = if structure == Structure::CwlElided {
            &elided
        } else {
            &stock
        };
        for model in Model::ALL {
            let cell = FuzzCell { structure, model };
            let mut record_s = 0.0;
            let plan = timed(&mut record_s, || CellPlan::new(cfg, cell));
            out.span("fuzz.record_s", record_s);
            let ranges = shard_ranges(plan.injections(), runner.workers() as u64);
            let mut run_s = 0.0;
            let shards = timed(&mut run_s, || {
                runner.run(&ranges, |_, &(lo, hi)| plan.run_shard(lo, hi))
            });
            out.span(format!("fuzz.run_s.{}", structure.name()), run_s);
            let report = plan.merge(&shards);
            let split_failed = out.aside(|out| split_cell(out, cell, cfg));
            let name = format!("{}/{}", structure.name(), model);
            if structure == Structure::CwlElided {
                // Strict persists in program order, so the elided barrier
                // is harmless there; every relaxed model must catch it.
                let must_fail = model != Model::Strict;
                let shrunk = report
                    .first_failure
                    .as_ref()
                    .is_some_and(|f| !f.dropped_lines.is_empty());
                elided_failures += u64::from(!report.passed());
                out.check(
                    &format!("fuzz.elided.{name}"),
                    report.passed() != must_fail && (!must_fail || shrunk),
                    || {
                        format!(
                            "{} failures, first failure {:?}",
                            report.failures, report.first_failure
                        )
                    },
                );
            } else {
                recovery_crashes += report.recovery_crashes;
                stock_injections += report.injections;
                out.check(
                    &format!("fuzz.stock.{name}"),
                    report.passed() && !split_failed,
                    || {
                        format!(
                            "{} failures, first failure {:?}",
                            report.failures, report.first_failure
                        )
                    },
                );
            }
        }
    }
    out.set(
        "fuzz.recovery_crash_frac",
        recovery_crashes as f64 / stock_injections as f64,
    );
    out.set("fuzz.elided_failures", elided_failures as f64);
    Ok(())
}

/// `struct rusage` of 64-bit Linux; only `ru_maxrss` is read.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// `exec REPORT PROGRAM ARGS...`: runs one program with inherited stdio
/// and writes `wall SECONDS` and `rss_kb KB`, its peak resident set, to
/// REPORT. A forked child's peak RSS starts from its parent's size, so
/// the caller launches through this small process to read the
/// program's own peak instead of the caller's.
fn exec(args: &[String]) -> ExitCode {
    let [report, program, rest @ ..] = args else {
        eprintln!("usage: bench-layers exec REPORT PROGRAM [ARGS...]");
        return ExitCode::FAILURE;
    };
    let t0 = Instant::now();
    let status = match std::process::Command::new(program).args(rest).status() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench-layers: run {program}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall = t0.elapsed().as_secs_f64();
    let mut usage = Rusage {
        times: [0; 4],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for this
    // target, and getrusage writes nothing else.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        eprintln!("bench-layers: getrusage failed");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(report, format!("wall {wall}\nrss_kb {}\n", usage.maxrss_kb)) {
        eprintln!("bench-layers: write {report}: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::from(status.code().map_or(255, |c| c as u8))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("exec") {
        return exec(&argv[1..]);
    }
    let args = Args(argv);
    let mut out = Out::default();
    let t0 = Instant::now();
    let result = match args.0.first().map(String::as_str) {
        Some("pipeline") => pipeline(&args, &mut out),
        Some("serve") => serve_group(&args, &mut out, args.0.iter().any(|a| a == "--cross-check")),
        Some("fuzz") => fuzz_group(&args, &mut out),
        _ => Err("usage: bench-layers <pipeline|serve|fuzz> [flags]".into()),
    };
    let wall = t0.elapsed().as_secs_f64() - out.aside_s;
    if let Err(e) = result {
        eprintln!("bench-layers: {e}");
        return ExitCode::FAILURE;
    }
    for (name, v) in &out.spans {
        println!("span {name} {v}");
    }
    for (name, v) in &out.refs {
        println!("ref {name} {v}");
    }
    for (name, v) in &out.metrics {
        println!("metric {name} {v}");
    }
    for (name, r) in &out.checks {
        match r {
            Ok(()) => println!("check {name} ok"),
            Err(why) => println!("check {name} FAIL {}", why.replace('\n', " ")),
        }
    }
    println!("wall {wall}");
    ExitCode::SUCCESS
}
