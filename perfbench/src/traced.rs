//! The traced pass of `figures` and `sampled`: one executor thread,
//! phase publication on, a span around every call into a layer, and
//! every cell rebuilt mix by mix from the layers' public calls and
//! checked bit for bit against `Ctx`'s cell.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tlpsim_core::ctx::{par_map, Cell, Ctx};
use tlpsim_core::metrics;
use tlpsim_core::{SimError, SimScale};
use tlpsim_power::{CoreKind, PowerModel};
use tlpsim_sched::{assign_threads, Placement, ThreadTraits};
use tlpsim_uarch::{
    phase, CpiStacks, MultiCore, RunResult, SampleStats, ThreadProgram, TraceSink,
    DEFAULT_WATCHDOG_CYCLES,
};
use tlpsim_workloads::{mix, spec, InstrStream};

use crate::refs::Refs;
use crate::sim::{
    check, compute, design, open_ctx, profile_all, quick_scale, ExecStats, Item, Kind, Output,
    BUS_GBPS, CELLS,
};
use crate::spans::{self, Recorder};
use crate::stats::median;
use crate::{Metrics, Outcome};

/// Whether the phase sampler should count what it sees (only while a
/// rebuilt mix is inside `MultiCore::run`/`run_sampled`).
static IN_RUN: AtomicBool = AtomicBool::new(false);

/// Samples `phase::current()` every 20 µs while [`IN_RUN`] is set.
struct PhaseSampler {
    hist: Arc<[AtomicU64; phase::N_PHASES + 1]>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl PhaseSampler {
    fn start() -> Self {
        let hist: Arc<[AtomicU64; phase::N_PHASES + 1]> =
            Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
        let stop = Arc::new(AtomicBool::new(false));
        let (h, s) = (Arc::clone(&hist), Arc::clone(&stop));
        let handle = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                if IN_RUN.load(Ordering::Relaxed) {
                    let p = usize::from(phase::current()).min(phase::N_PHASES);
                    h[p].fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_micros(20));
            }
        });
        PhaseSampler {
            hist,
            stop,
            handle: Some(handle),
        }
    }

    /// Stop sampling; shares of commit, issue-scan, wheel, fetch,
    /// memory and other.
    fn finish(mut self) -> [f64; phase::N_PHASES + 1] {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().expect("phase sampler thread panicked");
        }
        let counts: Vec<u64> = self
            .hist
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total = counts.iter().sum::<u64>().max(1) as f64;
        std::array::from_fn(|i| counts[i] as f64 / total)
    }
}

/// Counts gathered while rebuilding cells.
#[derive(Debug, Default)]
struct Totals {
    lines: u64,
    instrs: u64,
    cycles: u64,
    skipped: u64,
    skip_windows: u64,
    l1d_hits: u64,
    l1d_misses: u64,
    llc_hits: u64,
    llc_misses: u64,
    dram: u64,
    bus_queue: Vec<f64>,
    sample: SampleStats,
    /// (space id, profile index, stream seed, committed) of every
    /// exact-run thread, for the generator replay.
    streams: Vec<(u64, usize, u64, u64)>,
}

impl Totals {
    fn add_run<S: TraceSink>(&mut self, sim: &MultiCore<S>, run: &RunResult) {
        self.cycles += run.cycles;
        self.instrs += run.threads.iter().map(|t| t.committed).sum::<u64>();
        self.skipped += sim.skipped_cycles();
        self.skip_windows += sim.skip_windows();
        for c in &run.mem.per_core {
            self.l1d_hits += c.l1d_hits;
            self.l1d_misses += c.l1d_misses;
        }
        self.llc_hits += run.mem.llc_hits;
        self.llc_misses += run.mem.llc_misses;
        self.dram += run.mem.dram_accesses;
        self.bus_queue.push(run.mem.bus_avg_queue_cycles);
    }
}

/// Spans that exist only to measure (not calls `Ctx` makes itself);
/// they are left out of `Ctx`'s self time.
const MEASURE_ONLY: [&str; 1] = ["ThreadProgram::prewarm_addrs"];

/// Add, pin and prewarm one mix's threads exactly as `Ctx` does
/// (`ctx.rs` `populate_mix`), one span per call.
#[allow(clippy::too_many_arguments)]
fn populate<S: TraceSink>(
    rec: &Recorder,
    mix_span: usize,
    id: &str,
    sim: &mut MultiCore<S>,
    scale: SimScale,
    mixv: &[usize],
    placements: &[Placement],
    wl_seed: u64,
    tot: &mut Totals,
) {
    let profiles = spec::all();
    let p = Some(mix_span);
    for (i, &b) in mixv.iter().enumerate() {
        let stream_seed = scale.seed ^ (wl_seed << 20) ^ 0x9E37;
        let stream = rec.span("InstrStream::new", p, id, || {
            InstrStream::new(&profiles[b], i as u64, stream_seed)
        });
        let prog = rec.span("ThreadProgram::multiprogram_with_warmup", p, id, || {
            ThreadProgram::multiprogram_with_warmup(stream, scale.warmup, scale.budget)
        });
        tot.lines += rec.span("ThreadProgram::prewarm_addrs", p, id, || {
            black_box(prog.prewarm_addrs()).len() as u64
        });
        tot.streams.push((i as u64, b, stream_seed, 0));
        rec.span("MultiCore::add_thread/pin", p, id, || {
            let t = sim.add_thread(prog);
            sim.pin(t, placements[i].core, placements[i].slot);
        });
    }
    rec.span("MultiCore::prewarm", p, id, || sim.prewarm());
}

/// Rebuild cell `ci` mix by mix from public calls and return it.
fn rebuild_cell(
    rec: &Recorder,
    ctx: &Ctx,
    kind: Kind,
    ci: usize,
    tot: &mut Totals,
) -> Result<Cell, SimError> {
    let (dname, n) = CELLS[ci];
    let d = design(dname);
    let scale = ctx.scale;
    let root = rec.begin("rebuild", None, &Item::Cell(ci).label());
    let mixes = mix::heterogeneous_mixes(12, n, scale.seed);
    let mut cell = Cell {
        stp: Vec::new(),
        antt: Vec::new(),
        power_w: Vec::new(),
    };
    for (w, mixv) in mixes.iter().enumerate() {
        let id = format!("{}/w{w}", Item::Cell(ci).label());
        let ms = rec.begin("mix", Some(root), &id);
        let p = Some(ms);
        let chip = rec.span("Design::chip", p, &id, || d.chip(true, BUS_GBPS));
        let traits: Vec<ThreadTraits> = rec.span("Ctx::traits_of", p, &id, || {
            mixv.iter()
                .map(|&b| ctx.traits_of(b))
                .collect::<Result<_, _>>()
        })?;
        let placements = rec.span("sched::assign_threads", p, &id, || {
            assign_threads(&chip, &traits, true)
        });
        let run = match kind.mode().sample_config() {
            None => {
                let mut sim = MultiCore::new(&chip);
                sim.set_watchdog(DEFAULT_WATCHDOG_CYCLES);
                let first = tot.streams.len();
                populate(
                    rec,
                    ms,
                    &id,
                    &mut sim,
                    scale,
                    mixv,
                    &placements,
                    w as u64,
                    tot,
                );
                IN_RUN.store(true, Ordering::Relaxed);
                let run = rec.span("MultiCore::run", p, &id, || sim.run());
                IN_RUN.store(false, Ordering::Relaxed);
                let run = run?;
                for (s, t) in tot.streams[first..].iter_mut().zip(&run.threads) {
                    s.3 = t.committed;
                }
                tot.add_run(&sim, &run);
                run
            }
            Some(cfg) => {
                let mut sim = MultiCore::with_sink(&chip, CpiStacks::new());
                sim.set_watchdog(DEFAULT_WATCHDOG_CYCLES);
                let first = tot.streams.len();
                populate(
                    rec,
                    ms,
                    &id,
                    &mut sim,
                    scale,
                    mixv,
                    &placements,
                    w as u64,
                    tot,
                );
                // Sampled threads are credited instructions they never
                // drew; the generator replay covers exact runs only.
                tot.streams.truncate(first);
                IN_RUN.store(true, Ordering::Relaxed);
                let out = rec.span("sample::run_sampled", p, &id, || {
                    tlpsim_sample::run_sampled(&mut sim, cfg, 1 << 40)
                });
                IN_RUN.store(false, Ordering::Relaxed);
                let (run, st) = out?;
                let s = &mut tot.sample;
                s.detailed_cycles += st.detailed_cycles;
                s.extrapolated_cycles += st.extrapolated_cycles;
                s.extrapolations += st.extrapolations;
                s.windows += st.windows;
                s.phase_resets += st.phase_resets;
                s.refusals += st.refusals;
                tot.add_run(&sim, &run);
                run
            }
        };
        let pairs = rec.span("Ctx::iso_ipc (cached)", p, &id, || {
            run.threads
                .iter()
                .zip(mixv)
                .map(|(t, &b)| Ok((t.ipc(scale.budget), ctx.iso_ipc(b, CoreKind::Big)?)))
                .collect::<Result<Vec<_>, SimError>>()
        })?;
        let report = rec.span("PowerModel::report", p, &id, || {
            PowerModel::with_power_gating().report(&chip, &run)
        });
        cell.stp
            .push(rec.span("metrics::stp", p, &id, || metrics::stp(&pairs))?);
        cell.antt
            .push(rec.span("metrics::antt", p, &id, || metrics::antt(&pairs))?);
        cell.power_w.push(report.avg_power_w);
        rec.end(ms);
    }
    rec.end(root);
    Ok(cell)
}

/// Time `InstrStream::next` by replaying every exact-run thread's
/// stream with its seed for as many draws as it committed. Returns
/// nanoseconds per draw.
fn replay_draws(rec: &Recorder, streams: &[(u64, usize, u64, u64)]) -> f64 {
    let profiles = spec::all();
    let draws: u64 = streams.iter().map(|s| s.3).sum();
    if draws == 0 {
        return 0.0;
    }
    let t = rec.span("InstrStream::next (replay)", None, "replay", || {
        let start = Instant::now();
        for &(space, b, seed, n) in streams {
            let mut s = InstrStream::new(&profiles[b], space, seed);
            for _ in 0..n {
                black_box(s.next());
            }
        }
        start.elapsed()
    });
    t.as_secs_f64() * 1e9 / draws as f64
}

/// The traced pass: one executor thread, phase publication on
/// (`TLPSIM_PHASE_PROF=1`, set by the caller before any simulation),
/// spans around every call, and every cell rebuilt from public calls
/// and checked bit for bit against `Ctx`'s cell. Tracing overhead is
/// the summed `Ctx` item time against the untraced serial baseline's.
pub fn traced(kind: Kind, sim_seed: u64, refs: &Refs, dir: &Path, base: Baselines) -> Outcome {
    let rec = Recorder::default();
    let scale = quick_scale(sim_seed);
    let items = kind.items();
    let cache = dir.join("traced.cache");
    let ctx = open_ctx(kind, scale, &cache);

    let setup = rec.span("Ctx::iso_ipc", None, "setup", || profile_all(&ctx));
    // Each cell is rebuilt right after `Ctx` computed it, so both see
    // the same warm process.
    let sampler = PhaseSampler::start();
    let tot = Mutex::new(Totals::default());
    let outputs: Vec<Result<Output, SimError>> = match setup {
        Ok(()) => par_map(&items, |&it| {
            let name = match it {
                Item::Cell(_) => "Ctx::mp_cell_bus",
                Item::App(_) => "Ctx::parsec_run",
            };
            let out = rec.span(name, None, &it.label(), || compute(&ctx, it))?;
            if let (Item::Cell(ci), Output::Cell(c)) = (it, &out) {
                let mut tot = tot.lock().expect("totals poisoned");
                let rebuilt = rebuild_cell(&rec, &ctx, kind, ci, &mut tot)?;
                if rebuilt != **c {
                    return Err(SimError::InvalidConfig(format!(
                        "rebuilt {} differs from Ctx's cell",
                        it.label()
                    )));
                }
            }
            Ok(out)
        }),
        Err(e) => items.iter().map(|_| Err(e.clone())).collect(),
    };
    let shares = sampler.finish();
    let tot = tot.into_inner().expect("totals poisoned");
    let (ok, _, _) = check(kind, refs, &outputs);
    let draw_ns = replay_draws(&rec, &tot.streams);
    drop(ctx);
    let _ = std::fs::remove_file(&cache);

    let sp = rec.snapshot();
    let mut m = Metrics::default();
    let traced_busy =
        spans::total_s(&sp, "Ctx::mp_cell_bus") + spans::total_s(&sp, "Ctx::parsec_run");
    m.push("trace.overhead", traced_busy / base.serial_busy_s, "ratio");
    m.push("ctx.iso_s", spans::total_s(&sp, "Ctx::iso_ipc"), "s");
    m.push(
        "ctx.cell_s",
        median(&spans::durations_s(&sp, "Ctx::mp_cell_bus")),
        "s",
    );
    // Ctx's own time in a cell: its span minus the calls the rebuild
    // shows it is made of.
    let cell_self: Vec<f64> = items
        .iter()
        .filter_map(|it| match it {
            Item::Cell(_) => Some(it.label()),
            Item::App(_) => None,
        })
        .map(|label| {
            let cell: f64 = sp
                .iter()
                .filter(|s| s.name == "Ctx::mp_cell_bus" && s.id == label)
                .map(spans::Span::dur_s)
                .sum();
            let calls: f64 = sp
                .iter()
                .filter(|s| {
                    s.id.starts_with(&format!("{label}/"))
                        && s.parent.is_some_and(|p| sp[p].name == "mix")
                        && !MEASURE_ONLY.contains(&s.name)
                })
                .map(spans::Span::dur_s)
                .sum();
            cell - calls
        })
        .collect();
    m.push("ctx.self_ms", median(&cell_self) * 1e3, "ms");
    m.push(
        "ctx.app_s",
        median(&spans::durations_s(&sp, "Ctx::parsec_run")),
        "s",
    );
    m.push("executor.busy_frac", base.parallel.busy_frac, "fraction");
    m.push("executor.tail_s", base.parallel.tail_s, "s");

    let prewarm_s = spans::total_s(&sp, "MultiCore::prewarm");
    let addrs_s = spans::total_s(&sp, "ThreadProgram::prewarm_addrs");
    let run_s = spans::total_s(&sp, "MultiCore::run");
    m.push("uarch.prewarm_s", prewarm_s, "s");
    m.push("uarch.run_s", run_s, "s");
    let mips = if run_s > 0.0 {
        tot.instrs as f64 / run_s / 1e6
    } else {
        0.0
    };
    m.push("uarch.mips", mips, "MIPS");
    m.push(
        "uarch.skip_frac",
        tot.skipped as f64 / tot.cycles.max(1) as f64,
        "fraction",
    );
    m.push("uarch.skip_windows", tot.skip_windows as f64, "count");
    for (name, share) in PHASE_METRICS.iter().zip(shares) {
        m.push(name, share, "fraction");
    }
    m.push("uarch.sim_cycles", tot.cycles as f64, "count");
    m.push("uarch.instrs", tot.instrs as f64, "count");
    m.push("workloads.prewarm_addrs_s", addrs_s, "s");
    m.push("workloads.draw_ns", draw_ns, "ns");
    m.push("mem.prewarm_lines", tot.lines as f64, "count");
    m.push(
        "mem.prewarm_ns_per_line",
        (prewarm_s - addrs_s).max(0.0) * 1e9 / tot.lines.max(1) as f64,
        "ns",
    );
    m.push(
        "mem.l1d_miss_rate",
        tot.l1d_misses as f64 / (tot.l1d_hits + tot.l1d_misses).max(1) as f64,
        "fraction",
    );
    m.push(
        "mem.llc_miss_rate",
        tot.llc_misses as f64 / (tot.llc_hits + tot.llc_misses).max(1) as f64,
        "fraction",
    );
    m.push("mem.dram_accesses", tot.dram as f64, "count");
    let bus_q = if tot.bus_queue.is_empty() {
        0.0
    } else {
        tot.bus_queue.iter().sum::<f64>() / tot.bus_queue.len() as f64
    };
    m.push("mem.bus_avg_queue_cycles", bus_q, "cycles");
    let st = tot.sample;
    m.push(
        "sample.run_s",
        spans::total_s(&sp, "sample::run_sampled"),
        "s",
    );
    m.push(
        "sample.extrapolated_frac",
        st.extrapolated_fraction(),
        "fraction",
    );
    m.push("sample.windows", st.windows as f64, "count");
    m.push("sample.extrapolations", st.extrapolations as f64, "count");
    m.push("sample.refusals", st.refusals as f64, "count");
    m.push("sample.phase_resets", st.phase_resets as f64, "count");

    Outcome {
        attempted: ok.len(),
        failed: ok.iter().filter(|&&o| !o).count(),
        metrics: m,
        spans: sp,
    }
}

/// Untraced reference passes a traced run compares against (measured
/// in child processes, where phase publication is off).
#[derive(Debug, Clone, Copy)]
pub struct Baselines {
    /// Executor stats at `nproc` threads.
    pub parallel: ExecStats,
    /// Summed item time of the same items on one executor thread.
    pub serial_busy_s: f64,
}

/// Per-layer names of the phase shares, in `phase::current()` order
/// with "other" last.
pub const PHASE_METRICS: [&str; phase::N_PHASES + 1] = [
    "uarch.phase.commit",
    "uarch.phase.issue_scan",
    "uarch.phase.wheel",
    "uarch.phase.fetch",
    "uarch.phase.memory",
    "uarch.phase.other",
];
