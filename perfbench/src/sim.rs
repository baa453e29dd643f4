//! The `figures` and `sampled` workloads: an in-process slice of the
//! paper's figure sweep through `Ctx` and the sweep executor, one pass
//! per child process, checked against the references.

use std::collections::HashMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use tlpsim_core::configs::{self, Design};
use tlpsim_core::ctx::{par_map, Cell, Ctx, ParsecOutcome, WorkloadKind};
use tlpsim_core::mode::SimMode;
use tlpsim_core::{SimError, SimScale};
use tlpsim_power::CoreKind;
use tlpsim_workloads::{parsec, spec, SplitMix64};

use crate::refs::Refs;
use crate::stats::{median, peak_rss_mib, quantile};
use crate::{repeat_passes, Metrics, Outcome};

/// The heterogeneous-mix cells of both workloads (SMT on, 8 GB/s).
pub const CELLS: [(&str, usize); 3] = [("4B", 2), ("4B", 8), ("2B10s", 4)];
/// The PARSEC-like apps of `figures` run on this design at this many
/// threads.
const APP_DESIGN: &str = "4B";
const APP_THREADS: usize = 8;
pub const BUS_GBPS: f64 = 8.0;
/// Cache-hit requests per pass: re-opening the pass's disk cache and
/// asking for one item, as a rerun figure target does. They run in
/// batches 20 ms apart, so a pass samples the host's speed over 0.4 s
/// rather than at one instant.
const HITS_PER_PASS: usize = 400;
const HIT_BATCH: usize = 20;
const HIT_GAP: std::time::Duration = std::time::Duration::from_millis(20);
/// Set-ups per pass, each a fresh context on a fresh disk cache; the
/// pass goes on with the last. One set-up takes about 0.4 s, short
/// enough that a single reading mostly shows the host's momentary
/// speed; `setup_s` is the median over passes of each pass's median.
const SETUPS_PER_PASS: usize = 4;

/// One unit of work handed to the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    Cell(usize),
    App(usize),
}

impl Item {
    pub fn label(self) -> String {
        match self {
            Item::Cell(i) => format!("{}/n{}", CELLS[i].0, CELLS[i].1),
            Item::App(a) => format!("app{a}"),
        }
    }
}

/// What one item produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    Cell(Arc<Cell>),
    App(Arc<ParsecOutcome>),
}

/// Workload selector for this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Figures,
    Sampled,
}

impl Kind {
    pub fn mode(self) -> SimMode {
        match self {
            Kind::Figures => SimMode::Exact,
            Kind::Sampled => SimMode::sampled_default(),
        }
    }

    pub fn items(self) -> Vec<Item> {
        let cells = (0..CELLS.len()).map(Item::Cell);
        match self {
            Kind::Figures => cells
                .chain((0..parsec::all().len()).map(Item::App))
                .collect(),
            Kind::Sampled => cells.collect(),
        }
    }
}

/// `SimScale::quick()` (the CLI's scale) at simulation seed `sim_seed`.
pub fn quick_scale(sim_seed: u64) -> SimScale {
    SimScale {
        seed: sim_seed,
        ..SimScale::quick()
    }
}

pub fn design(name: &str) -> Design {
    configs::by_name(name).expect("benchmark designs are among the nine")
}

pub fn open_ctx(kind: Kind, scale: SimScale, cache: &Path) -> Ctx {
    Ctx::with_disk_cache(scale, cache).with_mode(kind.mode())
}

/// Isolated profiling of every benchmark on big and small cores — the
/// set-up every figure pays before its first cell.
pub fn profile_all(ctx: &Ctx) -> Result<(), SimError> {
    for b in 0..spec::all().len() {
        ctx.iso_ipc(b, CoreKind::Big)?;
        ctx.iso_ipc(b, CoreKind::Small)?;
    }
    Ok(())
}

pub fn compute(ctx: &Ctx, item: Item) -> Result<Output, SimError> {
    match item {
        Item::Cell(i) => {
            let (d, n) = CELLS[i];
            ctx.mp_cell_bus(&design(d), n, WorkloadKind::Heterogeneous, true, BUS_GBPS)
                .map(Output::Cell)
        }
        Item::App(a) => ctx
            .parsec_run(&design(APP_DESIGN), a, APP_THREADS, true, BUS_GBPS)
            .map(Output::App),
    }
}

/// The references of everything `figures` computes, from a fresh
/// in-process context (used to write the checked-in files).
pub fn reference_outputs(sim_seed: u64, refs: &mut Refs) -> Result<(), SimError> {
    let ctx = Ctx::new(quick_scale(sim_seed));
    for (item, out) in Kind::Figures
        .items()
        .into_iter()
        .zip(par_map(&Kind::Figures.items(), |&it| compute(&ctx, it)))
    {
        match (item, out?) {
            (Item::Cell(i), Output::Cell(c)) => {
                let (d, n) = CELLS[i];
                refs.cells.insert((d.to_string(), n), (*c).clone());
            }
            (Item::App(a), Output::App(o)) => {
                refs.apps.insert(a, (*o).clone());
            }
            _ => unreachable!("compute returns the output kind of its item"),
        }
    }
    Ok(())
}

/// Start and end of one item, seconds after dispatch, and the executor
/// worker that ran it.
#[derive(Debug, Clone, Copy)]
struct ItemTiming {
    worker: ThreadId,
    start_s: f64,
    end_s: f64,
}

/// Executor utilisation of one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    pub wall_s: f64,
    /// Sum of item durations.
    pub busy_s: f64,
    pub busy_frac: f64,
    /// From the first worker going idle for good to the last result.
    pub tail_s: f64,
}

fn exec_stats(wall_s: f64, timings: &[ItemTiming]) -> ExecStats {
    let mut last_end: HashMap<ThreadId, f64> = HashMap::new();
    for t in timings {
        let e = last_end.entry(t.worker).or_insert(0.0);
        *e = e.max(t.end_s);
    }
    let busy_s: f64 = timings.iter().map(|t| t.end_s - t.start_s).sum();
    let workers = last_end.len().max(1);
    let first_idle = last_end.values().copied().fold(wall_s, f64::min);
    ExecStats {
        wall_s,
        busy_s,
        busy_frac: busy_s / (workers as f64 * wall_s),
        tail_s: wall_s - first_idle,
    }
}

/// Everything one untraced pass measured and produced.
struct Pass {
    /// Median of the pass's set-ups.
    setup_s: f64,
    exec: ExecStats,
    outputs: Vec<Result<Output, SimError>>,
    hits_ms: Vec<f64>,
    hit_failures: usize,
}

fn remove_cache(cache: &Path) {
    let _ = std::fs::remove_file(cache);
    let _ = std::fs::remove_file(cache.with_extension("cache.lock"));
}

/// One untraced pass: [`SETUPS_PER_PASS`] set-ups (fresh disk cache
/// and context, isolated profiling), the items through the executor on
/// the last one, then cache hits.
fn run_pass(kind: Kind, scale: SimScale, dir: &Path, rng: &mut SplitMix64, hits: usize) -> Pass {
    let items = kind.items();
    let set_up = |cache: &Path| {
        let t0 = Instant::now();
        let ctx = open_ctx(kind, scale, cache);
        let setup = profile_all(&ctx);
        (ctx, setup, t0.elapsed().as_secs_f64())
    };
    let mut setups = Vec::with_capacity(SETUPS_PER_PASS);
    for k in 1..SETUPS_PER_PASS {
        let cache = dir.join(format!("setup-{k}.cache"));
        setups.push(set_up(&cache).2);
        remove_cache(&cache);
    }
    let cache = dir.join("pass.cache");
    let (ctx, setup, last_s) = set_up(&cache);
    setups.push(last_s);
    let setup_s = median(&setups);

    let timings = Mutex::new(Vec::with_capacity(items.len()));
    let d0 = Instant::now();
    let mut outputs = match setup {
        Ok(()) => par_map(&items, |&it| {
            let start_s = d0.elapsed().as_secs_f64();
            let out = compute(&ctx, it);
            let end_s = d0.elapsed().as_secs_f64();
            timings
                .lock()
                .expect("timing list poisoned")
                .push(ItemTiming {
                    worker: std::thread::current().id(),
                    start_s,
                    end_s,
                });
            out
        }),
        Err(e) => items.iter().map(|_| Err(e.clone())).collect(),
    };
    let wall_s = d0.elapsed().as_secs_f64();
    drop(ctx);
    let exec = exec_stats(wall_s, &timings.into_inner().expect("timing list poisoned"));

    // Cache hits: what rerunning a figure with a warm disk cache costs.
    let mut hits_ms = Vec::with_capacity(hits);
    let mut hit_failures = 0;
    for h in 0..hits {
        if h % HIT_BATCH == 0 && h > 0 {
            std::thread::sleep(HIT_GAP);
        }
        let k = (rng.next_u64() % items.len() as u64) as usize;
        let t = Instant::now();
        let ctx = open_ctx(kind, scale, &cache);
        let before = ctx.cache_stats();
        let got = compute(&ctx, items[k]);
        hits_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let recomputed = ctx.cache_stats() != before;
        let same = matches!((&got, &outputs[k]), (Ok(a), Ok(b)) if a == b);
        if recomputed || !same {
            hit_failures += 1;
        }
    }
    if hit_failures > 0 {
        // A replay that differs from what was just computed is a cache
        // defect; the items it touched are not trustworthy.
        for o in outputs.iter_mut().filter(|o| o.is_ok()) {
            *o = Err(SimError::InvalidConfig(
                "disk-cache replay disagreed with the computed result".into(),
            ));
        }
    }
    remove_cache(&cache);
    Pass {
        setup_s,
        exec,
        outputs,
        hits_ms,
        hit_failures,
    }
}

/// `max(a/b, b/a)`: 1 when equal, symmetric in over- and under-estimate.
fn ratio(a: f64, b: f64) -> f64 {
    (a / b).max(b / a)
}

/// Checks one pass's outputs; returns per-item pass/fail plus the
/// largest sampled-vs-exact ratios of mean STP and ANTT.
pub fn check(
    kind: Kind,
    refs: &Refs,
    outputs: &[Result<Output, SimError>],
) -> (Vec<bool>, f64, f64) {
    let items = kind.items();
    let mut ok = vec![false; items.len()];
    let mut stp_ratio: f64 = 1.0;
    let mut antt_ratio: f64 = 1.0;
    // (item, sampled means, exact means) of each cell, where means are
    // [STP, ANTT], for the ordering gate.
    type Means = (usize, [f64; 2], [f64; 2]);
    let mut means: Vec<Means> = Vec::new();
    for (k, (item, out)) in items.iter().zip(outputs).enumerate() {
        let Ok(out) = out else {
            eprintln!(
                "perfbench: {} failed: {}",
                item.label(),
                out.as_ref().unwrap_err()
            );
            continue;
        };
        ok[k] = match (item, out) {
            (Item::Cell(i), Output::Cell(c)) => {
                let (d, n) = CELLS[*i];
                match refs.cells.get(&(d.to_string(), n)) {
                    Some(exact) if kind == Kind::Figures => **c == *exact,
                    Some(exact) => {
                        let s = [c.mean_stp(), c.mean_antt()];
                        let e = [exact.mean_stp(), exact.mean_antt()];
                        stp_ratio = stp_ratio.max(ratio(s[0], e[0]));
                        antt_ratio = antt_ratio.max(ratio(s[1], e[1]));
                        means.push((k, s, e));
                        s.iter().all(|v| v.is_finite())
                    }
                    None => false,
                }
            }
            (Item::App(a), Output::App(o)) => refs.apps.get(a) == Some(&**o),
            _ => false,
        };
        if !ok[k] {
            eprintln!("perfbench: {} differs from its reference", item.label());
        }
    }
    // Ordering gate: a sampled cell whose mean STP or ANTT orders any
    // pair of cells differently from the exact references fails.
    for (x, &(kx, sx, ex)) in means.iter().enumerate() {
        for &(ky, sy, ey) in &means[x + 1..] {
            for m in 0..2 {
                if (sx[m] - sy[m]).signum() != (ex[m] - ey[m]).signum() {
                    eprintln!(
                        "perfbench: sampled {} reorders {} and {}",
                        ["STP", "ANTT"][m],
                        items[kx].label(),
                        items[ky].label()
                    );
                    ok[kx] = false;
                    ok[ky] = false;
                }
            }
        }
    }
    (ok, stp_ratio, antt_ratio)
}

/// What one untraced pass reports to the measuring process.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    pub setup_s: f64,
    pub exec: ExecStats,
    /// Peak resident set of the pass's process.
    pub rss_mib: f64,
    pub attempted: usize,
    pub failed: usize,
    pub stp_ratio: f64,
    pub antt_ratio: f64,
    pub hits_ms: Vec<f64>,
}

impl PassReport {
    /// One whitespace-separated line: the scalars in field order, then
    /// every hit latency.
    pub fn to_line(&self) -> String {
        let e = &self.exec;
        let mut v = vec![
            self.setup_s,
            e.wall_s,
            e.busy_s,
            e.busy_frac,
            e.tail_s,
            self.rss_mib,
            self.attempted as f64,
            self.failed as f64,
            self.stp_ratio,
            self.antt_ratio,
        ];
        v.extend(&self.hits_ms);
        let words: Vec<String> = v.iter().map(f64::to_string).collect();
        format!("pass {}", words.join(" "))
    }

    pub fn parse(line: &str) -> Option<PassReport> {
        let v: Vec<f64> = line
            .strip_prefix("pass ")?
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        let [setup_s, wall_s, busy_s, busy_frac, tail_s, rss_mib, att, fail, stp_ratio, antt_ratio, ..] =
            v[..]
        else {
            return None;
        };
        Some(PassReport {
            setup_s,
            exec: ExecStats {
                wall_s,
                busy_s,
                busy_frac,
                tail_s,
            },
            rss_mib,
            attempted: att as usize,
            failed: fail as usize,
            stp_ratio,
            antt_ratio,
            hits_ms: v[10..].to_vec(),
        })
    }
}

/// Run one untraced pass in this process and check it (the body of a
/// pass child; see [`spawn_pass`]).
pub fn pass(kind: Kind, sim_seed: u64, seed: u64, refs: &Refs, dir: &Path) -> PassReport {
    let mut rng = SplitMix64::new(seed);
    let p = run_pass(kind, quick_scale(sim_seed), dir, &mut rng, HITS_PER_PASS);
    let (ok, stp_ratio, antt_ratio) = check(kind, refs, &p.outputs);
    PassReport {
        setup_s: p.setup_s,
        exec: p.exec,
        rss_mib: peak_rss_mib("self").unwrap_or(0.0),
        attempted: ok.len() + p.hits_ms.len(),
        failed: ok.iter().filter(|&&o| !o).count() + p.hit_failures,
        stp_ratio,
        antt_ratio,
        hits_ms: p.hits_ms,
    }
}

/// Run one pass in a fresh child process of this executable with
/// `threads` executor threads and phase publication off — as a user's
/// figure run would be, so peak memory is one pass's own.
pub fn spawn_pass(args: &[String], threads: usize) -> Result<PassReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .args(["--pass", &threads.to_string()])
        .env_remove("TLPSIM_PHASE_PROF")
        .env("TLPSIM_THREADS", threads.to_string())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.lines().last().and_then(PassReport::parse) {
        Some(r) if out.status.success() => Ok(r),
        _ => Err(format!("pass child failed ({}): {text}", out.status)),
    }
}

/// Untraced passes, each a fresh process with a fresh context and disk
/// cache, while the next one still fits in `seconds` (at least one).
/// Set-up time, wall time and peak memory are medians over passes;
/// cache-hit latency percentiles pool every hit.
/// `child_args` selects the workload, seeds and directories for
/// [`spawn_pass`].
pub fn measure(
    child_args: &dyn Fn(u64) -> Vec<String>,
    seed: u64,
    seconds: f64,
    nproc: usize,
) -> Outcome {
    let (passes, failure) = repeat_passes(seconds, |i| {
        let pass_seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
        spawn_pass(&child_args(pass_seed), nproc)
    });
    let col = |f: fn(&PassReport) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let hits: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.hits_ms.iter().copied())
        .collect();
    let mut m = Metrics::default();
    m.push("setup_s", median(&col(|p| p.setup_s)), "s");
    m.push("wall_s", median(&col(|p| p.exec.wall_s)), "s");
    m.push("peak_rss_mb", median(&col(|p| p.rss_mib)), "MiB");
    m.push("hit_p50_ms", quantile(&hits, 0.5), "ms");
    m.push("hit_p90_ms", quantile(&hits, 0.9), "ms");
    m.push(
        "stp_ratio_max",
        col(|p| p.stp_ratio).into_iter().fold(1.0, f64::max),
        "ratio",
    );
    m.push(
        "antt_ratio_max",
        col(|p| p.antt_ratio).into_iter().fold(1.0, f64::max),
        "ratio",
    );
    println!(
        "perfbench: {} pass(es); wall_s {:?}; setup_s {:?}; peak_rss_mb {:?}",
        passes.len(),
        col(|p| p.exec.wall_s),
        col(|p| p.setup_s),
        col(|p| p.rss_mib)
    );
    let mut out = Outcome {
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics: m,
        ..Outcome::default()
    };
    if let Some(e) = failure {
        eprintln!("perfbench: {e}");
        out.attempted += 1;
        out.failed += 1;
    }
    out
}
