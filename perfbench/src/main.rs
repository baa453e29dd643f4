//! tlpsim benchmark: three workloads through the public APIs of
//! `tlpsim-core`, `tlpsim-uarch`, `tlpsim-sample` and the `tlpsim`
//! daemon, checked against checked-in references. See README.md.
//!
//! ```text
//! tlpsim-perfbench --workload figures|sampled|served --seed N --seconds S --trace 0|1
//!                  [--sim-seed 42|2014] [--refs DIR] [--work-dir DIR] [--tlpsim PATH]
//! tlpsim-perfbench --write-refs --sim-seed N [--refs DIR]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod refs;
mod served;
mod sim;
mod spans;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use refs::Refs;
use sim::Kind;

/// The simulation seed of `SimScale::quick()`, and the held-out seed.
/// References are checked in for exactly these two.
const DEFAULT_SIM_SEED: u64 = 42;
const HELDOUT_SIM_SEED: u64 = 2014;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "wall_s",
    "peak_rss_mb",
    "hit_p50_ms",
    "hit_p90_ms",
    "stp_ratio_max",
    "antt_ratio_max",
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a
/// layer the workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("trace.overhead", "ratio"),
    ("ctx.iso_s", "s"),
    ("ctx.cell_s", "s"),
    ("ctx.self_ms", "ms"),
    ("ctx.app_s", "s"),
    ("executor.busy_frac", "fraction"),
    ("executor.tail_s", "s"),
    ("uarch.prewarm_s", "s"),
    ("uarch.run_s", "s"),
    ("uarch.mips", "MIPS"),
    ("uarch.skip_frac", "fraction"),
    ("uarch.skip_windows", "count"),
    ("uarch.phase.commit", "fraction"),
    ("uarch.phase.issue_scan", "fraction"),
    ("uarch.phase.wheel", "fraction"),
    ("uarch.phase.fetch", "fraction"),
    ("uarch.phase.memory", "fraction"),
    ("uarch.phase.other", "fraction"),
    ("uarch.sim_cycles", "count"),
    ("uarch.instrs", "count"),
    ("workloads.prewarm_addrs_s", "s"),
    ("workloads.draw_ns", "ns"),
    ("mem.prewarm_lines", "count"),
    ("mem.prewarm_ns_per_line", "ns"),
    ("mem.l1d_miss_rate", "fraction"),
    ("mem.llc_miss_rate", "fraction"),
    ("mem.dram_accesses", "count"),
    ("mem.bus_avg_queue_cycles", "cycles"),
    ("sample.run_s", "s"),
    ("sample.extrapolated_frac", "fraction"),
    ("sample.windows", "count"),
    ("sample.extrapolations", "count"),
    ("sample.refusals", "count"),
    ("sample.phase_resets", "count"),
    ("daemon.ready_s", "s"),
    ("client.status_ms", "ms"),
    ("daemon.compute_frac", "fraction"),
    ("daemon.cells.completed", "count"),
    ("daemon.cells.deduped", "count"),
    ("daemon.cells.retried", "count"),
    ("daemon.frames.rejected", "count"),
    ("daemon.workers.respawns", "count"),
    ("daemon.jobs.shed", "count"),
];

/// Named metric values with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    fn get(&self, name: &str) -> Option<&(String, f64, String)> {
        self.0.iter().find(|(n, _, _)| n == name)
    }
}

/// What one workload run produced: operations attempted and failed,
/// its metrics, and the spans of a traced run (empty otherwise).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    pub spans: Vec<spans::Span>,
}

/// Call `pass(i)` for i = 0, 1, ... while the next call still fits in
/// `seconds`, judged by the longest so far (at least once). Stops at
/// the first error and returns it beside the passes that succeeded.
pub fn repeat_passes<P>(
    seconds: f64,
    mut pass: impl FnMut(usize) -> Result<P, String>,
) -> (Vec<P>, Option<String>) {
    let start = Instant::now();
    let mut done = Vec::new();
    let mut longest = 0.0f64;
    while done.is_empty() || start.elapsed().as_secs_f64() + longest < seconds {
        let t = Instant::now();
        match pass(done.len()) {
            Ok(p) => done.push(p),
            Err(e) => return (done, Some(e)),
        }
        longest = longest.max(t.elapsed().as_secs_f64());
    }
    (done, None)
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sim_seed: u64,
    refs: PathBuf,
    work_dir: PathBuf,
    tlpsim: PathBuf,
    write_refs: bool,
    /// Internal: run one untraced pass at this many executor threads
    /// and print its report line (see `sim::spawn_pass`).
    pass: Option<usize>,
}

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: tlpsim-perfbench --workload figures|sampled|served --seed N --seconds S --trace 0|1 \
         [--sim-seed {DEFAULT_SIM_SEED}|{HELDOUT_SIM_SEED}] [--refs DIR] [--work-dir DIR] [--tlpsim PATH]\n       \
         tlpsim-perfbench --write-refs --sim-seed N [--refs DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        sim_seed: DEFAULT_SIM_SEED,
        refs: PathBuf::from("perfbench/refs"),
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
        tlpsim: PathBuf::from(".bench_build/release/tlpsim"),
        write_refs: false,
        pass: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-refs" {
            a.write_refs = true;
            continue;
        }
        let Some(v) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        let num = |v: &str| -> u64 {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag} {v:?} is not a whole number")))
        };
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = num(&v),
            "--seconds" => a.seconds = num(&v) as f64,
            "--trace" => match v.as_str() {
                "0" => a.trace = false,
                "1" => a.trace = true,
                _ => usage("--trace takes 0 or 1"),
            },
            "--sim-seed" => a.sim_seed = num(&v),
            "--refs" => a.refs = v.into(),
            "--work-dir" => a.work_dir = v.into(),
            "--tlpsim" => a.tlpsim = v.into(),
            "--pass" => a.pass = Some(num(&v).max(1) as usize),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    a
}

fn refs_path(dir: &Path, sim_seed: u64) -> PathBuf {
    dir.join(format!("seed-{sim_seed}.txt"))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Compute and write the reference file of `sim_seed`.
fn write_refs(a: &Args) -> ExitCode {
    let mut r = Refs::default();
    if let Err(e) = sim::reference_outputs(a.sim_seed, &mut r) {
        eprintln!("perfbench: reference run failed: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = served::reference_outputs(a.sim_seed, &mut r) {
        eprintln!("perfbench: reference sweep failed: {e}");
        return ExitCode::FAILURE;
    }
    let path = refs_path(&a.refs, a.sim_seed);
    let header = format!(
        "tlpsim benchmark references, simulation seed {}.\n\
         cell/app: SimScale::quick() at this seed, exact mode, SMT on, 8 GB/s.\n\
         served: the 4B heterogeneous sweep at TLPSIM_SERVE_SCALE=200,600,1000,{}.\n\
         Floats are IEEE-754 bit patterns in hex. Regenerate with\n\
         `python3 perfbench/run.py --write-refs --sim-seed {}`; a change here is a change\n\
         of simulated output and must be explained.",
        a.sim_seed, a.sim_seed, a.sim_seed
    );
    match std::fs::write(&path, r.render(&header)) {
        Ok(()) => {
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn json_result(correct: bool, attempted: usize, failed: usize, m: &Metrics) -> String {
    let fields: Vec<String> =
        m.0.iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    // Environment hygiene: nothing inherited may steer the simulator.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("TLPSIM_") {
            std::env::remove_var(&k);
        }
    }
    let a = parse_args();
    let nproc = nproc();
    let kind = match a.workload.as_str() {
        "figures" => Some(Kind::Figures),
        "sampled" => Some(Kind::Sampled),
        "served" => None,
        _ if a.write_refs => None,
        w => usage(&format!(
            "unknown workload {w:?} (figures, sampled, served)"
        )),
    };
    // Executor threads are explicit: nproc, or 1 for a traced
    // simulation pass so the phase sampler watches a single thread.
    // Phase publication is decided once per process, before any run.
    let traced_sim = a.trace && kind.is_some() && a.pass.is_none();
    let threads = a.pass.unwrap_or(if traced_sim { 1 } else { nproc });
    std::env::set_var("TLPSIM_THREADS", threads.to_string());
    if traced_sim {
        std::env::set_var("TLPSIM_PHASE_PROF", "1");
    }
    if a.write_refs {
        return write_refs(&a);
    }
    let refs = match Refs::load(&refs_path(&a.refs, a.sim_seed)) {
        Ok(r) => r,
        Err(e) => usage(&format!(
            "no references for simulation seed {} ({e}); checked in: {DEFAULT_SIM_SEED}, {HELDOUT_SIM_SEED}",
            a.sim_seed
        )),
    };
    let dir = a
        .work_dir
        .join(format!("{}-{}", a.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let result = run(&a, kind, &refs, &dir, nproc);
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Some(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        None => ExitCode::SUCCESS,
    }
}

/// Run the selected workload; returns the final JSON line (none in
/// pass-child mode, which prints its own report line).
fn run(a: &Args, kind: Option<Kind>, refs: &Refs, dir: &Path, nproc: usize) -> Option<String> {
    if let (Some(k), Some(_)) = (kind, a.pass) {
        println!("{}", sim::pass(k, a.sim_seed, a.seed, refs, dir).to_line());
        return None;
    }
    println!(
        "perfbench: workload={} seed={} sim_seed={} seconds={} trace={} nproc={nproc} executor_threads={}",
        a.workload,
        a.seed,
        a.sim_seed,
        a.seconds,
        u8::from(a.trace),
        std::env::var("TLPSIM_THREADS").unwrap_or_default()
    );
    // Arguments of a pass child running pass seed `s`.
    let child_args = |s: u64| -> Vec<String> {
        vec![
            "--workload".into(),
            a.workload.clone(),
            "--seed".into(),
            s.to_string(),
            "--sim-seed".into(),
            a.sim_seed.to_string(),
            "--refs".into(),
            a.refs.display().to_string(),
            "--work-dir".into(),
            dir.display().to_string(),
        ]
    };
    let outcome = match (kind, a.trace) {
        (Some(_), false) => sim::measure(&child_args, a.seed, a.seconds, nproc),
        (None, false) => served::measure(&a.tlpsim, a.sim_seed, a.seed, a.seconds, refs, dir),
        (Some(k), true) => {
            let bases = sim::spawn_pass(&child_args(a.seed), nproc).and_then(|p| {
                sim::spawn_pass(&child_args(a.seed), 1).map(|s| traced::Baselines {
                    parallel: p.exec,
                    serial_busy_s: s.exec.busy_s,
                })
            });
            match bases {
                Ok(b) => traced::traced(k, a.sim_seed, refs, dir, b),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    Outcome {
                        attempted: 1,
                        failed: 1,
                        ..Outcome::default()
                    }
                }
            }
        }
        (None, true) => served::traced(&a.tlpsim, a.sim_seed, a.seed, refs, dir),
    };
    let Outcome {
        attempted,
        failed,
        metrics,
        spans: sp,
    } = outcome;
    let mut out = Metrics::default();
    let mut complete = true;
    if a.trace {
        for (name, unit) in PER_LAYER {
            let v = metrics.get(name).map_or(0.0, |m| m.1);
            out.push(name, v, unit);
        }
    } else {
        for name in END_TO_END {
            match metrics.get(name) {
                Some((n, v, u)) => out.push(n, *v, u),
                None => {
                    complete = false;
                    eprintln!("perfbench: metric {name} was not measured");
                }
            }
        }
    }
    for (name, v, _) in out.0.iter_mut() {
        if !v.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            *v = 0.0;
            complete = false;
        }
    }
    for (n, v, u) in &out.0 {
        println!("metric {n} {v} {u}");
    }
    if a.trace {
        let path = a.work_dir.join(format!(
            "trace-{}-{}-{}.json",
            a.workload, a.sim_seed, a.seed
        ));
        match std::fs::write(&path, spans::chrome_json(&sp)) {
            Ok(()) => println!(
                "perfbench: {} spans written to {}",
                sp.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: {}: {e}", path.display()),
        }
    }
    let correct = complete && failed == 0 && attempted > 0;
    Some(json_result(correct, attempted.max(1), failed, &out))
}
