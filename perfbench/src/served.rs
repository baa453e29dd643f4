//! The `served` workload: `tlpsim serve --daemon` with two TCP worker
//! hosts on a fresh queue and cache, driven by one closed-loop client —
//! one fresh tiny-scale 4B sweep job, then duplicate submissions under
//! new tokens that the shared cell cache answers.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tlpsim_core::client::{self, ClientOptions, SweepCells};
use tlpsim_core::ctx::{par_map, Ctx, WorkloadKind};
use tlpsim_core::journal::SweepSpec;
use tlpsim_core::mode::SimMode;
use tlpsim_core::{configs, interrupt, SimScale, SWEEP_COUNTS};
use tlpsim_workloads::SplitMix64;

use crate::refs::Refs;
use crate::spans::{self, Recorder};
use crate::stats::{json_number, median, peak_rss_mib, quantile};
use crate::{repeat_passes, Metrics, Outcome};

/// Duplicate submissions per pass (the hit-latency sample).
const DUPLICATES: usize = 100;
/// `client::status` round trips timed in the traced pass.
const STATUS_PROBES: usize = 20;
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Daemon set-ups per pass, each on a fresh directory; the pass goes on
/// with the last. Readiness is seen through a `STATUS` round trip, which
/// waits on the accept loop's 25 ms sleep, so one set-up reads about
/// 28 ms or, when the hosts connect just after a round trip, 54 ms;
/// `setup_s` is the median of all of a run's set-ups.
const SETUPS_PER_PASS: usize = 3;
const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// The tiny scale the daemon tests use, at simulation seed `sim_seed`.
pub fn tiny_scale(sim_seed: u64) -> SimScale {
    SimScale {
        warmup: 200,
        budget: 600,
        parsec_phase: 1_000,
        seed: sim_seed,
    }
}

fn spec(sim_seed: u64) -> SweepSpec {
    SweepSpec {
        design: "4B".into(),
        kind: WorkloadKind::Heterogeneous,
        smt: true,
        bus_dgbps: 80,
        scale: tiny_scale(sim_seed),
        mode: SimMode::Exact,
    }
}

/// The 4B sweep at tiny scale computed in process on the executor.
fn in_process_sweep(sim_seed: u64) -> Result<SweepCells, String> {
    let ctx = Ctx::new(tiny_scale(sim_seed));
    let d = configs::by_name("4B").expect("4B is one of the nine designs");
    let cells = par_map(&SWEEP_COUNTS, |&n| {
        ctx.mp_cell_bus(&d, n, WorkloadKind::Heterogeneous, true, 8.0)
    });
    SWEEP_COUNTS
        .iter()
        .zip(cells)
        .map(|(&n, c)| c.map(|c| (n, (*c).clone())).map_err(|e| e.to_string()))
        .collect()
}

/// The reference sweep for `served` (written to the checked-in file).
pub fn reference_outputs(sim_seed: u64, refs: &mut Refs) -> Result<(), String> {
    refs.served = in_process_sweep(sim_seed)?;
    Ok(())
}

/// A running daemon and the files it was started with.
struct Daemon {
    child: Child,
    addr: String,
    pid_file: PathBuf,
    log: PathBuf,
}

impl Daemon {
    fn spawn(tlpsim: &Path, sim_seed: u64, dir: &Path) -> Result<Daemon, String> {
        let s = tiny_scale(sim_seed);
        let addr_file = dir.join("addr");
        let pid_file = dir.join("workers.pids");
        let log = dir.join("daemon.log");
        let stderr = std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(tlpsim)
            .args(["serve", "--daemon", "127.0.0.1:0", "--workers", "2"])
            .arg("--queue")
            .arg(dir.join("jobs.queue"))
            .arg("--cache")
            .arg(dir.join("cells.cache"))
            .arg("--addr-file")
            .arg(&addr_file)
            .arg("--pid-file")
            .arg(&pid_file)
            .env(
                "TLPSIM_SERVE_SCALE",
                format!("{},{},{},{}", s.warmup, s.budget, s.parsec_phase, s.seed),
            )
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", tlpsim.display()))?;
        let mut d = Daemon {
            child,
            addr: String::new(),
            pid_file,
            log,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let a = std::fs::read_to_string(&addr_file).unwrap_or_default();
            if !a.trim().is_empty() {
                d.addr = a.trim().to_string();
                return Ok(d);
            }
            if let Ok(Some(st)) = d.child.try_wait() {
                return Err(format!(
                    "daemon exited before listening ({st}): {}",
                    d.log_text()
                ));
            }
            if Instant::now() > deadline {
                return Err("daemon never published its address".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn log_text(&self) -> String {
        std::fs::read_to_string(&self.log).unwrap_or_default()
    }

    /// Poll `STATUS` until both worker hosts hold connections: every
    /// accepted connection that is not one of our own probes is a host.
    fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut probes = 0.0;
        loop {
            probes += 1.0;
            let json = client::status(&self.addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
            let opened = json_number(&json, "daemon.conns.opened").unwrap_or(0.0);
            if opened - probes >= 2.0 {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!("worker hosts never connected: {json}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn worker_pids(&self) -> Vec<u32> {
        std::fs::read_to_string(&self.pid_file)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| l.trim().parse().ok())
            .collect()
    }

    /// Largest peak resident set among the daemon and its workers.
    fn peak_rss_mib(&self) -> f64 {
        std::iter::once(self.child.id())
            .chain(self.worker_pids())
            .filter_map(|p| peak_rss_mib(&p.to_string()))
            .fold(0.0, f64::max)
    }

    /// Drain with SIGTERM: the daemon must exit 130 and every worker
    /// it listed must be gone. Anything left over is killed and
    /// reported.
    fn drain(mut self) -> Result<(), String> {
        interrupt::send_signal(self.child.id(), SIGTERM);
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(st)) => break st,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.kill();
                    return Err("daemon did not drain within 30 s of SIGTERM".into());
                }
            }
        };
        let mut problems = Vec::new();
        if status.code() != Some(130) {
            problems.push(format!("daemon exited {status}, expected 130"));
        }
        for pid in self.worker_pids() {
            let gone_by = Instant::now() + Duration::from_secs(10);
            while interrupt::send_signal(pid, 0) && Instant::now() < gone_by {
                std::thread::sleep(Duration::from_millis(5));
            }
            if interrupt::send_signal(pid, 0) {
                interrupt::send_signal(pid, SIGKILL);
                problems.push(format!("worker {pid} outlived the daemon"));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{}; daemon log: {}",
                problems.join("; "),
                self.log_text()
            ))
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for pid in self.worker_pids() {
            interrupt::send_signal(pid, SIGKILL);
        }
    }
}

impl Drop for Daemon {
    /// A pass that fails before its drain still stops every process.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// What one pass measured.
struct Pass {
    setups_s: Vec<f64>,
    job_s: f64,
    hits_ms: Vec<f64>,
    status_ms: Vec<f64>,
    rss_mib: f64,
    attempted: usize,
    failed: usize,
    /// The daemon's final `STATUS` counters.
    status: String,
}

/// A set-up that goes no further: start a daemon on the fresh directory
/// `dir`, wait until it is ready, and drain it with the same teardown
/// checks as a pass. Returns the set-up time.
fn set_up_only(tlpsim: &Path, sim_seed: u64, dir: &Path) -> Result<f64, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let daemon = Daemon::spawn(tlpsim, sim_seed, dir)?;
    daemon.wait_ready()?;
    let setup_s = t0.elapsed().as_secs_f64();
    daemon.drain()?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(setup_s)
}

/// One pass: fresh directory, [`SETUPS_PER_PASS`] daemon set-ups (spawn
/// and readiness), then on the last one fresh job, `DUPLICATES`
/// duplicate jobs, counter checks, drain.
fn run_pass(
    tlpsim: &Path,
    sim_seed: u64,
    refs: &Refs,
    dir: &Path,
    rng: &mut SplitMix64,
    rec: Option<&Recorder>,
    status_probes: usize,
) -> Result<Pass, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let span = |name: &'static str, id: &str| rec.map(|r| r.begin(name, None, id));
    let close = |s: Option<usize>| {
        if let (Some(r), Some(s)) = (rec, s) {
            r.end(s)
        }
    };

    let mut setups_s = (1..SETUPS_PER_PASS)
        .map(|k| set_up_only(tlpsim, sim_seed, &dir.join(format!("setup-{k}"))))
        .collect::<Result<Vec<f64>, String>>()?;
    let t0 = Instant::now();
    let s = span("daemon spawn", "daemon");
    let daemon = Daemon::spawn(tlpsim, sim_seed, dir)?;
    close(s);
    let s = span("daemon ready", "daemon");
    let ready = daemon.wait_ready();
    close(s);
    ready?;
    setups_s.push(t0.elapsed().as_secs_f64());

    let spec = spec(sim_seed);
    let mut opts = ClientOptions::new(&daemon.addr, &spec);
    let (mut attempted, mut failed) = (0, 0);
    let mut submit = |token: String, name: &'static str| -> f64 {
        opts.token = token;
        let s = span(name, &opts.token);
        let t = Instant::now();
        let got = client::submit(&spec, &opts, true);
        let dt = t.elapsed().as_secs_f64();
        close(s);
        attempted += 1;
        match got {
            Ok(cells) if cells == refs.served => {}
            Ok(_) => {
                eprintln!(
                    "perfbench: job {} returned a table that differs from its reference",
                    opts.token
                );
                failed += 1;
            }
            Err(e) => {
                eprintln!("perfbench: job {} failed: {e}", opts.token);
                failed += 1;
            }
        }
        dt
    };
    let job_s = submit(
        format!("fresh-{:016x}", rng.next_u64()),
        "client::submit (fresh)",
    );
    let hits_ms: Vec<f64> = (0..DUPLICATES)
        .map(|_| {
            submit(
                format!("dup-{:016x}", rng.next_u64()),
                "client::submit (duplicate)",
            ) * 1e3
        })
        .collect();

    let mut status_ms = Vec::with_capacity(status_probes);
    let mut status = String::new();
    for _ in 0..status_probes.max(1) {
        let s = span("client::status", "status");
        let t = Instant::now();
        let got = client::status(&daemon.addr, IO_TIMEOUT);
        status_ms.push(t.elapsed().as_secs_f64() * 1e3);
        close(s);
        status = got.map_err(|e| e.to_string())?;
    }
    let rss_mib = daemon.peak_rss_mib();

    // Compute-once: the fresh job simulates the sweep's cells, every
    // duplicate is answered from the shared cache, nothing is shed,
    // retried into quarantine or failed.
    let n = |k: &str| json_number(&status, k).unwrap_or(-1.0);
    let cells = SWEEP_COUNTS.len() as f64;
    let expect = [
        ("daemon.cells.completed", cells),
        ("daemon.cells.deduped", cells * DUPLICATES as f64),
        ("daemon.cells.quarantined", 0.0),
        ("daemon.jobs.shed", 0.0),
        ("daemon.jobs.failed", 0.0),
    ];
    let mut broken: Vec<String> = expect
        .iter()
        .filter(|(k, v)| n(k) != *v)
        .map(|(k, v)| format!("{k} = {} (expected {v})", n(k)))
        .collect();
    let s = span("daemon drain", "daemon");
    if let Err(e) = daemon.drain() {
        broken.push(e);
    }
    close(s);
    if !broken.is_empty() {
        eprintln!("perfbench: served pass broken: {}", broken.join("; "));
        failed = attempted;
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(Pass {
        setups_s,
        job_s,
        hits_ms,
        status_ms,
        rss_mib,
        attempted,
        failed,
        status,
    })
}

/// Untraced passes while the next one still fits in `seconds` (at
/// least one). Set-up time is the median of every set-up, job time and
/// peak memory medians over passes; hit latency percentiles pool every
/// duplicate.
pub fn measure(
    tlpsim: &Path,
    sim_seed: u64,
    seed: u64,
    seconds: f64,
    refs: &Refs,
    dir: &Path,
) -> Outcome {
    let mut rng = SplitMix64::new(seed);
    let (passes, failure) = repeat_passes(seconds, |_| {
        run_pass(tlpsim, sim_seed, refs, dir, &mut rng, None, 1)
    });
    let col = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let hits: Vec<f64> = passes.iter().flat_map(|p| p.hits_ms.clone()).collect();
    let setups: Vec<f64> = passes.iter().flat_map(|p| p.setups_s.clone()).collect();
    let mut m = Metrics::default();
    m.push("setup_s", median(&setups), "s");
    m.push("wall_s", median(&col(|p| p.job_s)), "s");
    m.push("peak_rss_mb", median(&col(|p| p.rss_mib)), "MiB");
    m.push("hit_p50_ms", quantile(&hits, 0.5), "ms");
    m.push("hit_p90_ms", quantile(&hits, 0.9), "ms");
    // Exact path: every table matched its reference bit for bit, or
    // the job counted as failed.
    m.push("stp_ratio_max", 1.0, "ratio");
    m.push("antt_ratio_max", 1.0, "ratio");
    println!(
        "perfbench: {} pass(es); job_s {:?}; setup_s {:?}",
        passes.len(),
        col(|p| p.job_s),
        setups
    );
    let mut out = Outcome {
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics: m,
        ..Outcome::default()
    };
    if let Some(e) = failure {
        eprintln!("perfbench: served pass failed: {e}");
        out.attempted += 1 + DUPLICATES;
        out.failed += 1 + DUPLICATES;
    }
    out
}

/// One untraced pass, then one traced pass with spans around daemon
/// spawn and readiness, every submission and every status probe; then
/// the same cells computed in process for the compute share.
pub fn traced(tlpsim: &Path, sim_seed: u64, seed: u64, refs: &Refs, dir: &Path) -> Outcome {
    let mut rng = SplitMix64::new(seed);
    let rec = Recorder::default();
    let fail = |e: String| {
        eprintln!("perfbench: served traced run failed: {e}");
        Outcome {
            attempted: 1,
            failed: 1,
            ..Outcome::default()
        }
    };
    let base = match run_pass(tlpsim, sim_seed, refs, dir, &mut rng, None, 1) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let p = match run_pass(
        tlpsim,
        sim_seed,
        refs,
        dir,
        &mut rng,
        Some(&rec),
        STATUS_PROBES,
    ) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let t = Instant::now();
    let local = in_process_sweep(sim_seed);
    let compute_s = t.elapsed().as_secs_f64();
    let mut failed = base.failed + p.failed;
    if local.as_ref() != Ok(&refs.served) {
        eprintln!("perfbench: in-process tiny sweep differs from its reference");
        failed += 1;
    }
    let sp = rec.snapshot();
    let mut m = Metrics::default();
    m.push("trace.overhead", p.job_s / base.job_s, "ratio");
    m.push(
        "daemon.ready_s",
        spans::total_s(&sp, "daemon spawn") + spans::total_s(&sp, "daemon ready"),
        "s",
    );
    m.push("client.status_ms", median(&p.status_ms), "ms");
    m.push("daemon.compute_frac", compute_s / p.job_s, "fraction");
    for name in [
        "daemon.cells.completed",
        "daemon.cells.deduped",
        "daemon.cells.retried",
        "daemon.frames.rejected",
        "daemon.workers.respawns",
        "daemon.jobs.shed",
    ] {
        m.push(name, json_number(&p.status, name).unwrap_or(0.0), "count");
    }
    Outcome {
        attempted: base.attempted + p.attempted + 1,
        failed,
        metrics: m,
        spans: sp,
    }
}
