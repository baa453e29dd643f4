//! `tlpsim` command-line interface.
//!
//! ```text
//! tlpsim list                          # benchmarks, apps and designs
//! tlpsim run 4B 8 --no-smt             # 8-thread mix on the 4B design
//! tlpsim run 2B10s 12 --bench mcf_like # homogeneous 12-copy workload
//! tlpsim app 4B blackscholes_like 8    # a multi-threaded app run
//! ```
//!
//! Exit codes (stable; scripts may rely on them):
//!
//! | code | meaning                                           |
//! |------|---------------------------------------------------|
//! | 0    | success                                           |
//! | 2    | usage error (bad flags/arguments/environment)     |
//! | 3    | unknown design, benchmark or application name     |
//! | 4    | simulation failed (stall, invalid configuration)  |
//! | 130  | interrupted (SIGINT/SIGTERM); resumable           |

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use tlpsim::core::client::{self, ClientOptions};
use tlpsim::core::configs::{self, Design};
use tlpsim::core::ctx::{Cell, Ctx, WorkloadKind};
use tlpsim::core::daemon::{self, DaemonOptions};
use tlpsim::core::journal::{ckpt_dir_for, Journal, SweepSpec};
use tlpsim::core::mode::SimMode;
use tlpsim::core::serve::{serve_sweep, ServeOptions};
use tlpsim::core::settings::Settings;
use tlpsim::core::{executor, interrupt, worker, SimError, SimScale, SWEEP_COUNTS};
use tlpsim::trace::{write_chrome_trace, CpiComponent, Tracer};
use tlpsim::uarch::{MultiCore, ThreadProgram};
use tlpsim::workloads::{parsec, spec, InstrStream};

/// Usage error: bad syntax, missing arguments.
const EXIT_USAGE: i32 = 2;
/// Unknown design/benchmark/application name.
const EXIT_UNKNOWN_NAME: i32 = 3;
/// The simulation itself failed (watchdog stall, invalid config, ...).
const EXIT_SIM_FAILED: i32 = 4;
/// Cut short by SIGINT/SIGTERM after checkpointing; `tlpsim resume`
/// picks the work back up (128 + SIGINT, the shell convention).
const EXIT_INTERRUPTED: i32 = 130;

const HELP: &str = "\
tlpsim — multi-core SMT design-space simulator (ASPLOS 2014 reproduction)

USAGE:
  tlpsim list
      Print the known designs, SPEC-like benchmarks and PARSEC-like apps.

  tlpsim run <design> <threads> [--no-smt] [--bench <name>] [--bus16]
             [--sampled]
      Simulate a multi-program workload on <design> with <threads>
      threads. Default is the 12 heterogeneous mixes; --bench <name>
      runs <threads> copies of one benchmark instead. --bus16 doubles
      the memory bus to 16 GB/s (default 8 GB/s). --sampled switches
      to interval-model sampled simulation (see TLPSIM_SAMPLE).

  tlpsim app <design> <app> <threads> [--no-smt]
      Run one PARSEC-like multi-threaded application.

  tlpsim trace [<design> [<threads>]] [--no-smt]
      Run one instrumented multi-program mix (default: 4B, 8 threads)
      with CPI-stack accounting and structural event tracing, print
      the per-context CPI stacks, and write a Chrome trace-event JSON
      (load it at chrome://tracing or https://ui.perfetto.dev). The
      output path and ring capacity come from TLPSIM_TRACE (default
      tlpsim-trace.json).

  tlpsim sweep <design> [--no-smt] [--bus16] [--sampled]
               [--journal <path>]
      Evaluate <design> at every thread count (1..24) over the 12
      heterogeneous mixes and print an STP/ANTT/power table. Every
      completed cell is durably journaled (default
      tlpsim-sweep.journal) before it counts, so a crash or Ctrl-C
      loses at most the in-flight cells; an existing journal at the
      path is overwritten.

  tlpsim serve <design> [--no-smt] [--bus16] [--sampled] [--workers <N>]
               [--journal <path>] [--pid-file <path>]
      Run the same sweep as `tlpsim sweep`, but supervised: cells are
      fanned out to <N> worker OS processes (default 2) that connect
      back over loopback TCP, so a crashed, killed or wedged worker is
      respawned and its cell retried (with exponential backoff) instead
      of taking the sweep down. A cell that fails 3 attempts is
      quarantined and the sweep completes degraded (exit 4). The
      supervisor owns the journal; workers compute through a scratch
      cache, <journal>.cells, deleted when serve returns. The printed
      table is byte-identical to `tlpsim sweep`. SIGINT/SIGTERM drains
      gracefully: in-flight cells checkpoint into <journal>.ckpt.d
      (with TLPSIM_CKPT_CYCLES set), workers exit 0, and a resume hint
      is printed. --pid-file appends each spawned worker PID, one per
      line.

  tlpsim serve --daemon <addr> [--workers <N>] [--queue <path>]
               [--cache <path>] [--pid-file <path>] [--addr-file <path>]
      Run the sweep service as a long-lived daemon (DESIGN.md §16):
      listen on <addr> (host:port; port 0 picks an ephemeral port,
      written to --addr-file), accept jobs from any number of
      `tlpsim submit` clients, and fan cells out to <N> supervised
      TCP worker processes (default 2). Jobs are durably queued
      (--queue, default tlpsim-daemon.queue; fsync'd before the
      client sees ACCEPTED) and results computed through a shared
      disk cache (--cache, default tlpsim-daemon.cells), so a
      SIGKILLed daemon restarts with zero lost jobs and zero
      recomputed cells, and identical sweeps from different clients
      compute once. SIGINT/SIGTERM drains gracefully (exit 130);
      open jobs persist in the queue and resume on restart.

  tlpsim submit <design> [--no-smt] [--bus16] [--sampled]
                --addr <addr> [--token <t>] [--no-wait]
      Submit a sweep to a daemon and stream its results; the printed
      table is byte-identical to `tlpsim sweep`. Reconnects through
      daemon restarts with capped exponential backoff. --token names
      the job for idempotent resubmission/reattach (default: derived
      from the sweep spec, so identical sweeps share one job);
      --no-wait detaches once the job is durably accepted. Exit 4
      with a typed 'overloaded' error when admission control sheds
      the job.

  tlpsim status --addr <addr>
      Print the daemon's counter snapshot as one JSON object.

  tlpsim cancel <token> --addr <addr>
      Cancel the daemon job holding <token>.

  tlpsim resume [<journal>]
      Continue an interrupted sweep from its journal: replay the
      completed cells (repairing a torn tail from a crash mid-write),
      simulate only the missing ones, and print the same table a
      never-interrupted sweep would have printed.

  tlpsim help | --help | -h
      Show this message.

ENVIRONMENT:
  Every TLPSIM_* variable follows one rule: surrounding whitespace is
  ignored and an empty value means unset; a malformed value, or a
  TLPSIM_* name that tlpsim does not know, is a usage error (exit 2)
  before any work starts. TLPSIM_SCALE (the bench targets' scale,
  quick or standard), TLPSIM_PHASE_PROF and TLPSIM_PRINT_GOLDEN (for
  profiling and tests) are known names that tlpsim itself does not use.

  TLPSIM_CACHE   Path to the on-disk result cache. Unset: in-memory
                 only. A corrupt or torn cache file is detected
                 (checksummed records) and repaired in place; see
                 README 'Troubleshooting'.
  TLPSIM_TRACE   <path>[:<cap>] — where `tlpsim trace` writes the
                 Chrome trace JSON, and optionally the event-ring
                 capacity (default 65536 events; the ring keeps the
                 newest events once full).
  TLPSIM_THREADS Host worker threads for sweeps (default: all cores).
                 A positive integer.
  TLPSIM_CKPT_CYCLES
                 Checkpoint cadence in simulated cycles for sweep
                 cells. When set, each in-flight cell saves its full
                 engine state that often (atomic, checksummed files
                 next to the journal) and an interrupted or killed
                 sweep resumes mid-cell, bit-identical to an
                 uninterrupted run. Unset: cells restart from scratch
                 on resume. A positive integer.
  TLPSIM_SAMPLE  Turn on interval-model sampled simulation (like
                 --sampled) and/or tune its knobs, as a comma-separated
                 'window:N,stride:N,tol:F' spec — detailed measurement
                 window in cycles (default 2048), maximum analytic
                 stride in cycles (default 65536), and steady-state
                 tolerance as a fraction (default 0.02). Each key is
                 optional; unknown keys, duplicates or out-of-range
                 values are a usage error. Sampled runs carry a
                 measured <=2% CPI error bound (see DESIGN.md section
                 15) and are keyed separately from exact results in
                 every cache and journal. Isolated profiling and PARSEC
                 app runs always stay exact.
  TLPSIM_EXACT   Set to 1 to force exact (fully detailed) simulation,
                 overriding --sampled and TLPSIM_SAMPLE — the escape
                 hatch for bit-identical reproduction runs. 0 is a
                 no-op; anything else is a usage error.
  TLPSIM_WATCHDOG_CYCLES
                 Override the stall watchdog window (simulated cycles,
                 default 3000000). A run that commits nothing for this
                 long aborts with a diagnostic snapshot. A positive
                 integer.
  TLPSIM_NO_SKIP Set to anything but 0 to force the dense stepper
                 instead of event-driven cycle skipping, for
                 bisecting an engine anomaly; results are
                 bit-identical either way.
  TLPSIM_FAULT   Deterministic fault injection for the worker processes
                 of `serve` and `serve --daemon`, e.g.
                 'crash:0.1,stall:0.05,torn-write:0.02,seed:7'. Faults
                 fire at worker cell boundaries, SplitMix64-seeded per
                 (cell, attempt), and are suppressed on a cell's final
                 attempt unless 'persist' is given — so injected
                 faults are transient and a chaos run still completes
                 with zero quarantined cells. 'torn-write:P' computes
                 the cell, sends half its DONE frame and exits 102;
                 the checksum rejects the fragment, which counts as a
                 rejected frame. Four network fault classes exercise
                 the framing layer the same way: 'conn-drop:P' (worker
                 drops the TCP connection after computing, before
                 sending — the result is already in the shared cache,
                 so the retry is a cache hit, never a recompute),
                 'partial-frame:P' (like torn-write, but exit 105 and
                 drawn from the network stream), 'hb-loss:P' (worker
                 goes silent without dying — heartbeat supervision
                 kills it), and 'slow-peer:P' (the DONE frame trickles
                 out a few bytes at a time — deadlines tolerate it,
                 the accept loop never blocks).
  TLPSIM_SERVE_SCALE
                 The simulation scale a daemon serves and a submit
                 client requests, as 'warmup,budget,parsec,seed'
                 (positive integers; default 3000,8000,12000,42).
                 Scale is cache identity: daemon and clients must
                 agree, and a daemon rejects jobs at any other scale.
  TLPSIM_SERVE_QUEUE_DEPTH
                 Open jobs the daemon admits before shedding new
                 submissions with a typed 'overloaded' error
                 (default 16). Positive integer.
  TLPSIM_SERVE_HB_MS / TLPSIM_SERVE_HB_TIMEOUT_MS
                 Worker heartbeat cadence (default 500) and the
                 silence after which a worker is presumed wedged and
                 killed (default 5000). Positive milliseconds.
  TLPSIM_SERVE_RETRY_MS
                 First retry backoff (default 250); attempt k waits
                 2^k × this, plus deterministic jitter.

EXIT CODES:
  0    success
  2    usage error (bad flags, arguments or environment variables)
  3    unknown design, benchmark or application name
  4    simulation failed (stalled run, invalid configuration)
  130  interrupted by SIGINT/SIGTERM; journal/checkpoints are ready
       for `tlpsim resume`
";

fn usage() -> ! {
    eprintln!(
        "usage:\n  tlpsim list\n  tlpsim run <design> <threads> [--no-smt] [--bench <name>] [--bus16] [--sampled]\n  tlpsim app <design> <app> <threads> [--no-smt]\n  tlpsim trace [<design> [<threads>]] [--no-smt]\n  tlpsim sweep <design> [--no-smt] [--bus16] [--sampled] [--journal <path>]\n  tlpsim serve <design> [--no-smt] [--bus16] [--sampled] [--workers <N>] [--journal <path>] [--pid-file <path>]\n  tlpsim serve --daemon <addr> [--workers <N>] [--queue <path>] [--cache <path>] [--pid-file <path>] [--addr-file <path>]\n  tlpsim submit <design> [--no-smt] [--bus16] [--sampled] --addr <addr> [--token <t>] [--no-wait]\n  tlpsim status --addr <addr>\n  tlpsim cancel <token> --addr <addr>\n  tlpsim resume [<journal>]\n  tlpsim --help"
    );
    std::process::exit(EXIT_USAGE);
}

/// Report a simulation failure and exit with the dedicated code.
fn sim_failed(what: &str, e: SimError) -> ! {
    eprintln!("tlpsim: {what} failed: {e}");
    std::process::exit(EXIT_SIM_FAILED);
}

/// Build a context at `scale` simulating under `sim_mode`: in-memory,
/// or disk-backed when `TLPSIM_CACHE` is set, with the watchdog window
/// of `TLPSIM_WATCHDOG_CYCLES`.
fn make_ctx(settings: &Settings, scale: SimScale, sim_mode: SimMode) -> Ctx {
    match &settings.cache {
        Some(path) => Ctx::with_disk_cache(scale, path),
        None => Ctx::new(scale),
    }
    .with_mode(sim_mode)
    .with_watchdog(settings.watchdog_cycles)
}

/// Whether the boolean flag `flag` is present.
fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The value following `flag`, or `None` when the flag is absent;
/// a flag present without a value is a usage error.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| usage()))
}

/// The design called `name`; an unknown name exits 3.
fn design_named(name: &str) -> Design {
    configs::by_name(name).unwrap_or_else(|| {
        eprintln!("unknown design {name}");
        std::process::exit(EXIT_UNKNOWN_NAME)
    })
}

/// The sweep that `sweep`, `serve` and `submit` run at `scale`: the
/// design named by `args[1]` over the heterogeneous mixes, with
/// `--no-smt`, `--bus16` and `--sampled`.
fn sweep_spec(args: &[String], settings: &Settings, scale: SimScale) -> SweepSpec {
    if args.len() < 2 || args[1].starts_with("--") {
        usage();
    }
    SweepSpec {
        design: design_named(&args[1]).name,
        kind: WorkloadKind::Heterogeneous,
        smt: !has_flag(args, "--no-smt"),
        bus_dgbps: if has_flag(args, "--bus16") { 160 } else { 80 },
        scale,
        mode: settings.mode(has_flag(args, "--sampled")),
    }
}

/// The supervision policy of `serve` and `serve --daemon`: this
/// binary's hidden worker host, `--workers` (default 2) and
/// `--pid-file`, and the heartbeat and retry knobs of `settings`.
fn serve_options(args: &[String], settings: &Settings) -> ServeOptions {
    let workers = flag_value(args, "--workers").map_or(2, |v| {
        v.parse::<usize>()
            .ok()
            .filter(|&w| w > 0)
            .unwrap_or_else(|| {
                eprintln!("tlpsim: --workers {v:?} is not a positive count");
                std::process::exit(EXIT_USAGE)
            })
    });
    let pid_file = flag_value(args, "--pid-file").map(PathBuf::from);
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("tlpsim: cannot locate own binary for worker spawn: {e}");
        std::process::exit(EXIT_SIM_FAILED)
    });
    ServeOptions {
        workers,
        worker_cmd: vec![exe.display().to_string(), "__serve-worker".to_string()],
        hb_interval: settings.hb_interval,
        hb_timeout: settings.hb_timeout,
        retry_base: settings.retry_base,
        pid_file,
        ..ServeOptions::default()
    }
}

/// Print the sweep result table. Shared by `sweep`, `resume`, `serve`
/// and `submit`: the table is a pure function of the completed cells,
/// so a resumed, served or chaos-ridden sweep prints byte-identically
/// to a clean single-process one.
fn print_table(spec: &SweepSpec, cells: &BTreeMap<usize, Cell>) {
    let bus_gbps = f64::from(spec.bus_dgbps) / 10.0;
    println!(
        "sweep {} heterogeneous SMT={} bus={bus_gbps} GB/s",
        spec.design, spec.smt
    );
    println!("{:>4} {:>10} {:>10} {:>10}", "n", "STP", "ANTT", "power_W");
    for (n, cell) in cells {
        println!(
            "{n:>4} {:>10.4} {:>10.4} {:>10.2}",
            cell.mean_stp(),
            cell.mean_antt(),
            cell.mean_power()
        );
    }
}

/// Drive a sweep to completion (fresh or resumed): simulate every
/// thread count not already in `done`, journaling each completed cell
/// before it counts, and print the result table. Never returns — the
/// exit code is the whole story (0, 4, or 130).
fn run_sweep(
    settings: &Settings,
    journal: Journal,
    done: BTreeMap<usize, Cell>,
    journal_path: &Path,
) -> ! {
    let spec = journal.spec().clone();
    let Some(design) = configs::by_name(&spec.design) else {
        // Only reachable on resume: create validated the name already.
        eprintln!("tlpsim: journal names unknown design {}", spec.design);
        std::process::exit(EXIT_UNKNOWN_NAME);
    };
    let bus_gbps = f64::from(spec.bus_dgbps) / 10.0;
    let remaining: Vec<usize> = SWEEP_COUNTS
        .iter()
        .copied()
        .filter(|n| !done.contains_key(n))
        .collect();
    eprintln!(
        "tlpsim: sweep {} (SMT={}, {bus_gbps} GB/s): {} cell(s) journaled, {} to simulate",
        spec.design,
        spec.smt,
        done.len(),
        remaining.len()
    );

    interrupt::install_handlers();
    let mut ctx = make_ctx(settings, spec.scale, spec.mode);
    if let Some(every) = settings.ckpt_cycles {
        ctx = ctx.with_checkpoints(ckpt_dir_for(journal_path), every);
    }

    let results = executor::par_map_with(
        &remaining,
        |&n| {
            ctx.mp_cell_bus(&design, n, spec.kind, spec.smt, bus_gbps)
                .map(|c| (*c).clone())
        },
        |i, r| {
            // The write-ahead step: fsync'd into the journal the moment
            // the cell finishes, before anything else sees it.
            if let Ok(cell) = r {
                journal.record(remaining[i], cell);
            }
        },
    );

    let mut merged = done;
    let mut interrupted = false;
    let mut failed = 0usize;
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(cell) => {
                merged.insert(remaining[i], cell);
            }
            Err(SimError::Interrupted) => interrupted = true,
            Err(e) => {
                failed += 1;
                eprintln!("tlpsim: cell n={} failed: {e}", remaining[i]);
            }
        }
    }

    print_table(&spec, &merged);

    if interrupted {
        eprintln!(
            "tlpsim: interrupted; {} of {} cell(s) journaled. Continue with: tlpsim resume {}",
            merged.len(),
            SWEEP_COUNTS.len(),
            journal_path.display()
        );
        std::process::exit(EXIT_INTERRUPTED);
    }
    if failed > 0 {
        eprintln!("tlpsim: sweep finished with {failed} failed cell(s)");
        std::process::exit(EXIT_SIM_FAILED);
    }
    std::process::exit(0);
}

/// Drive a supervised multi-process sweep (DESIGN.md §13). Same journal
/// discipline and same stdout table as [`run_sweep`], but cells run in
/// worker OS processes under the full robustness policy (heartbeats,
/// timeouts, retry/backoff, quarantine, graceful drain; in-flight cells
/// checkpoint into the journal's checkpoint directory). Never returns.
fn serve_run(journal: Journal, journal_path: &Path, opts: ServeOptions) -> ! {
    let spec = journal.spec().clone();
    // Serve always starts a fresh journal; `resume` continues in-process.
    eprintln!(
        "tlpsim: sweep {} (SMT={}, {} GB/s): 0 cell(s) journaled, {} to simulate",
        spec.design,
        spec.smt,
        f64::from(spec.bus_dgbps) / 10.0,
        SWEEP_COUNTS.len()
    );

    interrupt::install_handlers();
    eprintln!(
        "tlpsim: serve: {} worker(s)",
        opts.workers.max(1).min(SWEEP_COUNTS.len())
    );

    let outcome =
        serve_sweep(&journal, BTreeMap::new(), &opts).unwrap_or_else(|e| sim_failed("serve", e));

    print_table(&spec, &outcome.cells);

    let s = &outcome.stats;
    eprintln!(
        "tlpsim: serve: {} dispatched, {} retried, {} respawned ({} hb kills, {} timeouts, {} deaths), {} frame(s) rejected",
        s.dispatched, s.retries, s.respawns, s.hb_kills, s.timeout_kills, s.worker_deaths, s.rejected_frames
    );
    for e in outcome.quarantined.values() {
        eprintln!("tlpsim: {e}");
    }
    if outcome.interrupted {
        eprintln!(
            "tlpsim: interrupted; {} of {} cell(s) journaled. Continue with: tlpsim resume {}",
            outcome.cells.len(),
            SWEEP_COUNTS.len(),
            journal_path.display()
        );
        std::process::exit(EXIT_INTERRUPTED);
    }
    if !outcome.quarantined.is_empty() {
        eprintln!(
            "tlpsim: serve finished degraded: {} quarantined cell(s)",
            outcome.quarantined.len()
        );
        std::process::exit(EXIT_SIM_FAILED);
    }
    std::process::exit(0);
}

/// `tlpsim serve --daemon <addr> ...` — run the long-lived sweep
/// daemon (DESIGN.md §16). Never returns: the daemon runs until a
/// graceful drain (exit 130, queue persists) or a startup error.
fn daemon_serve(args: &[String], settings: &Settings) -> ! {
    let addr = flag_value(args, "--daemon").unwrap_or_else(|| usage());
    if addr.starts_with("--") {
        usage();
    }
    let mut opts = DaemonOptions {
        scale: settings.serve_scale,
        queue_depth: settings.queue_depth,
        addr_file: flag_value(args, "--addr-file").map(PathBuf::from),
        ..DaemonOptions::new(addr, serve_options(args, settings))
    };
    if let Some(p) = flag_value(args, "--queue") {
        opts.queue_path = PathBuf::from(p);
    }
    if let Some(p) = flag_value(args, "--cache") {
        opts.cache_path = PathBuf::from(p);
    }
    interrupt::install_handlers();

    let outcome = daemon::run_daemon(&opts).unwrap_or_else(|e| sim_failed("daemon", e));
    let s = &outcome.stats;
    eprintln!(
        "tlpsim: daemon: {} job(s) submitted ({} completed, {} failed, {} cancelled, {} shed), \
         {} cell(s) completed ({} deduped, {} retried, {} quarantined), \
         {} worker respawn(s), {} frame(s) rejected",
        s.jobs_submitted,
        s.jobs_completed,
        s.jobs_failed,
        s.jobs_cancelled,
        s.jobs_shed,
        s.cells_completed,
        s.cells_deduped,
        s.retries,
        s.quarantined,
        s.respawns,
        s.rejected_frames
    );
    if outcome.interrupted {
        eprintln!(
            "tlpsim: daemon drained; {} open job(s) persist. Continue with: tlpsim serve --daemon <addr> --queue {} --cache {}",
            outcome.open_jobs,
            opts.queue_path.display(),
            opts.cache_path.display()
        );
        std::process::exit(EXIT_INTERRUPTED);
    }
    std::process::exit(0);
}

/// Restore default SIGPIPE behaviour so `tlpsim list | head` exits
/// quietly instead of panicking on a broken-pipe write (Rust sets the
/// signal to ignored before `main`).
#[cfg(unix)]
fn reset_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn reset_sigpipe() {}

fn main() {
    reset_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every TLPSIM_* variable is checked once, before any command runs
    // (the worker host's too): a malformed value or an unknown name is
    // a usage error, never a silent fall-back that leaves a sweep
    // running with settings the user did not ask for.
    let settings = Settings::load().unwrap_or_else(|e| {
        eprintln!("tlpsim: {e}");
        std::process::exit(EXIT_USAGE)
    });
    // Hidden worker host entry point, spawned by `tlpsim serve` (with
    // and without --daemon):
    // `tlpsim __serve-worker --tcp <addr> <cache> [<ckpt-dir>]`.
    if args.first().is_some_and(|a| a == "__serve-worker") {
        if args.get(1).map(String::as_str) != Some("--tcp") || !(4..=5).contains(&args.len()) {
            usage();
        }
        std::process::exit(worker::worker_tcp_main(
            &settings,
            &args[2],
            &args[3],
            args.get(4).map(String::as_str),
        ));
    }
    match args.first().map(String::as_str) {
        Some("help") | Some("--help") | Some("-h") => {
            print!("{HELP}");
        }
        Some("list") => {
            println!("designs:");
            for d in configs::nine_designs()
                .iter()
                .chain(&configs::alt_designs())
            {
                println!(
                    "  {:>7}: {}B {}m {}s, {} contexts @ {} GHz",
                    d.name,
                    d.big,
                    d.medium,
                    d.small,
                    d.contexts(),
                    d.freq_ghz
                );
            }
            println!("benchmarks (SPEC-like):");
            for n in spec::names() {
                println!("  {n}");
            }
            println!("applications (PARSEC-like):");
            for a in parsec::all() {
                println!("  {}", a.name);
            }
        }
        Some("run") => {
            if args.len() < 3 {
                usage();
            }
            let design = design_named(&args[1]);
            let n: usize = args[2].parse().unwrap_or_else(|_| usage());
            let smt = !has_flag(&args, "--no-smt");
            let bus = if has_flag(&args, "--bus16") {
                16.0
            } else {
                8.0
            };
            let bench = flag_value(&args, "--bench");

            let sim_mode = settings.mode(has_flag(&args, "--sampled"));
            let ctx = make_ctx(&settings, SimScale::quick(), sim_mode);
            match bench {
                None => {
                    let cell = ctx
                        .mp_cell_bus(&design, n, WorkloadKind::Heterogeneous, smt, bus)
                        .unwrap_or_else(|e| sim_failed("run", e));
                    println!(
                        "{} @ {n} threads (SMT={smt}, {bus} GB/s), heterogeneous mixes:",
                        design.name
                    );
                    println!(
                        "  STP  = {:.3} (harmonic mean of 12 mixes)",
                        cell.mean_stp()
                    );
                    println!("  ANTT = {:.3}", cell.mean_antt());
                    println!("  power= {:.1} W (idle cores gated)", cell.mean_power());
                }
                Some(bname) => {
                    let Some(b) = spec::names().iter().position(|x| *x == bname) else {
                        eprintln!("unknown benchmark {bname}");
                        std::process::exit(EXIT_UNKNOWN_NAME)
                    };
                    let cell = ctx
                        .mp_cell_bus(&design, n, WorkloadKind::Homogeneous, smt, bus)
                        .unwrap_or_else(|e| sim_failed("run", e));
                    println!(
                        "{} @ {n} copies of {bname} (SMT={smt}, {bus} GB/s):\n  STP  = {:.3}\n  ANTT = {:.3}\n  power= {:.1} W",
                        design.name, cell.stp[b], cell.antt[b], cell.power_w[b]
                    );
                }
            }
        }
        Some("trace") => {
            let positional: Vec<&String> =
                args[1..].iter().filter(|a| !a.starts_with("--")).collect();
            let design = design_named(positional.first().map_or("4B", |name| name.as_str()));
            let n: usize = match positional.get(1) {
                Some(v) => v.parse().unwrap_or_else(|_| usage()),
                None => 8,
            };
            let smt = !has_flag(&args, "--no-smt");
            let cfg = &settings.trace;

            let scale = SimScale::quick();
            let chip = design.chip(smt, 8.0);
            let profiles = spec::all();
            let mut sim = MultiCore::with_sink(&chip, Tracer::new(cfg.cap));
            let n_cores = chip.cores.len();
            for i in 0..n {
                let t = sim.add_thread(ThreadProgram::multiprogram_with_warmup(
                    InstrStream::new(&profiles[i % profiles.len()], i as u64, scale.seed),
                    scale.warmup,
                    scale.budget,
                ));
                let core = i % n_cores;
                let slot = (i / n_cores) % chip.cores[core].smt_contexts.max(1) as usize;
                sim.pin(t, core, slot);
            }
            sim.prewarm();
            let r = sim
                .run()
                .map_err(SimError::from)
                .unwrap_or_else(|e| sim_failed("trace", e));
            let tracer = sim.into_sink();

            println!(
                "{} @ {n} threads (SMT={smt}): {} cycles, CPI stacks per context:",
                design.name, r.cycles
            );
            for ((core, slot), comps) in tracer.stacks.iter() {
                let total: u64 = comps.iter().sum();
                let idle = comps[CpiComponent::Idle.index()];
                if total == idle {
                    continue; // never-populated context
                }
                print!("  core{core}.ctx{slot}:");
                for c in CpiComponent::ALL {
                    let pct = 100.0 * comps[c.index()] as f64 / total.max(1) as f64;
                    if pct >= 0.05 {
                        print!(" {}:{pct:.1}%", c.name());
                    }
                }
                println!();
            }
            println!(
                "events: {} recorded, {} dropped (ring capacity {})",
                tracer.ring.total_recorded(),
                tracer.ring.dropped(),
                tracer.ring.capacity()
            );
            if let Err(e) = write_chrome_trace(&cfg.path, &tracer.ring) {
                eprintln!("tlpsim: cannot write trace to {}: {e}", cfg.path);
                std::process::exit(EXIT_SIM_FAILED);
            }
            println!(
                "chrome trace written to {} (load at chrome://tracing or ui.perfetto.dev)",
                cfg.path
            );
        }
        Some("sweep") => {
            let spec = sweep_spec(&args, &settings, SimScale::quick());
            let jpath =
                flag_value(&args, "--journal").unwrap_or_else(|| "tlpsim-sweep.journal".into());
            let journal = Journal::create(Path::new(&jpath), spec).unwrap_or_else(|e| {
                eprintln!("tlpsim: {e}");
                std::process::exit(EXIT_SIM_FAILED)
            });
            run_sweep(&settings, journal, BTreeMap::new(), Path::new(&jpath));
        }
        Some("serve") => {
            if has_flag(&args, "--daemon") {
                daemon_serve(&args, &settings);
            }
            let spec = sweep_spec(&args, &settings, SimScale::quick());
            let jpath =
                flag_value(&args, "--journal").unwrap_or_else(|| "tlpsim-sweep.journal".into());
            let opts = serve_options(&args, &settings);
            let journal = Journal::create(Path::new(&jpath), spec).unwrap_or_else(|e| {
                eprintln!("tlpsim: {e}");
                std::process::exit(EXIT_SIM_FAILED)
            });
            serve_run(journal, Path::new(&jpath), opts);
        }
        Some("submit") => {
            let spec = sweep_spec(&args, &settings, settings.serve_scale);
            let addr = flag_value(&args, "--addr").unwrap_or_else(|| usage());
            let wait = !has_flag(&args, "--no-wait");
            let mut copts = ClientOptions::new(&addr, &spec);
            if let Some(t) = flag_value(&args, "--token") {
                copts.token = t;
            }
            interrupt::install_handlers();
            match client::submit(&spec, &copts, wait) {
                Ok(cells) if wait => print_table(&spec, &cells),
                Ok(cells) => {
                    eprintln!(
                        "tlpsim: job accepted ({} cell(s) already cached); reattach with: \
                         tlpsim submit {} --addr {addr} --token {}",
                        cells.len(),
                        spec.design,
                        copts.token
                    );
                }
                Err(SimError::Interrupted) => {
                    eprintln!(
                        "tlpsim: interrupted; the job keeps running server-side. Reattach with: \
                         tlpsim submit {} --addr {addr} --token {}",
                        spec.design, copts.token
                    );
                    std::process::exit(EXIT_INTERRUPTED);
                }
                Err(e) => sim_failed("submit", e),
            }
        }
        Some("status") => {
            let addr = flag_value(&args, "--addr").unwrap_or_else(|| usage());
            let json = client::status(&addr, Duration::from_millis(5_000))
                .unwrap_or_else(|e| sim_failed("status", e));
            println!("{json}");
        }
        Some("cancel") => {
            if args.len() < 2 || args[1].starts_with("--") {
                usage();
            }
            let addr = flag_value(&args, "--addr").unwrap_or_else(|| usage());
            match client::cancel(&addr, &args[1], Duration::from_millis(5_000)) {
                Ok(Some(id)) => println!("cancelled job {id}"),
                Ok(None) => {
                    eprintln!("tlpsim: no job holds token {}", args[1]);
                    std::process::exit(EXIT_SIM_FAILED);
                }
                Err(e) => sim_failed("cancel", e),
            }
        }
        Some("resume") => {
            let jpath = match args.get(1) {
                Some(p) if !p.starts_with("--") => p.clone(),
                Some(_) => usage(),
                None => "tlpsim-sweep.journal".into(),
            };
            let (journal, _spec, done, report) =
                Journal::open(Path::new(&jpath)).unwrap_or_else(|e| {
                    eprintln!("tlpsim: cannot resume: {e}");
                    std::process::exit(EXIT_SIM_FAILED)
                });
            if report.rejected > 0 {
                eprintln!(
                    "tlpsim: journal {jpath}: rejected {} record(s) from a different sweep",
                    report.rejected
                );
            }
            if let Some(at) = report.truncated_at {
                eprintln!(
                    "tlpsim: journal {jpath}: torn tail truncated at byte {at} (crash mid-append); the lost cell will be re-simulated"
                );
            }
            run_sweep(&settings, journal, done, Path::new(&jpath));
        }
        Some("app") => {
            if args.len() < 4 {
                usage();
            }
            let design = design_named(&args[1]);
            let apps = parsec::all();
            let Some(a) = apps.iter().position(|x| x.name == args[2]) else {
                eprintln!("unknown app {}", args[2]);
                std::process::exit(EXIT_UNKNOWN_NAME)
            };
            let n: usize = args[3].parse().unwrap_or_else(|_| usage());
            let smt = !has_flag(&args, "--no-smt");
            // App runs are always exact: segmented/synchronizing
            // threads refuse extrapolation anyway.
            let ctx = make_ctx(&settings, SimScale::quick(), SimMode::Exact);
            let r = ctx
                .parsec_run(&design, a, n, smt, 8.0)
                .unwrap_or_else(|e| sim_failed("app", e));
            println!(
                "{} x{n} on {} (SMT={smt}): ROI {} cycles, whole {} cycles",
                args[2], design.name, r.roi_cycles, r.total_cycles
            );
            let total: u64 = r.histogram.iter().sum();
            if total > 0 {
                let full: u64 = r.histogram.iter().skip(n).sum();
                println!(
                    "  fully-active fraction of ROI: {:.1}%",
                    100.0 * full as f64 / total as f64
                );
            }
        }
        _ => usage(),
    }
}
