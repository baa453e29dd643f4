//! Supervised sweeps (DESIGN.md §13): the policy both serve entry
//! points run, and one-shot `tlpsim serve`.
//!
//! `tlpsim serve` runs a sweep the way `tlpsim sweep` does — same
//! journal, same cells, same stdout table — but fans the cells out to
//! separate worker *OS processes* ([`crate::worker`]) instead of
//! threads, so a segfaulting, OOM-killed or wedged cell is a recovered
//! event, not a dead sweep. [`serve_sweep`] runs the daemon's
//! supervision loop ([`crate::daemon`]) in-process: a listener on
//! `127.0.0.1:0` with no client, job or queue file, and a pool of TCP
//! worker hosts. The supervisor owns everything durable and everything
//! policy:
//!
//! * **journal ownership** — workers never touch the write-ahead
//!   journal; a result is journaled by the supervisor *before* the cell
//!   is counted done, preserving the write-ahead property `tlpsim
//!   resume` relies on. The hosts compute through a scratch result
//!   cache next to it (`<journal>.cells`), so a result frame lost to a
//!   dying host turns its retry into a cache hit;
//! * **bounded in-flight queue** — at most one cell is in flight per
//!   worker; everything else waits in the pending queue (backpressure
//!   is structural, not configured);
//! * **heartbeats** — workers beat every `hb_interval` with a counter
//!   snapshot; a worker silent for `hb_timeout` is presumed wedged,
//!   killed, and respawned;
//! * **wall-clock timeouts** — each dispatched cell gets a deadline
//!   scaled by its thread count (60 s × (n + 1)); a
//!   worker that blows it is killed and the cell retried;
//! * **retry with backoff** — a failed attempt re-queues the cell after
//!   an exponential backoff with deterministic SplitMix64 jitter;
//! * **quarantine** — a cell failing its whole attempt budget (default
//!   3) is quarantined as [`SimError::Quarantined`] and the sweep
//!   completes degraded instead of aborting;
//! * **graceful drain** — on SIGINT/SIGTERM ([`crate::interrupt`]) the
//!   supervisor stops dispatching, SIGTERMs busy workers (whose
//!   in-flight cells checkpoint into `<journal>.ckpt.d` via the §12
//!   machinery), sends idle workers `EXIT`, and returns with
//!   `interrupted = true` so the CLI can print a resume hint.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use tlpsim_workloads::SplitMix64;

use crate::ctx::Cell;
use crate::daemon::{self, DaemonOptions};
use crate::error::SimError;
use crate::journal::{cells_path_for, Journal};
use crate::SWEEP_COUNTS;

/// What `TLPSIM_FAULT` the supervisor arms its workers with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Workers inherit the supervisor's environment verbatim (the CLI
    /// default: a chaos run exports `TLPSIM_FAULT` once).
    Inherit,
    /// Strip `TLPSIM_FAULT` from workers (fault-free reference runs in
    /// tests that must not be perturbed by an exported spec).
    Clear,
    /// Set this exact spec on every worker.
    Spec(String),
}

/// Per-cell wall-clock budget per unit of (n + 1): the deadline of a
/// cell at thread count `n` is `CELL_TIMEOUT_BASE × (n + 1)`.
const CELL_TIMEOUT_BASE: Duration = Duration::from_secs(60);

/// Seed of the deterministic backoff jitter of cell retries and client
/// reconnects.
const BACKOFF_SEED: u64 = 0x71E9_5E12;

/// Supervision policy knobs, shared by one-shot `serve` and the daemon
/// ([`DaemonOptions::serve`]). `Default` gives production values; the
/// CLI overrides the heartbeat and retry knobs from its
/// [`Settings`](crate::settings::Settings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker process count.
    pub workers: usize,
    /// Worker command line prefix; the CLI passes its own binary with
    /// the hidden `__serve-worker` entry point, and the supervisor
    /// appends `--tcp <addr> <cache> [<ckpt-dir>]`.
    pub worker_cmd: Vec<String>,
    /// Heartbeat cadence workers are told to beat at; also the daemon's
    /// client `TICK` cadence.
    pub hb_interval: Duration,
    /// Silence after which a worker is presumed wedged and killed.
    pub hb_timeout: Duration,
    /// First retry backoff; attempt `k` waits `base × 2^k` + jitter.
    pub retry_base: Duration,
    /// Attempts per cell before quarantine (≥ 1).
    pub max_attempts: u32,
    /// What fault spec workers run under.
    pub fault: FaultPolicy,
    /// When set, every spawned worker PID is appended here, one per
    /// line — the chaos harness reads it to pick an external victim.
    pub pid_file: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 2,
            worker_cmd: Vec::new(),
            hb_interval: Duration::from_millis(500),
            hb_timeout: Duration::from_millis(5_000),
            retry_base: Duration::from_millis(250),
            max_attempts: 3,
            fault: FaultPolicy::Inherit,
            pid_file: None,
        }
    }
}

impl ServeOptions {
    /// Backoff before re-dispatching a cell whose zero-based `attempt`
    /// just failed: `retry_base × 2^attempt` plus deterministic jitter
    /// in `[0, retry_base)` drawn from `(n, attempt)`.
    pub fn backoff(&self, n: usize, attempt: u32) -> Duration {
        backoff_for(self.retry_base, n, attempt)
    }
}

/// The wall-clock deadline of a cell at thread count `n`.
pub(crate) fn cell_deadline(n: usize) -> Duration {
    // Cells scale roughly linearly in n (n threads × fixed per-thread
    // budget), so the timeout does too; +1 keeps n=1 from getting a
    // degenerate budget.
    CELL_TIMEOUT_BASE * (n as u32 + 1)
}

/// The shared retry ladder: `retry_base × 2^min(attempt, 6)` plus
/// deterministic SplitMix64 jitter in `[0, retry_base)` drawn from
/// `(n, attempt)`. One implementation serves the supervisor's cell
/// retries and the client's reconnect loop — capped exponential with
/// jitter everywhere, tested once.
pub fn backoff_for(retry_base: Duration, n: usize, attempt: u32) -> Duration {
    let base = retry_base.as_millis() as u64;
    let exp = base.saturating_mul(1u64 << attempt.min(6));
    let mut rng = SplitMix64::new(
        BACKOFF_SEED
            ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    Duration::from_millis(exp + rng.below(base.max(1)))
}

/// Counters of everything the supervision policy did — asserted on by
/// the chaos tests, printed by the CLI's stderr summaries, and (all but
/// the worker exit counts) published by the daemon's `STATUS` through
/// [`snapshot`](Self::snapshot). The job counters stay 0 outside the
/// daemon.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs accepted (QJOB appended).
    pub jobs_submitted: u64,
    /// Jobs that reached `JOBDONE`.
    pub jobs_completed: u64,
    /// Jobs that reached `JOBFAIL`.
    pub jobs_failed: u64,
    /// Jobs cancelled by clients.
    pub jobs_cancelled: u64,
    /// Submissions shed by admission control.
    pub jobs_shed: u64,
    /// Cell tasks that completed with a `DONE` frame.
    pub cells_completed: u64,
    /// Cells a job needed that were already cached, pending or in
    /// flight — work *not* scheduled twice.
    pub cells_deduped: u64,
    /// Cell dispatches (including retries).
    pub dispatched: u64,
    /// Failed attempts that were re-queued with backoff.
    pub retries: u64,
    /// Cells that exhausted their attempt budget.
    pub quarantined: u64,
    /// Workers spawned beyond the initial pool.
    pub respawns: u64,
    /// Workers killed for heartbeat silence.
    pub hb_kills: u64,
    /// Workers killed for blowing a cell deadline.
    pub timeout_kills: u64,
    /// Worker connections lost (death, conn-drop, partial-frame).
    pub worker_losses: u64,
    /// Workers that died on their own with a non-zero status (crash
    /// faults, external SIGKILL, torn writes).
    pub worker_deaths: u64,
    /// Workers that exited 0.
    pub clean_exits: u64,
    /// Frames rejected by checksum/length/shape/attempt checks (torn
    /// writes, foreign or stale results).
    pub rejected_frames: u64,
    /// Connections accepted over the supervisor's lifetime.
    pub conns_opened: u64,
}

/// What a serve run produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Completed cells by thread count (journaled ones included).
    pub cells: BTreeMap<usize, Cell>,
    /// Cells that exhausted their attempt budget.
    pub quarantined: BTreeMap<usize, SimError>,
    /// The run was cut short by a graceful drain; undone cells are
    /// resumable from the journal.
    pub interrupted: bool,
    /// Supervision counters.
    pub stats: ServeStats,
}

/// Run the sweep of `journal`'s spec through a pool of
/// min(`opts.workers`, pending cells) worker hosts. `done` holds cells
/// already recovered from the journal — they are never re-dispatched
/// (the no-recompute invariant).
///
/// Returns when every cell is done or quarantined, or when a graceful
/// drain completes after an interrupt. Worker failure is policy, not an
/// error; the `Err` path is reserved for conditions the supervisor
/// cannot work around.
///
/// # Errors
/// [`SimError::InvalidConfig`] when workers cannot be spawned at all
/// (bad command, fork failure on the initial pool, every respawn dead)
/// or the loopback listener cannot bind.
pub fn serve_sweep(
    journal: &Journal,
    done: BTreeMap<usize, Cell>,
    opts: &ServeOptions,
) -> Result<ServeOutcome, SimError> {
    let pending = SWEEP_COUNTS
        .iter()
        .filter(|n| !done.contains_key(n))
        .count();
    if pending == 0 {
        return Ok(ServeOutcome {
            cells: done,
            quarantined: BTreeMap::new(),
            interrupted: false,
            stats: ServeStats::default(),
        });
    }
    // The host cache is scratch of this one run: starting it empty
    // keeps a serve from printing results an older binary computed.
    let cache_path = cells_path_for(journal.path());
    let _ = std::fs::remove_file(&cache_path);
    let serve = ServeOptions {
        workers: opts.workers.clamp(1, pending),
        ..opts.clone()
    };
    let dopts = DaemonOptions {
        cache_path: cache_path.clone(),
        scale: journal.spec().scale,
        ..DaemonOptions::new("127.0.0.1:0".into(), serve)
    };
    let outcome = daemon::supervise_sweep(&dopts, journal, done);
    let _ = std::fs::remove_file(&cache_path);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_exponential_and_jittered() {
        let opts = ServeOptions::default();
        for n in SWEEP_COUNTS {
            for attempt in 0..4u32 {
                let a = opts.backoff(n, attempt);
                assert_eq!(a, opts.backoff(n, attempt), "jitter must be deterministic");
                let base = opts.retry_base.as_millis() as u64;
                let floor = base << attempt;
                assert!(a.as_millis() as u64 >= floor, "below exponential floor");
                assert!(
                    (a.as_millis() as u64) < floor + base,
                    "jitter above [0, base)"
                );
            }
        }
        // Different cells jitter differently (that is the point).
        let spread: std::collections::BTreeSet<u128> = SWEEP_COUNTS
            .iter()
            .map(|&n| opts.backoff(n, 0).as_millis())
            .collect();
        assert!(spread.len() > 1, "all cells drew identical jitter");
    }

    #[test]
    fn backoff_shift_saturates_instead_of_overflowing() {
        let opts = ServeOptions::default();
        let huge = opts.backoff(4, u32::MAX);
        assert!(huge >= opts.backoff(4, 6) - opts.retry_base);
    }

    #[test]
    fn cell_deadline_scales_with_thread_count() {
        assert_eq!(cell_deadline(1), CELL_TIMEOUT_BASE * 2);
        assert_eq!(cell_deadline(24), CELL_TIMEOUT_BASE * 25);
        let mut prev = Duration::ZERO;
        for n in SWEEP_COUNTS {
            let d = cell_deadline(n);
            assert!(d > prev, "deadline must grow with n");
            prev = d;
        }
    }

    #[test]
    fn an_unspawnable_pool_is_an_invalid_config() {
        use crate::ctx::WorkloadKind;
        use crate::journal::SweepSpec;
        use crate::mode::SimMode;
        use crate::SimScale;

        let dir = std::env::temp_dir().join(format!("tlpsim-serve-nopool-{}", std::process::id()));
        let spec = SweepSpec {
            design: "4B".into(),
            kind: WorkloadKind::Heterogeneous,
            smt: true,
            bus_dgbps: 80,
            scale: SimScale::quick(),
            mode: SimMode::Exact,
        };
        let journal = Journal::create(&dir.join("sweep.journal"), spec).unwrap();
        for worker_cmd in [
            Vec::new(),
            vec![dir.join("no-such-binary").display().to_string()],
        ] {
            let opts = ServeOptions {
                worker_cmd,
                ..ServeOptions::default()
            };
            let out = serve_sweep(&journal, BTreeMap::new(), &opts);
            assert!(matches!(out, Err(SimError::InvalidConfig(_))), "{out:?}");
        }
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
