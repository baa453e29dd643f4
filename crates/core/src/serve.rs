//! The sweep-service supervisor (DESIGN.md §13).
//!
//! `tlpsim serve` runs a sweep the way `tlpsim sweep` does — same
//! journal, same cells, same stdout table — but fans the cells out to
//! separate worker *OS processes* ([`crate::worker`]) instead of
//! threads, so a segfaulting, OOM-killed or wedged cell is a recovered
//! event, not a dead sweep. The supervisor here owns everything
//! durable and everything policy:
//!
//! * **journal ownership** — workers never touch the write-ahead
//!   journal; a result is journaled by the supervisor *before* the cell
//!   is counted done, preserving the write-ahead property `tlpsim
//!   resume` relies on;
//! * **bounded in-flight queue** — at most one cell is in flight per
//!   worker; everything else waits in the pending queue (backpressure
//!   is structural, not configured);
//! * **heartbeats** — workers beat every `hb_interval` with a counter
//!   snapshot; a worker silent for `hb_timeout` is presumed wedged,
//!   killed, and respawned;
//! * **wall-clock timeouts** — each dispatched cell gets a deadline
//!   scaled by its thread count (`cell_timeout_base × (n + 1)`); a
//!   worker that blows it is killed and the cell retried;
//! * **retry with backoff** — a failed attempt re-queues the cell after
//!   an exponential backoff with deterministic SplitMix64 jitter;
//! * **quarantine** — a cell failing its whole attempt budget (default
//!   3) is quarantined as [`SimError::Quarantined`] and the sweep
//!   completes degraded instead of aborting;
//! * **graceful drain** — on SIGINT/SIGTERM ([`crate::interrupt`]) the
//!   supervisor stops dispatching, SIGTERMs busy workers (whose
//!   in-flight cells checkpoint via the PR 5 machinery), sends idle
//!   workers `EXIT`, and returns with `interrupted = true` so the CLI
//!   can print a resume hint.
//!
//! The supervisor↔worker pipe speaks the journal's own framed record
//! format, so a worker dying mid-write produces exactly a torn frame —
//! rejected by checksum, retried by policy.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use tlpsim_workloads::SplitMix64;

use crate::ctx::Cell;
use crate::diskcache::{frame_payload, Record};
use crate::error::SimError;
use crate::interrupt;
use crate::journal::Journal;
use crate::net::{FrameError, FrameReader};
use crate::worker::{decode_done, decode_err, Request};
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

/// Supervisor policy knobs. `Default` gives production values;
/// [`from_env`](Self::from_env) layers the `TLPSIM_SERVE_*` overrides
/// on top.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker process count.
    pub workers: usize,
    /// Worker command line (program + args); the CLI passes its own
    /// binary with the hidden `__serve-worker` entry point.
    pub worker_cmd: Vec<String>,
    /// Heartbeat cadence workers are told to beat at.
    pub hb_interval: Duration,
    /// Silence after which a worker is presumed wedged and killed.
    pub hb_timeout: Duration,
    /// Per-cell wall-clock budget per unit of (n + 1) — the deadline of
    /// a cell at thread count `n` is `cell_timeout_base × (n + 1)`.
    pub cell_timeout_base: Duration,
    /// First retry backoff; attempt `k` waits `base × 2^k` + jitter.
    pub retry_base: Duration,
    /// Attempts per cell before quarantine (≥ 1).
    pub max_attempts: u32,
    /// Seed of the deterministic backoff jitter.
    pub seed: u64,
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
            cell_timeout_base: Duration::from_millis(60_000),
            retry_base: Duration::from_millis(250),
            max_attempts: 3,
            seed: 0x71E9_5E12,
            fault: FaultPolicy::Inherit,
            pid_file: None,
        }
    }
}

impl ServeOptions {
    /// Defaults with the `TLPSIM_SERVE_*` environment overrides applied:
    /// `HB_MS`, `HB_TIMEOUT_MS`, `CELL_TIMEOUT_MS`, `RETRY_MS` (all
    /// positive milliseconds) and `ATTEMPTS` (positive count).
    ///
    /// # Errors
    /// A diagnostic naming the malformed variable — serve must not run
    /// with a silently ignored policy override.
    pub fn from_env(worker_cmd: Vec<String>) -> Result<ServeOptions, String> {
        let mut o = ServeOptions {
            worker_cmd,
            ..ServeOptions::default()
        };
        let ms = |name: &str, default: Duration| -> Result<Duration, String> {
            match std::env::var(name) {
                Err(_) => Ok(default),
                Ok(v) => v
                    .trim()
                    .parse::<u64>()
                    .ok()
                    .filter(|&x| x > 0)
                    .map(Duration::from_millis)
                    .ok_or_else(|| format!("{name}={v:?} is not a positive millisecond count")),
            }
        };
        o.hb_interval = ms("TLPSIM_SERVE_HB_MS", o.hb_interval)?;
        o.hb_timeout = ms("TLPSIM_SERVE_HB_TIMEOUT_MS", o.hb_timeout)?;
        o.cell_timeout_base = ms("TLPSIM_SERVE_CELL_TIMEOUT_MS", o.cell_timeout_base)?;
        o.retry_base = ms("TLPSIM_SERVE_RETRY_MS", o.retry_base)?;
        if let Ok(v) = std::env::var("TLPSIM_SERVE_ATTEMPTS") {
            o.max_attempts = v
                .trim()
                .parse::<u32>()
                .ok()
                .filter(|&x| x > 0)
                .ok_or_else(|| format!("TLPSIM_SERVE_ATTEMPTS={v:?} is not a positive count"))?;
        }
        Ok(o)
    }

    /// The wall-clock deadline of a cell at thread count `n`.
    pub fn cell_deadline(&self, n: usize) -> Duration {
        // Cells scale roughly linearly in n (n threads × fixed
        // per-thread budget), so the timeout does too; +1 keeps n=1
        // from getting a degenerate budget.
        self.cell_timeout_base * (n as u32 + 1)
    }

    /// Backoff before re-dispatching a cell whose zero-based `attempt`
    /// just failed: `retry_base × 2^attempt` plus deterministic jitter
    /// in `[0, retry_base)` drawn from `(seed, n, attempt)`.
    pub fn backoff(&self, n: usize, attempt: u32) -> Duration {
        backoff_for(self.retry_base, self.seed, n, attempt)
    }
}

/// The shared retry ladder: `retry_base × 2^min(attempt, 6)` plus
/// deterministic SplitMix64 jitter in `[0, retry_base)` drawn from
/// `(seed, n, attempt)`. One implementation serves the supervisor's
/// cell retries, the daemon's task retries, and the client's reconnect
/// loop — capped exponential with jitter everywhere, tested once.
pub fn backoff_for(retry_base: Duration, seed: u64, n: usize, attempt: u32) -> Duration {
    let base = retry_base.as_millis() as u64;
    let exp = base.saturating_mul(1u64 << attempt.min(6));
    let mut rng = SplitMix64::new(
        seed ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    Duration::from_millis(exp + rng.below(base.max(1)))
}

/// Counters of everything the supervision policy did — asserted on by
/// the chaos tests and printed by the CLI's stderr summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Cell dispatches (including retries).
    pub dispatched: u64,
    /// Failed attempts that were re-queued with backoff.
    pub retries: u64,
    /// Workers spawned beyond the initial pool.
    pub respawns: u64,
    /// Workers killed for heartbeat silence.
    pub hb_kills: u64,
    /// Workers killed for blowing a cell deadline.
    pub timeout_kills: u64,
    /// Workers that died on their own with a non-zero status (crash
    /// faults, external SIGKILL, torn writes).
    pub worker_deaths: u64,
    /// Workers that exited 0.
    pub clean_exits: u64,
    /// Frames rejected by checksum/length/shape (torn writes, foreign
    /// or stale results).
    pub rejected_frames: u64,
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

/// A cell waiting to be dispatched (first time or as a retry).
struct PendingCell {
    n: usize,
    attempt: u32,
    ready: Instant,
}

/// What one worker slot is doing.
struct InFlight {
    n: usize,
    attempt: u32,
    deadline: Instant,
}

/// One worker slot: the OS process currently bound to it (if alive)
/// plus its protocol state. `gen` stamps every reader event so a
/// respawned slot cleanly ignores leftovers from its predecessor.
struct Slot {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    pid: u32,
    gen: u64,
    busy: Option<InFlight>,
    last_hb: Instant,
}

impl Slot {
    fn live(&self) -> bool {
        self.child.is_some()
    }
}

/// A frame (or EOF) from one worker's stdout, stamped with slot + gen.
enum WorkerEvent {
    Frame(Result<String, FrameError>),
    Eof,
}

fn spawn_worker(
    opts: &ServeOptions,
    slot_idx: usize,
    gen: u64,
    tx: &Sender<(usize, u64, WorkerEvent)>,
) -> Result<Slot, SimError> {
    let err = |why: String| SimError::InvalidConfig(format!("serve: cannot spawn worker: {why}"));
    let (prog, args) = opts
        .worker_cmd
        .split_first()
        .ok_or_else(|| err("empty worker command".into()))?;
    let mut cmd = Command::new(prog);
    cmd.args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .env(
            "TLPSIM_SERVE_HB_MS",
            opts.hb_interval.as_millis().to_string(),
        );
    match &opts.fault {
        FaultPolicy::Inherit => {}
        FaultPolicy::Clear => {
            cmd.env_remove("TLPSIM_FAULT");
        }
        FaultPolicy::Spec(s) => {
            cmd.env("TLPSIM_FAULT", s);
        }
    }
    let mut child = cmd.spawn().map_err(|e| err(e.to_string()))?;
    let stdin = child.stdin.take().ok_or_else(|| err("no stdin".into()))?;
    let stdout = child.stdout.take().ok_or_else(|| err("no stdout".into()))?;
    let pid = child.id();
    if let Some(pf) = &opts.pid_file {
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(pf)
        {
            let _ = writeln!(f, "{pid}");
        }
    }
    let tx = tx.clone();
    std::thread::spawn(move || {
        for frame in FrameReader::new(stdout) {
            if tx.send((slot_idx, gen, WorkerEvent::Frame(frame))).is_err() {
                return; // supervisor is gone
            }
        }
        let _ = tx.send((slot_idx, gen, WorkerEvent::Eof));
    });
    Ok(Slot {
        child: Some(child),
        stdin: Some(stdin),
        pid,
        gen,
        busy: None,
        last_hb: Instant::now(),
    })
}

/// Run the sweep of `journal`'s spec through a pool of worker
/// processes. `done` holds cells already recovered from the journal —
/// they are never re-dispatched (the no-recompute invariant).
///
/// Returns when every cell is done or quarantined, or when a graceful
/// drain completes after an interrupt. Worker failure is policy, not an
/// error; the `Err` path is reserved for conditions the supervisor
/// cannot work around (unspawnable workers, an empty worker command).
///
/// # Errors
/// [`SimError::InvalidConfig`] when workers cannot be spawned at all
/// (bad command, fork failure on the initial pool, every respawn dead).
pub fn serve_sweep(
    journal: &Journal,
    done: BTreeMap<usize, Cell>,
    opts: &ServeOptions,
) -> Result<ServeOutcome, SimError> {
    let spec = journal.spec().clone();
    let mut cells = done;
    let mut quarantined: BTreeMap<usize, SimError> = BTreeMap::new();
    let mut stats = ServeStats::default();

    let now = Instant::now();
    let mut pending: Vec<PendingCell> = SWEEP_COUNTS
        .iter()
        .filter(|n| !cells.contains_key(n))
        .map(|&n| PendingCell {
            n,
            attempt: 0,
            ready: now,
        })
        .collect();
    if pending.is_empty() {
        return Ok(ServeOutcome {
            cells,
            quarantined,
            interrupted: false,
            stats,
        });
    }

    let n_workers = opts.workers.clamp(1, pending.len());
    let (tx, rx) = channel();
    let mut slots = Vec::with_capacity(n_workers);
    for i in 0..n_workers {
        slots.push(spawn_worker(opts, i, 0, &tx)?);
    }
    let mut draining = false;

    // One failed attempt: re-queue with backoff or quarantine.
    let fail = |n: usize,
                attempt: u32,
                detail: String,
                pending: &mut Vec<PendingCell>,
                quarantined: &mut BTreeMap<usize, SimError>,
                stats: &mut ServeStats| {
        let used = attempt + 1;
        if used >= opts.max_attempts {
            quarantined.insert(
                n,
                SimError::Quarantined {
                    item: n,
                    attempts: used,
                    detail,
                },
            );
        } else {
            stats.retries += 1;
            pending.push(PendingCell {
                n,
                attempt: attempt + 1,
                ready: Instant::now() + opts.backoff(n, attempt),
            });
        }
    };

    loop {
        // A cooperative interrupt starts the drain exactly once: stop
        // dispatching, ask busy workers to checkpoint (SIGTERM → their
        // interrupt flag), release idle ones.
        if interrupt::requested() && !draining {
            draining = true;
            for slot in &mut slots {
                if !slot.live() {
                    continue;
                }
                if slot.busy.is_some() {
                    interrupt::send_signal(slot.pid, interrupt::SIGTERM);
                } else if let Some(stdin) = slot.stdin.as_mut() {
                    let _ = stdin.write_all(frame_payload(&Request::Exit.encode()).as_bytes());
                    let _ = stdin.flush();
                }
            }
        }

        // Dispatch ready cells to idle live workers (≤ 1 in flight per
        // worker — the bounded queue).
        if !draining {
            for slot in &mut slots {
                if !slot.live() || slot.busy.is_some() {
                    continue;
                }
                let now = Instant::now();
                let Some(pos) = pending.iter().position(|p| p.ready <= now) else {
                    break;
                };
                let cell = pending.swap_remove(pos);
                let last = cell.attempt + 1 >= opts.max_attempts;
                let frame = frame_payload(
                    &Request::Run {
                        n: cell.n,
                        attempt: cell.attempt,
                        last,
                    }
                    .encode(),
                );
                let wrote = slot
                    .stdin
                    .as_mut()
                    .is_some_and(|s| s.write_all(frame.as_bytes()).is_ok() && s.flush().is_ok());
                if wrote {
                    stats.dispatched += 1;
                    slot.busy = Some(InFlight {
                        n: cell.n,
                        attempt: cell.attempt,
                        deadline: now + opts.cell_deadline(cell.n),
                    });
                } else {
                    // Worker gone before we could hand it work: the
                    // attempt was never started, so requeue it as-is;
                    // the Eof event will reap and respawn the slot.
                    pending.push(cell);
                }
            }
        }

        let any_busy = slots.iter().any(|s| s.busy.is_some());
        if draining {
            if !any_busy {
                break;
            }
        } else if pending.is_empty() && !any_busy {
            break; // every cell done or quarantined
        }
        if !draining && !any_busy && !slots.iter().any(Slot::live) {
            return Err(SimError::InvalidConfig(
                "serve: all workers are dead and respawn failed".into(),
            ));
        }

        match rx.recv_timeout(Duration::from_millis(25)) {
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {}
            Ok((idx, gen, ev)) => {
                if slots[idx].gen != gen {
                    // Leftover from a predecessor killed on this slot.
                    if matches!(ev, WorkerEvent::Frame(_)) {
                        stats.rejected_frames += 1;
                    }
                } else {
                    match ev {
                        WorkerEvent::Frame(frame) => match frame {
                            // Torn, corrupt or oversized.
                            Err(_) => stats.rejected_frames += 1,
                            Ok(payload) => handle_payload(
                                &payload,
                                idx,
                                &mut slots,
                                journal,
                                &spec,
                                &mut cells,
                                &mut pending,
                                &mut quarantined,
                                &mut stats,
                                draining,
                                &fail,
                            ),
                        },
                        WorkerEvent::Eof => {
                            let slot = &mut slots[idx];
                            let status = slot.child.take().and_then(|mut c| c.wait().ok());
                            slot.stdin = None;
                            if status.is_some_and(|s| s.success()) {
                                stats.clean_exits += 1;
                            } else {
                                stats.worker_deaths += 1;
                            }
                            if let Some(inflight) = slot.busy.take() {
                                if !draining {
                                    let code = status
                                        .and_then(|s| s.code())
                                        .map_or("killed".to_string(), |c| format!("exit {c}"));
                                    fail(
                                        inflight.n,
                                        inflight.attempt,
                                        format!("worker died mid-cell ({code})"),
                                        &mut pending,
                                        &mut quarantined,
                                        &mut stats,
                                    );
                                }
                                // Draining: the cell checkpointed (or
                                // will recompute on resume); not a
                                // retry, not a quarantine.
                            }
                            let work_remains =
                                !pending.is_empty() || slots.iter().any(|s| s.busy.is_some());
                            if !draining && work_remains {
                                let gen = slots[idx].gen + 1;
                                match spawn_worker(opts, idx, gen, &tx) {
                                    Ok(s) => {
                                        slots[idx] = s;
                                        stats.respawns += 1;
                                    }
                                    Err(e) => {
                                        eprintln!("tlpsim: serve: respawn failed: {e}");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        // Health checks: heartbeat silence and cell deadlines.
        let now = Instant::now();
        for (idx, slot) in slots.iter_mut().enumerate() {
            if !slot.live() {
                continue;
            }
            let hb_lost = now.duration_since(slot.last_hb) > opts.hb_timeout;
            let timed_out = slot.busy.as_ref().is_some_and(|b| now >= b.deadline);
            if !hb_lost && !timed_out {
                continue;
            }
            if hb_lost {
                stats.hb_kills += 1;
            } else {
                stats.timeout_kills += 1;
            }
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            slot.stdin = None;
            slot.gen += 1; // orphan the reader's remaining events
            if let Some(inflight) = slot.busy.take() {
                if !draining {
                    let why = if hb_lost {
                        "heartbeat lost (worker wedged)"
                    } else {
                        "cell deadline exceeded"
                    };
                    fail(
                        inflight.n,
                        inflight.attempt,
                        why.to_string(),
                        &mut pending,
                        &mut quarantined,
                        &mut stats,
                    );
                }
            }
            if !draining {
                match spawn_worker(opts, idx, slot.gen, &tx) {
                    Ok(s) => {
                        *slot = s;
                        stats.respawns += 1;
                    }
                    Err(e) => eprintln!("tlpsim: serve: respawn failed: {e}"),
                }
            }
        }
    }

    // Shutdown: release surviving workers and give them a bounded
    // window to exit 0 before resorting to kill.
    for slot in &mut slots {
        if let Some(stdin) = slot.stdin.as_mut() {
            let _ = stdin.write_all(frame_payload(&Request::Exit.encode()).as_bytes());
            let _ = stdin.flush();
        }
        // Dropping stdin closes the pipe: EOF also ends the worker loop.
        slot.stdin = None;
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    for slot in &mut slots {
        let Some(child) = slot.child.as_mut() else {
            continue;
        };
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    if status.success() {
                        stats.clean_exits += 1;
                    } else {
                        stats.worker_deaths += 1;
                    }
                    slot.child = None;
                    break;
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    stats.worker_deaths += 1;
                    slot.child = None;
                    break;
                }
            }
        }
    }

    Ok(ServeOutcome {
        cells,
        quarantined,
        interrupted: draining,
        stats,
    })
}

/// Dispatch one intact payload from worker `idx`.
#[allow(clippy::too_many_arguments)]
fn handle_payload<F>(
    payload: &str,
    idx: usize,
    slots: &mut [Slot],
    journal: &Journal,
    spec: &crate::journal::SweepSpec,
    cells: &mut BTreeMap<usize, Cell>,
    pending: &mut Vec<PendingCell>,
    quarantined: &mut BTreeMap<usize, SimError>,
    stats: &mut ServeStats,
    draining: bool,
    fail: &F,
) where
    F: Fn(
        usize,
        u32,
        String,
        &mut Vec<PendingCell>,
        &mut BTreeMap<usize, SimError>,
        &mut ServeStats,
    ),
{
    let now = Instant::now();
    if payload.starts_with("HELLO ") || payload.starts_with("HB ") {
        slots[idx].last_hb = now;
        return;
    }
    if payload.starts_with("DONE ") {
        slots[idx].last_hb = now;
        let expected = slots[idx].busy.as_ref().map(|b| (b.n, b.attempt));
        match decode_done(payload).map(|(attempt, rec)| (attempt, Record::decode(rec))) {
            Some((attempt, Ok(Record::Cell { key, cell })))
                if Some((key.n, attempt)) == expected && key == spec.cell_key(key.n) =>
            {
                // Write-ahead: journal first, count done second.
                journal.record(key.n, &cell);
                cells.insert(key.n, cell);
                slots[idx].busy = None;
            }
            Some((attempt, Ok(Record::Cell { key, .. })))
                if expected.is_some_and(|(n, a)| key.n == n && attempt < a)
                    && key == spec.cell_key(key.n) =>
            {
                // A stale frame from an earlier attempt of the *same*
                // cell: a predecessor killed on this slot can leak one
                // line into the replacement's channel if the kill
                // lands between the generation stamp and the reader
                // teardown. The generation check alone misses that
                // window — the attempt in the DONE frame is what
                // closes it. Reject the frame but leave the live
                // attempt in flight; its own result is still coming.
                stats.rejected_frames += 1;
            }
            _ => {
                // Intact frame, wrong shape or wrong cell: never trust
                // it, and treat the worker's state as unknown — the
                // in-flight attempt fails rather than hangs to its
                // deadline.
                stats.rejected_frames += 1;
                if let Some(inflight) = slots[idx].busy.take() {
                    if !draining {
                        fail(
                            inflight.n,
                            inflight.attempt,
                            "worker returned a foreign or malformed cell".to_string(),
                            pending,
                            quarantined,
                            stats,
                        );
                    }
                }
            }
        }
        return;
    }
    if let Some((n, attempt, was_interrupted, detail)) = decode_err(payload) {
        slots[idx].last_hb = now;
        let matches_inflight = slots[idx]
            .busy
            .as_ref()
            .is_some_and(|b| b.n == n && b.attempt == attempt);
        if !matches_inflight {
            stats.rejected_frames += 1;
            return;
        }
        slots[idx].busy = None;
        if was_interrupted && draining {
            // The cell checkpointed; resume picks it up. Nothing to do.
        } else {
            fail(n, attempt, detail, pending, quarantined, stats);
        }
        return;
    }
    stats.rejected_frames += 1;
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
        let opts = ServeOptions::default();
        assert_eq!(opts.cell_deadline(1), opts.cell_timeout_base * 2);
        assert_eq!(opts.cell_deadline(24), opts.cell_timeout_base * 25);
        let mut prev = Duration::ZERO;
        for n in SWEEP_COUNTS {
            let d = opts.cell_deadline(n);
            assert!(d > prev, "deadline must grow with n");
            prev = d;
        }
    }

    #[test]
    fn stale_attempt_frame_is_rejected_without_failing_the_live_attempt() {
        use crate::ctx::WorkloadKind;
        use crate::journal::SweepSpec;
        use crate::mode::SimMode;
        use crate::worker::encode_done;
        use crate::SimScale;

        let dir = std::env::temp_dir().join(format!("tlpsim-serve-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.journal");
        let spec = SweepSpec {
            design: "4B".into(),
            kind: WorkloadKind::Heterogeneous,
            smt: true,
            bus_dgbps: 80,
            scale: SimScale::quick(),
            mode: SimMode::Exact,
        };
        let journal = Journal::create(&path, spec.clone()).unwrap();
        // A slot whose predecessor was killed mid-cell: the replacement
        // is on attempt 1 of cell n=4 while one frame from attempt 0
        // leaked past the generation stamp.
        let inflight = |attempt| InFlight {
            n: 4,
            attempt,
            deadline: Instant::now() + Duration::from_secs(60),
        };
        let mut slots = vec![Slot {
            child: None,
            stdin: None,
            pid: 0,
            gen: 1,
            busy: Some(inflight(1)),
            last_hb: Instant::now(),
        }];
        let mut cells = BTreeMap::new();
        let mut pending = Vec::new();
        let mut quarantined = BTreeMap::new();
        let mut stats = ServeStats::default();
        let fail = |_n: usize,
                    _attempt: u32,
                    _detail: String,
                    _pending: &mut Vec<PendingCell>,
                    _q: &mut BTreeMap<usize, SimError>,
                    stats: &mut ServeStats| {
            stats.retries += 1;
        };
        let cell = Cell {
            stp: vec![1.0; 12],
            antt: vec![1.0; 12],
            power_w: vec![1.0; 12],
        };
        let rec = Record::Cell {
            key: spec.cell_key(4),
            cell: cell.clone(),
        };

        // The stale frame: same cell, *older attempt*. Before the fix
        // this matched on n alone and was journaled as the live
        // attempt's result.
        handle_payload(
            &encode_done(0, &rec.encode()),
            0,
            &mut slots,
            &journal,
            &spec,
            &mut cells,
            &mut pending,
            &mut quarantined,
            &mut stats,
            false,
            &fail,
        );
        assert_eq!(stats.rejected_frames, 1, "stale frame must be rejected");
        assert!(slots[0].busy.is_some(), "live attempt must stay in flight");
        assert!(cells.is_empty(), "stale result must not be trusted");
        assert_eq!(stats.retries, 0, "live attempt must not be failed");

        // The live attempt's own frame is then accepted normally.
        handle_payload(
            &encode_done(1, &rec.encode()),
            0,
            &mut slots,
            &journal,
            &spec,
            &mut cells,
            &mut pending,
            &mut quarantined,
            &mut stats,
            false,
            &fail,
        );
        assert!(slots[0].busy.is_none());
        assert_eq!(cells.len(), 1);
        assert_eq!(stats.rejected_frames, 1);

        // A genuinely foreign cell (wrong n) still fails the in-flight
        // attempt — worker state unknown.
        slots[0].busy = Some(inflight(0));
        let foreign = Record::Cell {
            key: spec.cell_key(8),
            cell,
        };
        handle_payload(
            &encode_done(0, &foreign.encode()),
            0,
            &mut slots,
            &journal,
            &spec,
            &mut cells,
            &mut pending,
            &mut quarantined,
            &mut stats,
            false,
            &fail,
        );
        assert_eq!(stats.rejected_frames, 2);
        assert!(slots[0].busy.is_none());
        assert_eq!(stats.retries, 1);

        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn options_from_env_parse_strictly() {
        // Unique var names vs the executor/snapshot env tests, but the
        // serve env vars are also touched by `validate_env` tests in the
        // binary crate — distinct processes, no conflict.
        std::env::remove_var("TLPSIM_SERVE_HB_MS");
        std::env::remove_var("TLPSIM_SERVE_ATTEMPTS");
        let o = ServeOptions::from_env(vec!["w".into()]).unwrap();
        assert_eq!(o.hb_interval, Duration::from_millis(500));
        assert_eq!(o.max_attempts, 3);
        std::env::set_var("TLPSIM_SERVE_HB_MS", "120");
        std::env::set_var("TLPSIM_SERVE_ATTEMPTS", "5");
        let o = ServeOptions::from_env(vec!["w".into()]).unwrap();
        assert_eq!(o.hb_interval, Duration::from_millis(120));
        assert_eq!(o.max_attempts, 5);
        for (k, v) in [
            ("TLPSIM_SERVE_HB_MS", "0"),
            ("TLPSIM_SERVE_HB_MS", "soon"),
            ("TLPSIM_SERVE_ATTEMPTS", "0"),
            ("TLPSIM_SERVE_ATTEMPTS", "-2"),
        ] {
            std::env::set_var("TLPSIM_SERVE_HB_MS", "120");
            std::env::set_var(k, v);
            let e = ServeOptions::from_env(vec!["w".into()]).expect_err(v);
            assert!(e.contains(k), "diagnostic must name the variable: {e}");
        }
        std::env::remove_var("TLPSIM_SERVE_HB_MS");
        std::env::remove_var("TLPSIM_SERVE_ATTEMPTS");
    }
}
