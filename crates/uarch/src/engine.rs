//! The multi-core engine: steps every core cycle by cycle and provides
//! the OS-level behaviour of the paper's setup — thread-to-context
//! assignment, barrier and lock synchronization (blocked threads yield
//! their hardware context), round-robin time-sharing when several
//! software threads share one context, and the active-thread histogram.
//!
//! ## Event-driven cycle skipping
//!
//! Memory-bound regions leave every hardware context waiting on a fill
//! whose arrival cycle is already known (the memory system computes
//! completion times at access time). Instead of burning one loop
//! iteration per quiescent cycle, the engine asks every core for its
//! earliest possible next event ([`CoreModel::next_event`]) — the
//! minimum over in-flight completion times, fetch unblock times and
//! scheduler quantum expiries — and jumps `now` directly to the cycle
//! before it, replaying the skipped span's bookkeeping (cycle counters,
//! the active-thread histogram, round-robin arbiter rotation, quantum
//! ticks, watchdog checks) in closed form. Results are **bit-identical**
//! to dense stepping (enforced by `tests/equivalence.rs`); set
//! `TLPSIM_NO_SKIP=1` or call
//! [`set_cycle_skipping`](MultiCore::set_cycle_skipping) to force the
//! legacy dense stepper when debugging.

use tlpsim_mem::{
    fnv1a64, snap_ensure, CoreMemStats, Cycle, FastMap, MemCounters, MemorySystem, SnapError,
    SnapReader, SnapWriter,
};
use tlpsim_trace::{NopSink, SampleSink, TraceSink, N_COMPONENTS};

use crate::calwheel::WHEEL;
use crate::config::ChipConfig;
use crate::core_model::{CoreModel, Drained, Pending};
use crate::program::{ProgramState, ThreadCtl, ThreadProgram};
use crate::snapio::SnapshotSink;
use crate::stats::{CoreStats, RunResult, ThreadStats};
use crate::ThreadId;

/// Default watchdog window: declare a stall if no instruction commits
/// for this many cycles.
pub const DEFAULT_WATCHDOG_CYCLES: Cycle = 3_000_000;

/// `TLPSIM_NO_SKIP=1` (any value other than `0`/empty) forces the
/// legacy dense stepper — the debugging escape hatch.
fn no_skip_env() -> bool {
    std::env::var("TLPSIM_NO_SKIP")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// State of one hardware context at the moment a stall was declared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextSnapshot {
    /// Core index.
    pub core: usize,
    /// SMT slot index within the core.
    pub slot: usize,
    /// Thread currently resident on the context, if any.
    pub resident: Option<ThreadId>,
    /// Scheduling state of the resident thread.
    pub state: Option<ProgramState>,
    /// Software threads queued on this context (time-sharing).
    pub queued_threads: usize,
    /// Instructions occupying this context's ROB partition.
    pub rob_occupancy: usize,
    /// Memory operations in flight (unissued or awaiting the hierarchy).
    pub pending_mem_ops: usize,
}

/// State of one simulated lock at the moment a stall was declared
/// (grant pointer + waiter queue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSnapshot {
    /// Lock id.
    pub id: u32,
    /// Thread currently granted the lock.
    pub held_by: Option<ThreadId>,
    /// Threads queued behind the grant, in arrival order.
    pub waiters: Vec<ThreadId>,
}

/// Diagnostic snapshot attached to [`RunError::Stalled`]: everything
/// needed to see *why* nothing commits — per-context ROB occupancy and
/// pending memory operations, plus barrier arrival counts and lock
/// grant pointers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallSnapshot {
    /// Cycle at which the stall was declared.
    pub cycle: Cycle,
    /// The no-commit window that expired.
    pub window: Cycle,
    /// Instructions committed chip-wide up to the stall.
    pub committed: u64,
    /// Per-context state, in (core, slot) order.
    pub contexts: Vec<ContextSnapshot>,
    /// Open barriers as `(id, arrived, needed)`.
    pub barriers: Vec<(u32, usize, usize)>,
    /// Lock grant state.
    pub locks: Vec<LockSnapshot>,
}

impl std::fmt::Display for StallSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "stalled at cycle {} ({} commits total; no commit for {} cycles)",
            self.cycle, self.committed, self.window
        )?;
        for c in &self.contexts {
            writeln!(
                f,
                "  core {}.{}: resident={:?} state={:?} queued={} rob={} pending_mem={}",
                c.core,
                c.slot,
                c.resident,
                c.state,
                c.queued_threads,
                c.rob_occupancy,
                c.pending_mem_ops
            )?;
        }
        for (id, arrived, needed) in &self.barriers {
            writeln!(f, "  barrier {id}: {arrived}/{needed} arrived")?;
        }
        for l in &self.locks {
            writeln!(
                f,
                "  lock {}: held_by={:?} waiters={:?}",
                l.id, l.held_by, l.waiters
            )?;
        }
        Ok(())
    }
}

/// Why a run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A thread was added but never pinned to a hardware context.
    UnassignedThread(ThreadId),
    /// No instruction committed within the watchdog window — the
    /// schedule stalled (e.g. a barrier whose participants cannot all
    /// run). Carries a diagnostic snapshot of the whole chip.
    Stalled {
        /// Cycle at which the stall was declared.
        cycle: Cycle,
        /// Chip state at the moment of the stall.
        snapshot: Box<StallSnapshot>,
    },
    /// The cycle limit was exceeded.
    CycleLimit {
        /// The limit that was hit.
        limit: Cycle,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnassignedThread(t) => write!(f, "thread {t} was never pinned"),
            RunError::Stalled { cycle, snapshot } => {
                write!(f, "no forward progress by cycle {cycle}: {snapshot}")
            }
            RunError::CycleLimit { limit } => write!(f, "exceeded cycle limit {limit}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Outcome of [`MultiCore::run_slice`].
#[derive(Debug, Clone, PartialEq)]
pub enum RunStatus {
    /// Every thread reached its finish point; the run is complete.
    Done(RunResult),
    /// The slice boundary was reached with the run still live. Call
    /// [`run_slice`](MultiCore::run_slice) again — in this process or
    /// after a checkpoint/restore round-trip — to continue; the final
    /// result is bit-identical to an unsliced run.
    Paused,
}

/// Version byte of the engine snapshot format (bumped on any wire
/// change so stale checkpoint files fail loudly instead of decoding
/// into garbage).
const SNAP_VERSION: u64 = 2;

#[derive(Debug, Default)]
struct LockState {
    held_by: Option<ThreadId>,
    waiters: std::collections::VecDeque<ThreadId>,
}

/// The simulated chip: cores + memory + software threads.
///
/// Generic over a [`TraceSink`] that receives CPI-stack attributions
/// and structural events from every layer. The default [`NopSink`]
/// monomorphizes all instrumentation away, so `MultiCore` (without a
/// type argument) is the plain, uninstrumented simulator; build with
/// [`with_sink`](Self::with_sink) to record.
#[derive(Debug)]
pub struct MultiCore<S: TraceSink = NopSink> {
    chip: ChipConfig,
    cores: Vec<CoreModel>,
    mem: MemorySystem,
    threads: Vec<ThreadCtl>,
    blocked_since: Vec<Cycle>,
    barriers: FastMap<u32, usize>,
    locks: FastMap<u32, LockState>,
    n_segmented: usize,
    runnable: usize,
    now: Cycle,
    hist: Vec<u64>,
    roi_barriers: Option<(u32, u32)>,
    recording: bool,
    events: Vec<Drained>,
    /// Second buffer the per-cycle `events` are swapped into while they
    /// resolve, so both retain their capacity across event cycles and
    /// the steady-state step never allocates.
    events_scratch: Vec<Drained>,
    /// Chip-wide committed-instruction total, maintained incrementally
    /// from each core's per-cycle commit count (replaces an O(threads)
    /// re-sum every cycle in the run loop's watchdog and skip gates).
    total_committed: u64,
    watchdog_window: Cycle,
    /// Fast-forward over quiescent cycles (default on; disabled by
    /// `TLPSIM_NO_SKIP=1` or [`set_cycle_skipping`](Self::set_cycle_skipping)).
    skip_enabled: bool,
    /// Cycles covered by fast-forward jumps instead of dense steps.
    skipped_cycles: Cycle,
    /// Number of fast-forward jumps taken.
    skip_windows: u64,
    /// Cached [`MemorySystem::next_event`] result (`Cycle::MAX` = none)
    /// and the fills version it was computed at.
    mem_ev_cache: Cycle,
    mem_ev_version: u64,
    /// Watchdog baseline: commit total at the last observed progress.
    wd_last_commits: u64,
    /// Cycle of the last observed progress (watchdog baseline).
    wd_last_cycle: Cycle,
    /// Commit total at the previous skip-gate evaluation.
    skip_prev_committed: u64,
    /// A logical run is in progress: a paused slice resumes without
    /// re-initializing the histogram and watchdog baselines. Loop
    /// state that used to live in `run_with_limit` locals is hoisted
    /// into the fields above so a checkpoint taken between slices
    /// captures it.
    run_active: bool,
    /// Monotonic phase-change counter: bumped on every resolved drain
    /// event (barrier arrival/release, lock traffic, thread finish,
    /// quantum switch) and on every slot reschedule. The sampled-mode
    /// driver compares it across a measurement window to detect that
    /// the thread schedule changed mid-window, which invalidates any
    /// steady-state hypothesis. Diagnostic-only: deliberately not
    /// serialized (checkpointing applies to exact mode) and never part
    /// of [`RunResult`].
    phase_events: u64,
    /// Trace sink receiving cycle attributions and structural events.
    sink: S,
}

impl MultiCore<NopSink> {
    /// Build an idle, uninstrumented chip.
    pub fn new(chip: &ChipConfig) -> Self {
        Self::with_sink(chip, NopSink)
    }
}

impl<S: TraceSink> MultiCore<S> {
    /// Build an idle chip recording into `sink`.
    pub fn with_sink(chip: &ChipConfig, sink: S) -> Self {
        let cores = chip
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| CoreModel::new(*c, i, chip.quantum_cycles))
            .collect();
        MultiCore {
            cores,
            mem: MemorySystem::new(&chip.memory),
            threads: Vec::new(),
            blocked_since: Vec::new(),
            barriers: FastMap::default(),
            locks: FastMap::default(),
            n_segmented: 0,
            runnable: 0,
            now: 0,
            hist: Vec::new(),
            roi_barriers: None,
            recording: true,
            events: Vec::new(),
            events_scratch: Vec::new(),
            total_committed: 0,
            watchdog_window: DEFAULT_WATCHDOG_CYCLES,
            skip_enabled: !no_skip_env(),
            skipped_cycles: 0,
            skip_windows: 0,
            mem_ev_cache: 0,
            mem_ev_version: u64::MAX,
            wd_last_commits: 0,
            wd_last_cycle: 0,
            skip_prev_committed: 0,
            run_active: false,
            phase_events: 0,
            sink,
            chip: chip.clone(),
        }
    }

    /// The trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the trace sink.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consume the chip and return the sink with everything it
    /// recorded.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Enable or disable event-driven cycle skipping (the fast-forward
    /// over provably-quiescent cycles). On by default; results are
    /// bit-identical either way, so this only exists for debugging and
    /// for the differential test harness. The `TLPSIM_NO_SKIP=1`
    /// environment variable forces it off at construction time.
    pub fn set_cycle_skipping(&mut self, enabled: bool) {
        self.skip_enabled = enabled && !no_skip_env();
    }

    /// Whether event-driven cycle skipping is active.
    pub fn cycle_skipping(&self) -> bool {
        self.skip_enabled
    }

    /// Cycles covered by fast-forward jumps so far (for skip-ratio
    /// reporting; deliberately *not* part of [`RunResult`], which must
    /// stay bit-identical between the skipping and dense engines).
    pub fn skipped_cycles(&self) -> Cycle {
        self.skipped_cycles
    }

    /// Number of fast-forward jumps taken so far.
    pub fn skip_windows(&self) -> u64 {
        self.skip_windows
    }

    /// Configure the stall watchdog: if no instruction commits anywhere
    /// on the chip for `window` cycles, [`run`](Self::run) aborts with
    /// [`RunError::Stalled`] carrying a [`StallSnapshot`] instead of
    /// spinning forever. The default is [`DEFAULT_WATCHDOG_CYCLES`].
    pub fn set_watchdog(&mut self, window: Cycle) {
        self.watchdog_window = window.max(1);
    }

    /// Register a software thread; returns its id. The thread still has
    /// to be [`pin`](Self::pin)ned to a hardware context.
    pub fn add_thread(&mut self, program: ThreadProgram) -> ThreadId {
        if program.budget().is_none() {
            self.n_segmented += 1;
        }
        self.threads.push(ThreadCtl::new(program));
        self.blocked_since.push(0);
        self.runnable += 1;
        self.threads.len() - 1
    }

    /// Pin thread `tid` to `(core, slot)`. Several threads pinned to the
    /// same slot time-share it round-robin (the no-SMT overload case).
    ///
    /// # Panics
    /// Panics if the ids are out of range.
    pub fn pin(&mut self, tid: ThreadId, core: usize, slot: usize) {
        let quantum = self.chip.quantum_cycles;
        self.cores[core].enqueue_thread(slot, tid, quantum);
        let t = &mut self.threads[tid];
        t.core = core;
        t.slot = slot;
    }

    /// Record the active-thread histogram only between the releases of
    /// these two barrier ids (the ROI of a multi-threaded app).
    pub fn set_roi_barriers(&mut self, first: u32, last: u32) {
        self.roi_barriers = Some((first, last));
        self.recording = false;
    }

    /// Functionally warm every thread's cache footprint (SimPoint-style
    /// warming), then zero the memory counters. Call once, before
    /// [`run`](Self::run). Threads must already be pinned.
    ///
    /// Warming reads each thread's cold-region tail, shared region, code
    /// and hot set through the real tag arrays of the core it is pinned
    /// to, so capacity sharing between SMT co-runners is respected. The
    /// threads' footprints are interleaved round-robin, line by line, so
    /// no single thread's footprint monopolizes the recency order of
    /// shared caches.
    ///
    /// Cost: each cache is filled in closed form
    /// ([`MemorySystem::prewarm`]), in time bounded by its capacity
    /// (sets × ways) rather than by the footprints (up to 12 MiB of
    /// cold tail per thread), until a line would be read a second time:
    /// from there on (threads of one app walking their shared region,
    /// or a cache that is not empty, as on a second call) each read is
    /// one cache lookup.
    pub fn prewarm(&mut self) {
        let threads: Vec<(usize, Vec<tlpsim_mem::LineRun>)> = self
            .threads
            .iter()
            .map(|t| (t.core, t.program.prewarm_runs()))
            .collect();
        self.mem.prewarm(&threads);
        self.mem.reset_counters();
    }

    /// Run until every thread reached its finish point.
    ///
    /// # Errors
    /// Returns [`RunError`] on unpinned threads, deadlock, or when an
    /// internal safety cycle limit (2^40) is exceeded.
    pub fn run(&mut self) -> Result<RunResult, RunError> {
        self.run_with_limit(1 << 40)
    }

    /// Like [`run`](Self::run) with an explicit cycle limit.
    ///
    /// # Errors
    /// Returns [`RunError`] on unpinned threads, deadlock, or when
    /// `limit` is exceeded.
    pub fn run_with_limit(&mut self, limit: Cycle) -> Result<RunResult, RunError> {
        match self.run_slice(limit, Cycle::MAX)? {
            RunStatus::Done(r) => Ok(r),
            RunStatus::Paused => unreachable!("stop_at == Cycle::MAX never pauses"),
        }
    }

    /// Run until every thread finishes, `limit` is exceeded, or the
    /// simulated clock reaches `stop_at` — whichever comes first.
    ///
    /// Returning [`RunStatus::Paused`] at a slice boundary leaves the
    /// engine in a resumable state: call `run_slice` again to
    /// continue, or [`save_state`](Self::save_state) /
    /// [`restore_state`](Self::restore_state) around the pause to
    /// checkpoint. Slicing is invisible to the simulation — the final
    /// [`RunResult`] is bit-identical to an unsliced run regardless of
    /// where (or how often) it pauses, because a dense step of a
    /// provably-quiet cycle performs exactly the mutations
    /// fast-forwarding it would (the §9 slot-event contract), and the
    /// watchdog baselines live in fields captured by checkpoints.
    ///
    /// The loop alternates dense stepping with event-driven
    /// fast-forward: after each dense cycle it computes the earliest
    /// cycle at which *any* component can act ([`Self::next_event`])
    /// and bulk-skips the provably-idle span in between, replaying the
    /// per-cycle bookkeeping (including watchdog checks at the exact
    /// power-of-two cadence the dense loop uses) in closed form.
    /// Results are bit-identical to dense stepping.
    ///
    /// # Errors
    /// Returns [`RunError`] on unpinned threads, deadlock, or when
    /// `limit` is exceeded.
    pub fn run_slice(&mut self, limit: Cycle, stop_at: Cycle) -> Result<RunStatus, RunError> {
        if !self.run_active {
            for (i, t) in self.threads.iter().enumerate() {
                if t.core == usize::MAX {
                    return Err(RunError::UnassignedThread(i));
                }
            }
            self.hist = vec![0; self.threads.len() + 1];
            self.wd_last_commits = 0;
            self.wd_last_cycle = 0;
            // Gate for the quiescence scan: a cycle that committed
            // instructions is certainly busy, so `next_event` would
            // return `now + 1` and even the cached per-slot scan would
            // be wasted. `total_committed` is maintained incrementally
            // by `step`, so both this gate and the watchdog read it
            // for free.
            self.total_committed = self.threads.iter().map(|t| t.committed).sum();
            self.skip_prev_committed = self.total_committed;
            self.run_active = true;
        }

        // Check cadence: cheap power-of-two mask, fine enough that the
        // watchdog fires within ~1.25x its window even for small windows.
        let check_mask = (self.watchdog_window / 4)
            .next_power_of_two()
            .clamp(1, 0x1_0000)
            - 1;
        let check_period = check_mask + 1;
        // Round `c` up to the next watchdog check cycle (`c & mask == 0`),
        // or `Cycle::MAX` if there is none: a window near `Cycle::MAX`
        // means the watchdog never fires.
        let next_check = |c: Cycle| c.div_ceil(check_period).saturating_mul(check_period);
        while !self.finished() {
            if self.now >= stop_at {
                return Ok(RunStatus::Paused);
            }
            self.step();
            if self.now > limit {
                self.run_active = false;
                return Err(RunError::CycleLimit { limit });
            }
            if self.now & check_mask == 0 {
                let committed = self.total_committed;
                if committed == self.wd_last_commits {
                    if self.now - self.wd_last_cycle > self.watchdog_window {
                        self.run_active = false;
                        return Err(RunError::Stalled {
                            cycle: self.now,
                            snapshot: Box::new(self.stall_snapshot()),
                        });
                    }
                } else {
                    self.wd_last_commits = committed;
                    self.wd_last_cycle = self.now;
                }
            }

            // Only consider a jump while the run is still live: after
            // the final thread finishes, the loop must exit exactly
            // like the dense stepper (an empty chip has no events and
            // would otherwise "fast-forward" into a phantom stall).
            if !self.skip_enabled || self.finished() {
                continue;
            }
            let committed = self.total_committed;
            let progressed = committed != self.skip_prev_committed;
            self.skip_prev_committed = committed;
            if progressed {
                continue; // chip is visibly busy; don't bother scanning
            }
            // Fast-forward: earliest cycle at which anything can change.
            let event_at = self.next_event();
            if event_at <= self.now + 1 {
                continue; // busy next cycle; keep stepping densely
            }
            // Last provably-idle cycle we may jump to. `event_at` can be
            // `Cycle::MAX` (true deadlock: only the watchdog/limit end
            // the run), so cap by the cycle at which the dense loop
            // would return `CycleLimit` (it errors *after* executing
            // cycle `limit + 1`).
            let mut jump_to = event_at - 1;
            let mut outcome = None;
            if limit.saturating_add(1) <= jump_to {
                jump_to = limit + 1;
                outcome = Some(RunError::CycleLimit { limit });
            }
            if stop_at < jump_to {
                // Never jump past the slice boundary. The pause lands
                // mid-quiet-window; the remaining span is re-derived on
                // resume (dense steps of quiet cycles equal the
                // fast-forward, so the split is invisible). Any limit
                // outcome lies past the boundary too.
                jump_to = stop_at;
                outcome = None;
            }
            // Replay the watchdog checks the dense loop would run inside
            // the window, at the same mask cadence. Commit counts are
            // frozen across the window, so the dense sequence collapses
            // to: one progress update at the first check cycle (if there
            // was progress since the last check), then a stall at the
            // first check cycle more than a window past the last
            // progress point.
            if committed != self.wd_last_commits {
                let c0 = next_check(self.now + 1);
                if c0 <= jump_to {
                    self.wd_last_commits = committed;
                    self.wd_last_cycle = c0;
                }
            }
            if committed == self.wd_last_commits {
                let stall_at = next_check(
                    self.wd_last_cycle
                        .saturating_add(self.watchdog_window)
                        .saturating_add(1)
                        .max(self.now + 1),
                );
                // The dense loop checks the limit before the watchdog,
                // so a stall can only be declared at cycles <= limit.
                if stall_at <= jump_to.min(limit) {
                    // The stall fires before the limit or the next event.
                    self.fast_forward(stall_at - self.now);
                    self.run_active = false;
                    return Err(RunError::Stalled {
                        cycle: self.now,
                        snapshot: Box::new(self.stall_snapshot()),
                    });
                }
            }
            if jump_to > self.now {
                self.fast_forward(jump_to - self.now);
            }
            if let Some(err) = outcome {
                self.run_active = false;
                return Err(err);
            }
        }
        self.run_active = false;
        Ok(RunStatus::Done(self.result()))
    }

    /// The earliest cycle `>= now + 1` at which any core or the memory
    /// system can act or change observable state. `Cycle::MAX` means
    /// nothing will ever happen again (a true deadlock — only the
    /// watchdog or the cycle limit ends the run).
    fn next_event(&mut self) -> Cycle {
        debug_assert!(self.events.is_empty(), "events must drain every cycle");
        let now = self.now;
        let mut ev = Cycle::MAX;
        for core in self.cores.iter_mut() {
            ev = ev.min(core.next_event(now, &self.threads));
            if ev <= now + 1 {
                return ev;
            }
        }
        // Defense in depth: never jump past an in-flight fill arrival.
        // Core-side state (`done_at`, `fetch_blocked_until`) already
        // mirrors every fill a core waits on, so this only tightens the
        // jump, never loosens it. The scan walks every in-flight fill,
        // so its result is cached until a new fill is recorded (the
        // fills version changes) or the cached arrival passes.
        let version = self.mem.fills_version();
        if version != self.mem_ev_version || self.mem_ev_cache <= now {
            self.mem_ev_cache = self.mem.next_event(now).unwrap_or(Cycle::MAX);
            self.mem_ev_version = version;
        }
        ev.min(self.mem_ev_cache).max(now + 1)
    }

    /// Jump `now` forward by `span` provably-idle cycles, replaying the
    /// bookkeeping dense stepping would have accumulated: per-core
    /// cycle/busy counters and arbiter rotation ([`CoreModel::fast_forward`]),
    /// the active-thread histogram, and the skip statistics.
    fn fast_forward(&mut self, span: Cycle) {
        let now = self.now;
        for core in self.cores.iter_mut() {
            core.fast_forward(now, span, &self.threads, &mut self.sink);
        }
        if self.recording {
            self.hist[self.runnable] += span;
        }
        self.now += span;
        self.skipped_cycles += span;
        self.skip_windows += 1;
    }

    /// Capture the diagnostic state attached to [`RunError::Stalled`].
    fn stall_snapshot(&self) -> StallSnapshot {
        let mut contexts = Vec::new();
        for (ci, core) in self.cores.iter().enumerate() {
            for (si, slot) in core.slots().iter().enumerate() {
                let resident = slot.resident();
                contexts.push(ContextSnapshot {
                    core: ci,
                    slot: si,
                    resident,
                    state: resident.map(|t| self.threads[t].state),
                    queued_threads: slot.threads.len(),
                    rob_occupancy: core.rob_occupancy(si),
                    pending_mem_ops: core.pending_mem_ops(si, self.now),
                });
            }
        }
        let mut barriers: Vec<(u32, usize, usize)> = self
            .barriers
            .iter()
            .map(|(&id, &arrived)| (id, arrived, self.n_segmented))
            .collect();
        barriers.sort_unstable();
        let mut locks: Vec<LockSnapshot> = self
            .locks
            .iter()
            .map(|(&id, l)| LockSnapshot {
                id,
                held_by: l.held_by,
                waiters: l.waiters.iter().copied().collect(),
            })
            .collect();
        locks.sort_unstable_by_key(|l| l.id);
        StallSnapshot {
            cycle: self.now,
            window: self.watchdog_window,
            committed: self.threads.iter().map(|t| t.committed).sum(),
            contexts,
            barriers,
            locks,
        }
    }

    fn finished(&self) -> bool {
        self.threads.iter().all(|t| t.finish_cycle.is_some())
    }

    /// Advance the whole chip by one cycle.
    fn step(&mut self) {
        self.now += 1;
        let now = self.now;
        if self.skip_enabled {
            // Per-core micro-skip: even on a busy chip cycle, most
            // cores usually have nothing to do. A core whose next
            // event lies beyond `now` provably mutates nothing this
            // cycle except the bulk-accumulable bookkeeping (the same
            // §9 contract that licenses whole-chip jumps), so replay
            // that in closed form instead of walking its pipeline.
            // Cross-core influences all flow through drain events
            // (resolved below, invalidating every cache) or through
            // shared-memory timing, which only matters on a core's own
            // next access — itself an event.
            let prev = now - 1;
            for core in self.cores.iter_mut() {
                if core.next_event(prev, &self.threads) > now {
                    core.fast_forward(prev, 1, &self.threads, &mut self.sink);
                } else {
                    self.total_committed += core.cycle(
                        now,
                        &mut self.mem,
                        &mut self.threads,
                        &mut self.events,
                        &mut self.sink,
                    );
                }
            }
        } else {
            for core in self.cores.iter_mut() {
                self.total_committed += core.cycle(
                    now,
                    &mut self.mem,
                    &mut self.threads,
                    &mut self.events,
                    &mut self.sink,
                );
            }
        }
        // Swap the drained events into the scratch buffer to resolve
        // them (resolve needs `&mut self`); both Vecs keep their
        // capacity, so event cycles stop re-allocating the buffer.
        let had_events = !self.events.is_empty();
        if had_events {
            std::mem::swap(&mut self.events, &mut self.events_scratch);
            for i in 0..self.events_scratch.len() {
                let ev = self.events_scratch[i];
                self.resolve(ev);
            }
            self.events_scratch.clear();
        }
        self.reschedule_slots();
        if had_events {
            // Thread-state transitions and context switches change
            // chip-global inputs (fetch eligibility, active-context
            // counts, slot residency) that every core's cached
            // next-event results may depend on. They all originate
            // from drain events, so this is the one invalidation
            // point.
            for core in self.cores.iter_mut() {
                core.invalidate_events();
            }
        }
        if self.recording {
            self.hist[self.runnable] += 1;
        }
    }

    fn set_state(&mut self, tid: ThreadId, state: ProgramState) {
        let old = self.threads[tid].state;
        if old == state {
            return;
        }
        let was_runnable = old == ProgramState::Runnable;
        let is_runnable = state == ProgramState::Runnable;
        if was_runnable && !is_runnable {
            self.runnable -= 1;
            self.blocked_since[tid] = self.now;
        } else if !was_runnable && is_runnable {
            self.runnable += 1;
            self.threads[tid].blocked_cycles += self.now - self.blocked_since[tid];
        }
        self.threads[tid].state = state;
    }

    fn resolve(&mut self, ev: Drained) {
        self.phase_events += 1;
        match ev.pending {
            Pending::Block(ProgramState::AtBarrier(id)) => {
                self.set_state(ev.tid, ProgramState::AtBarrier(id));
                let arrived = self.barriers.entry(id).or_insert(0);
                *arrived += 1;
                if *arrived == self.n_segmented {
                    self.barriers.remove(&id);
                    for t in 0..self.threads.len() {
                        if self.threads[t].state == ProgramState::AtBarrier(id) {
                            self.set_state(t, ProgramState::Runnable);
                        }
                    }
                    if let Some((first, last)) = self.roi_barriers {
                        if id == first {
                            self.recording = true;
                        }
                        if id == last {
                            self.recording = false;
                        }
                    }
                }
            }
            Pending::Block(ProgramState::WaitingLock(id)) => {
                let lock = self.locks.entry(id).or_default();
                if lock.held_by.is_none() {
                    lock.held_by = Some(ev.tid);
                    self.threads[ev.tid].program.grant_lock();
                    // Thread keeps running; the grant lets the next fetch
                    // enter the critical section.
                } else {
                    lock.waiters.push_back(ev.tid);
                    self.set_state(ev.tid, ProgramState::WaitingLock(id));
                }
            }
            Pending::Block(ProgramState::Runnable) => {
                // Critical-section exit: release the lock and hand it on.
                if let Some(id) = self.threads[ev.tid].program.take_release() {
                    let lock = self.locks.entry(id).or_default();
                    debug_assert_eq!(lock.held_by, Some(ev.tid));
                    lock.held_by = None;
                    if let Some(next) = lock.waiters.pop_front() {
                        lock.held_by = Some(next);
                        self.threads[next].program.grant_lock();
                        self.set_state(next, ProgramState::Runnable);
                    }
                }
            }
            Pending::Block(ProgramState::Finished) => unreachable!("not a block reason"),
            Pending::Finish => {
                self.set_state(ev.tid, ProgramState::Finished);
                if self.threads[ev.tid].finish_cycle.is_none() {
                    self.threads[ev.tid].finish_cycle = Some(self.now);
                }
                // Free the context for any queued thread.
                let quantum = self.chip.quantum_cycles;
                let penalty = self.chip.switch_penalty_cycles;
                let now = self.now;
                debug_assert_eq!(
                    self.cores[ev.core].slots()[ev.slot].resident(),
                    Some(ev.tid)
                );
                self.cores[ev.core].finish_resident(ev.slot, now, penalty, quantum);
            }
            Pending::Switch => {
                let quantum = self.chip.quantum_cycles;
                let penalty = self.chip.switch_penalty_cycles;
                let now = self.now;
                self.cores[ev.core].switch_resident(ev.slot, now, penalty, quantum);
            }
        }
    }

    /// If a slot's resident thread is blocked while another queued
    /// thread is runnable, rotate the runnable one in (the OS would).
    fn reschedule_slots(&mut self) {
        let quantum = self.chip.quantum_cycles;
        let penalty = self.chip.switch_penalty_cycles;
        let now = self.now;
        for core in self.cores.iter_mut() {
            for i in 0..core.slots().len() {
                let s = &core.slots()[i];
                if s.threads.len() < 2 || s.pending.is_some() || !core.is_drained(i) {
                    continue;
                }
                let resident_runnable = s
                    .resident()
                    .map(|t| self.threads[t].state == ProgramState::Runnable)
                    .unwrap_or(false);
                if resident_runnable {
                    continue;
                }
                if let Some(pos) = s
                    .threads
                    .iter()
                    .position(|&t| self.threads[t].state == ProgramState::Runnable)
                {
                    core.rotate_in(i, pos, now, penalty, quantum);
                    self.phase_events += 1;
                }
            }
        }
    }

    fn result(&self) -> RunResult {
        RunResult {
            cycles: self.now,
            threads: self
                .threads
                .iter()
                .map(|t| ThreadStats {
                    committed: t.committed,
                    start_cycle: t.start_cycle,
                    finish_cycle: t.finish_cycle,
                    blocked_cycles: t.blocked_cycles,
                })
                .collect(),
            cores: self.cores.iter().map(|c| c.stats().clone()).collect(),
            mem: self.mem.stats(),
            active_histogram: self.hist.clone(),
        }
    }

    /// The configuration this chip was built from.
    pub fn chip(&self) -> &ChipConfig {
        &self.chip
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Monotonic count of schedule-affecting events (barrier/lock
    /// traffic, thread finishes, context switches, slot reschedules) —
    /// the sampled-mode phase-change hook. See the field docs.
    pub fn phase_events(&self) -> u64 {
        self.phase_events
    }

    /// Shift every absolute *future-facing* timestamp in the machine
    /// forward by `delta` cycles — a uniform time translation
    /// (sampled-mode extrapolation, DESIGN.md §15).
    ///
    /// After the shift, simulation at cycle `now + delta` proceeds
    /// exactly as it would have at `now`: in-flight completion times
    /// (done-rings, calendar wheels, far calendars, fetch/issue wakes,
    /// MSHR and LLC fills, DRAM/bus queue heads) and the watchdog
    /// baseline all move together with the clock, while *past event
    /// records* (thread start/finish stamps) and durations (cycle and
    /// commit counters, histograms, blocked-time totals) stay put.
    /// `blocked_since` stamps shift so a thread blocked across the
    /// translation does not have the inserted span attributed to its
    /// blocked time. Verified by the shift-invariance property suite:
    /// a mid-run shift changes the final [`RunResult`] only by `delta`
    /// on the clock and on stamps recorded after the shift point.
    ///
    /// # Panics
    /// `delta` must be a multiple of the calendar-wheel span
    /// ([`WHEEL`]) so wheel entries keep their buckets.
    pub fn shift_time(&mut self, delta: Cycle) {
        assert_eq!(
            delta % WHEEL as u64,
            0,
            "time shift must be a multiple of the calendar-wheel span"
        );
        if delta == 0 {
            return;
        }
        for t in self.threads.iter_mut() {
            t.shift_time(delta);
        }
        for core in self.cores.iter_mut() {
            core.shift_time(delta);
        }
        self.mem.shift_time(delta);
        // Stale entries (threads currently runnable) are rewritten at
        // the next block; shifting them is harmless.
        for t in self.blocked_since.iter_mut() {
            *t += delta;
        }
        self.now += delta;
        self.wd_last_cycle += delta;
        // The cached memory next-event describes pre-shift state.
        self.mem_ev_cache = 0;
        self.mem_ev_version = u64::MAX;
    }

    /// Hash of everything a checkpoint does *not* serialize: the chip
    /// configuration, thread count and placement, program shapes and
    /// the ROI window. Restoring into a chip whose fingerprint differs
    /// is refused — the snapshot's mutable state would be meaningless.
    fn structural_fingerprint(&self) -> u64 {
        let placements: Vec<(usize, usize, Option<u64>, Option<u64>)> = self
            .threads
            .iter()
            .map(|t| (t.core, t.slot, t.program.warmup(), t.program.budget()))
            .collect();
        let desc = format!(
            "{:?}|{}|{}|{:?}|{:?}",
            self.chip,
            self.threads.len(),
            self.n_segmented,
            self.roi_barriers,
            placements
        );
        fnv1a64(desc.as_bytes())
    }
}

impl<S: TraceSink + SnapshotSink> MultiCore<S> {
    /// Serialize the complete mutable simulation state — every core's
    /// pipeline and scheduler, the memory hierarchy, thread programs,
    /// synchronization state, watchdog baselines and the trace sink —
    /// such that [`restore_state`](Self::restore_state) into a
    /// structurally-identical chip continues **bit-identically** to a
    /// run that was never interrupted (DESIGN.md §12).
    ///
    /// Structure (configs, thread placement) is not serialized; the
    /// caller rebuilds it deterministically and the restore validates
    /// a structural fingerprint plus per-section invariants.
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.marker(b"TLPS");
        w.u64(SNAP_VERSION);
        w.u64(self.structural_fingerprint());
        w.u64(self.now);
        w.usize(self.runnable);
        w.u64(self.total_committed);
        w.u64(self.watchdog_window);
        w.bool(self.recording);
        w.bool(self.run_active);
        w.u64(self.wd_last_commits);
        w.u64(self.wd_last_cycle);
        w.u64(self.skip_prev_committed);
        // Diagnostic only (excluded from RunResult), but serialized so
        // skip-ratio reporting stays meaningful across a restore.
        w.u64(self.skipped_cycles);
        w.u64(self.skip_windows);
        w.u64_slice(&self.hist);
        w.u64_slice(&self.blocked_since);
        // Hash maps are serialized in sorted key order so identical
        // states always produce identical bytes.
        let mut barriers: Vec<(u32, usize)> =
            self.barriers.iter().map(|(&id, &n)| (id, n)).collect();
        barriers.sort_unstable();
        w.usize(barriers.len());
        for (id, arrived) in barriers {
            w.u32(id);
            w.usize(arrived);
        }
        let mut locks: Vec<(u32, &LockState)> = self.locks.iter().map(|(&id, l)| (id, l)).collect();
        locks.sort_unstable_by_key(|&(id, _)| id);
        w.usize(locks.len());
        for (id, l) in locks {
            w.u32(id);
            w.opt_u64(l.held_by.map(|t| t as u64));
            w.usize(l.waiters.len());
            for &t in &l.waiters {
                w.usize(t);
            }
        }
        for t in &self.threads {
            t.snap_save(&mut w);
        }
        for c in &self.cores {
            c.snap_save(&mut w);
        }
        self.mem.snap_save(&mut w);
        self.sink.snap_save(&mut w);
        w.finish()
    }

    /// Restore state saved by [`save_state`](Self::save_state) into
    /// this chip. The chip must have been rebuilt structurally first
    /// (same configuration, same threads pinned to the same contexts,
    /// same ROI window); anything that disagrees is a typed
    /// [`SnapError`], never silent corruption. On success the next
    /// [`run_slice`](Self::run_slice) continues exactly where the
    /// saved run stopped.
    ///
    /// # Errors
    /// [`SnapError`] on version/fingerprint mismatch, truncation, or
    /// any structural disagreement; the chip may be partially
    /// overwritten and must not be used except to retry a restore.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        r.marker(b"TLPS")?;
        let ver = r.u64()?;
        snap_ensure(
            ver == SNAP_VERSION,
            format!("snapshot format v{ver}, this build reads v{SNAP_VERSION}"),
        )?;
        let fp = r.u64()?;
        snap_ensure(
            fp == self.structural_fingerprint(),
            "structural fingerprint mismatch: snapshot was taken of a different \
             chip/thread configuration",
        )?;
        self.now = r.u64()?;
        self.runnable = r.usize()?;
        self.total_committed = r.u64()?;
        self.watchdog_window = r.u64()?.max(1);
        self.recording = r.bool()?;
        self.run_active = r.bool()?;
        self.wd_last_commits = r.u64()?;
        self.wd_last_cycle = r.u64()?;
        self.skip_prev_committed = r.u64()?;
        self.skipped_cycles = r.u64()?;
        self.skip_windows = r.u64()?;
        let hist = r.u64_vec()?;
        snap_ensure(
            hist.len() == self.threads.len() + 1 || hist.is_empty(),
            format!(
                "histogram has {} bins for {} threads",
                hist.len(),
                self.threads.len()
            ),
        )?;
        self.hist = hist;
        let blocked_since = r.u64_vec()?;
        snap_ensure(
            blocked_since.len() == self.threads.len(),
            format!("blocked_since has {} entries", blocked_since.len()),
        )?;
        self.blocked_since = blocked_since;
        let nthreads = self.threads.len();
        let nbar = r.bounded_len()?;
        self.barriers.clear();
        for _ in 0..nbar {
            let id = r.u32()?;
            let arrived = r.usize()?;
            snap_ensure(
                arrived <= self.n_segmented,
                format!(
                    "barrier {id} arrival count {arrived} > {}",
                    self.n_segmented
                ),
            )?;
            self.barriers.insert(id, arrived);
        }
        let nlocks = r.bounded_len()?;
        self.locks.clear();
        for _ in 0..nlocks {
            let id = r.u32()?;
            let held_by = match r.opt_u64()? {
                Some(t) => {
                    let t = usize::try_from(t)
                        .map_err(|_| tlpsim_mem::snap_mismatch("lock holder id overflow"))?;
                    snap_ensure(t < nthreads, format!("lock {id} held by thread {t}"))?;
                    Some(t)
                }
                None => None,
            };
            let nwait = r.bounded_len()?;
            let mut waiters = std::collections::VecDeque::with_capacity(nwait);
            for _ in 0..nwait {
                let t = r.usize()?;
                snap_ensure(t < nthreads, format!("lock {id} waiter thread {t}"))?;
                waiters.push_back(t);
            }
            self.locks.insert(id, LockState { held_by, waiters });
        }
        for t in self.threads.iter_mut() {
            t.snap_restore(&mut r)?;
        }
        snap_ensure(
            self.runnable
                == self
                    .threads
                    .iter()
                    .filter(|t| t.state == ProgramState::Runnable)
                    .count(),
            "runnable count disagrees with restored thread states",
        )?;
        for c in self.cores.iter_mut() {
            c.snap_restore(&mut r, nthreads)?;
        }
        self.mem.snap_restore(&mut r)?;
        self.sink.snap_restore(&mut r)?;
        r.expect_end()?;
        // Rebuilt caches and scratch: drained-event buffers are empty
        // at every step boundary, and the cached memory next-event
        // describes pre-restore state.
        self.events.clear();
        self.events_scratch.clear();
        self.mem_ev_cache = 0;
        self.mem_ev_version = u64::MAX;
        Ok(())
    }
}

/// Counter/stat snapshot taken at the start of a detailed measurement
/// window, from which [`MultiCore::try_extrapolate`] derives
/// steady-state rates (sampled mode, DESIGN.md §15).
#[derive(Debug, Clone)]
pub struct SampleBaseline<S> {
    now: Cycle,
    thread_committed: Vec<u64>,
    cores: Vec<CoreStats>,
    mem: MemCounters,
    cpi: S,
}

/// The cumulative counters a [`SamplePolicy`] observes at the end of
/// each detailed window (sampled mode, DESIGN.md §15): exactly what the
/// phase detector reads, in a fixed layout. Every field is a monotonic
/// count, so the difference of two observations is that window's
/// activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowCounters {
    /// The machine's clock.
    pub cycles: Cycle,
    /// Committed instructions per software thread, by [`ThreadId`].
    pub committed: Vec<u64>,
    /// Chip-wide CPI-stack totals, by
    /// [`CpiComponent::index`](tlpsim_trace::CpiComponent::index).
    pub cpi: [u64; N_COMPONENTS],
    /// L1 data-cache hits, summed over cores.
    pub l1d_hits: u64,
    /// L1 data-cache misses, summed over cores.
    pub l1d_misses: u64,
    /// Private L2 hits, summed over cores.
    pub l2_hits: u64,
    /// Private L2 misses, summed over cores.
    pub l2_misses: u64,
    /// Shared LLC hits.
    pub llc_hits: u64,
    /// Shared LLC misses.
    pub llc_misses: u64,
    /// DRAM accesses served.
    pub dram_accesses: u64,
}

/// Sampled-run bookkeeping reported alongside the [`RunResult`]: how
/// much of the simulated time was stepped in detail versus advanced
/// analytically, and why re-entries happened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleStats {
    /// Cycles stepped by the detailed engine.
    pub detailed_cycles: Cycle,
    /// Cycles advanced analytically by extrapolation.
    pub extrapolated_cycles: Cycle,
    /// Number of extrapolation strides applied.
    pub extrapolations: u64,
    /// Measurement windows run in detail.
    pub windows: u64,
    /// Windows discarded because a phase-change event fired mid-window.
    pub phase_resets: u64,
    /// Extrapolation requests the engine refused (schedule not
    /// extrapolation-safe or no measured forward progress).
    pub refusals: u64,
}

impl SampleStats {
    /// Fraction of simulated cycles that were extrapolated rather than
    /// stepped (0 when nothing ran).
    pub fn extrapolated_fraction(&self) -> f64 {
        let total = self.detailed_cycles + self.extrapolated_cycles;
        if total == 0 {
            0.0
        } else {
            self.extrapolated_cycles as f64 / total as f64
        }
    }
}

/// Decision a [`SamplePolicy`] returns after observing one detailed
/// measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleDecision {
    /// Not (yet) steady: keep stepping detailed windows.
    Measure,
    /// Steady state detected: extrapolate up to `stride` cycles
    /// analytically, then re-enter detailed simulation.
    Extrapolate {
        /// Requested span; the engine may cap it (e.g. near the end of
        /// the run) and aligns it to the calendar-wheel span.
        stride: Cycle,
    },
}

/// Live phase-detection policy driving [`MultiCore::run_sampled`]: the
/// engine runs detailed measurement windows and asks the policy, after
/// each one, whether the machine has reached a steady state worth
/// extrapolating. The reference implementation (windowed counter-delta
/// comparison against a tolerance) lives in the `tlpsim-sample` crate.
pub trait SamplePolicy {
    /// Length of one detailed measurement window, in cycles (>= 1).
    fn window(&self) -> Cycle;

    /// Observe the machine's cumulative counters at the end of a
    /// detailed window and decide. Policies diff successive
    /// observations to obtain per-window rates.
    fn observe(&mut self, counters: &WindowCounters) -> SampleDecision;

    /// A phase-change event (barrier/lock traffic, thread completion,
    /// context switch) fired inside the last window, or an
    /// extrapolation was just applied: any accumulated steady-state
    /// evidence is stale and must be discarded.
    fn reset(&mut self);
}

impl<S: SampleSink> MultiCore<S> {
    /// Read the counters a [`SamplePolicy`] observes into `out`,
    /// reusing its per-thread buffer.
    fn window_counters(&self, out: &mut WindowCounters) {
        out.cycles = self.now;
        out.committed.clear();
        out.committed
            .extend(self.threads.iter().map(|t| t.committed));
        out.cpi = self.sink.chip_totals();
        let mem = self.mem.raw_counters();
        let sum = |f: fn(&CoreMemStats) -> u64| mem.per_core.iter().map(f).sum();
        out.l1d_hits = sum(|c| c.l1d_hits);
        out.l1d_misses = sum(|c| c.l1d_misses);
        out.l2_hits = sum(|c| c.l2_hits);
        out.l2_misses = sum(|c| c.l2_misses);
        out.llc_hits = mem.llc_hits;
        out.llc_misses = mem.llc_misses;
        out.dram_accesses = mem.dram_accesses;
    }

    /// Capture the extrapolation baseline at the start of a detailed
    /// measurement window.
    pub fn sample_baseline(&self) -> SampleBaseline<S> {
        SampleBaseline {
            now: self.now,
            thread_committed: self.threads.iter().map(|t| t.committed).collect(),
            cores: self.cores.iter().map(|c| c.stats().clone()).collect(),
            mem: self.mem.raw_counters(),
            cpi: self.sink.clone(),
        }
    }

    /// Analytically advance the machine by up to `stride` cycles using
    /// the steady-state rates measured since `base` (DESIGN.md §15).
    /// Returns the span actually applied, or `None` when the engine
    /// refuses:
    ///
    /// * any segmented (barrier/lock) thread exists — its stream
    ///   position gates synchronization and cannot be advanced
    ///   analytically,
    /// * any thread is blocked, or any context time-shares between
    ///   software threads (quantum switches are phase events), or
    /// * no unfinished thread committed during the window (no rate to
    ///   extrapolate — and extrapolating zero progress forever would
    ///   disguise a stall from the watchdog).
    ///
    /// On success the mechanism is **time-shift extrapolation**: every
    /// pending timestamp moves forward by the span
    /// ([`shift_time`](Self::shift_time)) so detailed simulation
    /// resumes with zero re-entry transient, and all counters (commits,
    /// per-class stats, CPI components, cache/DRAM/bus traffic, the
    /// active histogram) are credited at the measured window rates.
    /// Thread warmup/budget crossings that fall inside the span get
    /// linearly interpolated start/finish stamps. The span is capped
    /// so extrapolation does not race (far) past the estimated
    /// completion of the last thread, and is aligned up to the
    /// calendar-wheel span.
    pub fn try_extrapolate(&mut self, base: &SampleBaseline<S>, stride: Cycle) -> Option<Cycle> {
        let window = self.now.checked_sub(base.now).filter(|&w| w > 0)?;
        if stride == 0
            || self.n_segmented > 0
            || self.runnable != self.threads.len()
            || base.thread_committed.len() != self.threads.len()
        {
            return None;
        }
        if self
            .cores
            .iter()
            .any(|c| c.slots().iter().any(|s| s.threads.len() > 1))
        {
            return None;
        }
        let deltas: Vec<u64> = self
            .threads
            .iter()
            .zip(&base.thread_committed)
            .map(|(t, &b)| t.committed - b)
            .collect();
        // Cap the span at the estimated cycle by which the last
        // unfinished thread completes its budget at its measured rate.
        let mut rem_max: u128 = 0;
        let mut any_progress = false;
        for (t, &d) in self.threads.iter().zip(&deltas) {
            if t.finish_cycle.is_some() || d == 0 {
                continue;
            }
            let (w, b) = (t.program.warmup()?, t.program.budget()?);
            any_progress = true;
            let need = (w + b).saturating_sub(t.committed);
            let rem = (u128::from(need) * u128::from(window)).div_ceil(u128::from(d));
            rem_max = rem_max.max(rem);
        }
        if !any_progress {
            return None;
        }
        let capped = u128::from(stride).min(rem_max).max(1);
        let span = u64::try_from(capped)
            .unwrap_or(stride)
            .min(stride)
            .next_multiple_of(WHEEL as u64);

        self.shift_time(span);
        let span_start = self.now - span;
        // Interpolated cycle (within the span) at which `need` more
        // commits land, given `credit` commits over `span` cycles.
        let interp = |need: u64, credit: u64| -> Cycle {
            ((u128::from(need) * u128::from(span) / u128::from(credit)) as u64).min(span)
        };
        let mut credited_total = 0u64;
        for (t, &d) in self.threads.iter_mut().zip(&deltas) {
            let credit = (u128::from(d) * u128::from(span) / u128::from(window)) as u64;
            if credit == 0 {
                continue;
            }
            let before = t.committed;
            let after = before + credit;
            if let (Some(w), Some(b)) = (t.program.warmup(), t.program.budget()) {
                if t.start_cycle.is_none() && after >= w {
                    t.start_cycle = Some(span_start + interp(w.saturating_sub(before), credit));
                }
                if t.finish_cycle.is_none() && after >= w + b {
                    t.finish_cycle =
                        Some(span_start + interp((w + b).saturating_sub(before), credit));
                }
            }
            t.committed = after;
            credited_total += credit;
        }
        for (c, core) in self.cores.iter_mut().enumerate() {
            core.credit_stats_scaled(&base.cores[c], span, window);
        }
        self.mem.credit_scaled(&base.mem, span, window);
        self.sink.credit_scaled(&base.cpi, span, window);
        if self.recording {
            self.hist[self.runnable] += span;
        }
        self.total_committed += credited_total;
        // Re-anchor the watchdog and skip gates at the re-entry point:
        // the credited span is real progress.
        self.wd_last_commits = self.total_committed;
        self.wd_last_cycle = self.now;
        self.skip_prev_committed = self.total_committed;
        Some(span)
    }

    /// The sampled run loop (detect → extrapolate → verify; DESIGN.md
    /// §15): alternate detailed measurement windows (whose length the
    /// `policy` chooses) with analytic strides whenever the policy
    /// declares the machine steady. Phase-change events mid-window
    /// discard the window; refused extrapolations (see
    /// [`try_extrapolate`](Self::try_extrapolate)) fall back to
    /// detailed stepping, so a schedule sampling cannot handle runs
    /// exactly, just without speedup.
    ///
    /// # Errors
    /// Exactly [`run_slice`](Self::run_slice)'s errors: unpinned
    /// threads, stalls, or `limit` exceeded.
    pub fn run_sampled<P: SamplePolicy>(
        &mut self,
        policy: &mut P,
        limit: Cycle,
    ) -> Result<(RunResult, SampleStats), RunError> {
        let mut stats = SampleStats::default();
        let mut counters = WindowCounters::default();
        loop {
            let ev0 = self.phase_events;
            let base = self.sample_baseline();
            let t0 = self.now;
            let stop = t0.saturating_add(policy.window().max(1));
            match self.run_slice(limit, stop)? {
                RunStatus::Done(r) => {
                    stats.detailed_cycles += self.now - t0;
                    return Ok((r, stats));
                }
                RunStatus::Paused => {}
            }
            stats.detailed_cycles += self.now - t0;
            stats.windows += 1;
            if self.phase_events != ev0 {
                stats.phase_resets += 1;
                policy.reset();
                continue;
            }
            self.window_counters(&mut counters);
            match policy.observe(&counters) {
                SampleDecision::Measure => {}
                SampleDecision::Extrapolate { stride } => {
                    match self.try_extrapolate(&base, stride) {
                        Some(span) => {
                            stats.extrapolated_cycles += span;
                            stats.extrapolations += 1;
                            // Counters jumped discontinuously; the next
                            // window is a fresh measurement.
                            policy.reset();
                        }
                        None => stats.refusals += 1,
                    }
                }
            }
        }
    }
}
