//! What a software thread executes: an instruction supply plus the
//! control structure around it (budgets, barriers, critical sections).

use tlpsim_workloads::{InstrStream, Segment};

use crate::Cycle;

/// Scheduling-relevant state of a software thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramState {
    /// Has instructions to execute.
    Runnable,
    /// Waiting at a barrier (yielded its core).
    AtBarrier(u32),
    /// Waiting for a lock (yielded its core).
    WaitingLock(u32),
    /// All segments finished.
    Finished,
}

/// What the program hands the fetch stage next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FetchOutcome {
    /// A fetchable instruction.
    Instr(tlpsim_workloads::Instr),
    /// The thread must block once its in-flight instructions drain.
    Block(ProgramState),
    /// The thread is done once its in-flight instructions drain.
    Finish,
}

/// The program executed by one software thread.
///
/// Two flavours mirror the paper's two workload classes:
///
/// * [`ThreadProgram::multiprogram`]: an unbounded stream with an
///   instruction *budget*; the engine records the cycle at which the
///   budget commits (the paper restarts programs so that the machine
///   stays fully loaded until every program has executed its sample, so
///   the stream keeps supplying instructions after the budget).
/// * [`ThreadProgram::segmented`]: a PARSEC-like thread: compute
///   segments interleaved with barriers and critical sections.
#[derive(Debug, Clone)]
pub struct ThreadProgram {
    stream: InstrStream,
    kind: ProgramKind,
}

#[derive(Debug, Clone)]
enum ProgramKind {
    Multiprogram {
        warmup: u64,
        budget: u64,
    },
    Segmented {
        segments: Vec<Segment>,
        /// Index of the current segment.
        pos: usize,
        /// Instructions left in the current compute/critical segment.
        remaining: u64,
        /// Set while inside a critical section (lock currently held).
        holding_lock: Option<u32>,
        /// Set once the engine granted the lock for the segment at `pos`.
        lock_granted: bool,
    },
}

impl ThreadProgram {
    /// A single-threaded program: `budget` instructions measured, stream
    /// continues indefinitely (multi-program methodology, Section 3.2).
    ///
    /// A default warmup of `budget / 2` instructions runs before the
    /// measurement window to populate the caches, mirroring the
    /// simulation warmup of the paper's SimPoint methodology. Use
    /// [`multiprogram_with_warmup`](Self::multiprogram_with_warmup) for
    /// explicit control.
    pub fn multiprogram(stream: InstrStream, budget: u64) -> Self {
        let warmup = budget / 2;
        Self::multiprogram_with_warmup(stream, warmup, budget)
    }

    /// Like [`multiprogram`](Self::multiprogram) with an explicit warmup
    /// instruction count (may be 0).
    pub fn multiprogram_with_warmup(stream: InstrStream, warmup: u64, budget: u64) -> Self {
        assert!(budget > 0, "budget must be positive");
        ThreadProgram {
            stream,
            kind: ProgramKind::Multiprogram { warmup, budget },
        }
    }

    /// One thread of a multi-threaded application.
    pub fn segmented(stream: InstrStream, segments: Vec<Segment>) -> Self {
        ThreadProgram {
            stream,
            kind: ProgramKind::Segmented {
                segments,
                pos: 0,
                remaining: 0,
                holding_lock: None,
                lock_granted: false,
            },
        }
    }

    /// Pre-warm footprint of the underlying stream (see
    /// [`InstrStream::prewarm_runs`]).
    pub fn prewarm_runs(&self) -> Vec<tlpsim_mem::LineRun> {
        self.stream.prewarm_runs()
    }

    /// The pre-warm footprint line by line (see
    /// [`InstrStream::prewarm_addrs`]).
    pub fn prewarm_addrs(&self) -> Vec<(bool, tlpsim_mem::Addr)> {
        self.stream.prewarm_addrs()
    }

    /// Instruction budget for multiprogram threads (None for segmented).
    pub fn budget(&self) -> Option<u64> {
        match &self.kind {
            ProgramKind::Multiprogram { budget, .. } => Some(*budget),
            ProgramKind::Segmented { .. } => None,
        }
    }

    /// Warmup instructions before the measurement window (multiprogram).
    pub fn warmup(&self) -> Option<u64> {
        match &self.kind {
            ProgramKind::Multiprogram { warmup, .. } => Some(*warmup),
            ProgramKind::Segmented { .. } => None,
        }
    }

    /// Called by the engine's fetch stage. Advances segment state.
    pub(crate) fn next_fetch(&mut self) -> FetchOutcome {
        match &mut self.kind {
            ProgramKind::Multiprogram { .. } => {
                FetchOutcome::Instr(self.stream.next().expect("stream is unbounded"))
            }
            ProgramKind::Segmented {
                segments,
                pos,
                remaining,
                holding_lock,
                lock_granted,
            } => {
                loop {
                    if *remaining > 0 {
                        *remaining -= 1;
                        return FetchOutcome::Instr(
                            self.stream.next().expect("stream is unbounded"),
                        );
                    }
                    // Current segment exhausted; release any held lock.
                    if holding_lock.is_some() {
                        // Engine observes the release via take_release().
                        return FetchOutcome::Block(ProgramState::Runnable);
                    }
                    let Some(seg) = segments.get(*pos) else {
                        return FetchOutcome::Finish;
                    };
                    match *seg {
                        Segment::Compute { instrs } => {
                            *pos += 1;
                            if instrs == 0 {
                                continue;
                            }
                            *remaining = instrs;
                        }
                        Segment::Barrier { id } => {
                            *pos += 1;
                            return FetchOutcome::Block(ProgramState::AtBarrier(id));
                        }
                        Segment::Critical { lock, instrs } => {
                            if *lock_granted {
                                *lock_granted = false;
                                *pos += 1;
                                *holding_lock = Some(lock);
                                if instrs == 0 {
                                    return FetchOutcome::Block(ProgramState::Runnable);
                                }
                                *remaining = instrs;
                            } else {
                                return FetchOutcome::Block(ProgramState::WaitingLock(lock));
                            }
                        }
                    }
                }
            }
        }
    }

    /// If the thread just finished a critical section, returns the lock
    /// to release (the engine calls this after every drained block).
    pub(crate) fn take_release(&mut self) -> Option<u32> {
        match &mut self.kind {
            ProgramKind::Segmented { holding_lock, .. } => holding_lock.take(),
            _ => None,
        }
    }

    /// The engine granted the lock this thread was waiting for.
    pub(crate) fn grant_lock(&mut self) {
        if let ProgramKind::Segmented { lock_granted, .. } = &mut self.kind {
            *lock_granted = true;
        }
    }

    /// Serialize the program's mutable state: the stream cursor plus
    /// the segment position. Budgets and the segment list itself are
    /// structural (deterministic from the cell) and only validated.
    pub(crate) fn snap_save(&self, w: &mut tlpsim_mem::SnapWriter) {
        w.marker(b"PROG");
        self.stream.snap_save(w);
        match &self.kind {
            ProgramKind::Multiprogram { warmup, budget } => {
                w.u8(0);
                w.u64(*warmup);
                w.u64(*budget);
            }
            ProgramKind::Segmented {
                segments,
                pos,
                remaining,
                holding_lock,
                lock_granted,
            } => {
                w.u8(1);
                w.usize(segments.len());
                w.usize(*pos);
                w.u64(*remaining);
                match holding_lock {
                    Some(id) => {
                        w.bool(true);
                        w.u32(*id);
                    }
                    None => {
                        w.bool(false);
                        w.u32(0);
                    }
                }
                w.bool(*lock_granted);
            }
        }
    }

    /// Restore state saved by [`snap_save`](Self::snap_save).
    pub(crate) fn snap_restore(
        &mut self,
        r: &mut tlpsim_mem::SnapReader<'_>,
    ) -> Result<(), tlpsim_mem::SnapError> {
        use tlpsim_mem::{snap_ensure, snap_mismatch};
        r.marker(b"PROG")?;
        self.stream.snap_restore(r)?;
        let tag = r.u8()?;
        match (&mut self.kind, tag) {
            (ProgramKind::Multiprogram { warmup, budget }, 0) => {
                let sw = r.u64()?;
                let sb = r.u64()?;
                snap_ensure(
                    sw == *warmup && sb == *budget,
                    format!(
                        "multiprogram warmup/budget: structure {warmup}/{budget}, \
                         snapshot {sw}/{sb}"
                    ),
                )?;
            }
            (
                ProgramKind::Segmented {
                    segments,
                    pos,
                    remaining,
                    holding_lock,
                    lock_granted,
                },
                1,
            ) => {
                let nseg = r.usize()?;
                snap_ensure(
                    nseg == segments.len(),
                    format!("program has {} segments, snapshot {nseg}", segments.len()),
                )?;
                let p = r.usize()?;
                snap_ensure(
                    p <= segments.len(),
                    format!("segment position {p} past {} segments", segments.len()),
                )?;
                *pos = p;
                *remaining = r.u64()?;
                let held = r.bool()?;
                let id = r.u32()?;
                *holding_lock = held.then_some(id);
                *lock_granted = r.bool()?;
            }
            _ => return Err(snap_mismatch(format!("program kind tag {tag}"))),
        }
        Ok(())
    }
}

/// Per-thread dependence-tracking ring: done-times of the last
/// [`RING`] dynamic instructions.
pub(crate) const RING: usize = 1024;

/// Bookkeeping the engine keeps per software thread, including the
/// pipeline state that survives context switches (staged instruction,
/// sequence numbers, dependence ring).
#[derive(Debug)]
pub(crate) struct ThreadCtl {
    pub program: ThreadProgram,
    pub state: ProgramState,
    /// Committed instructions.
    pub committed: u64,
    /// Cycle at which the warmup window ended (measurement start).
    pub start_cycle: Option<Cycle>,
    /// Cycle the multiprogram budget committed (or segmented finished).
    pub finish_cycle: Option<Cycle>,
    /// Cycles spent blocked (barrier/lock).
    pub blocked_cycles: u64,
    /// Assigned core (usize::MAX until pinned).
    pub core: usize,
    /// Assigned hardware context slot on that core.
    pub slot: usize,
    /// Instruction pulled from the program but not yet dispatched.
    pub staged: Option<tlpsim_workloads::Instr>,
    /// Last I-cache line fetched (for fetch-line-crossing detection).
    pub last_fetch_line: Option<tlpsim_mem::LineAddr>,
    /// Next dynamic sequence number.
    pub next_seq: u64,
    /// done-at times of recent instructions, indexed by `seq % RING`.
    pub done_ring: Vec<Cycle>,
}

impl ThreadCtl {
    pub(crate) fn new(program: ThreadProgram) -> Self {
        ThreadCtl {
            program,
            state: ProgramState::Runnable,
            committed: 0,
            start_cycle: None,
            finish_cycle: None,
            blocked_cycles: 0,
            core: usize::MAX,
            slot: usize::MAX,
            staged: None,
            last_fetch_line: None,
            next_seq: 0,
            done_ring: vec![0; RING],
        }
    }

    /// Shift the in-flight pipeline stamps forward by `delta`
    /// (sampled-mode time translation, DESIGN.md §15). Done-ring
    /// entries saturate: `Cycle::MAX` is a live sentinel for
    /// not-yet-done instructions and must stay `MAX`. `start_cycle`
    /// and `finish_cycle` are *past event records* (they feed reported
    /// [`ThreadStats`](crate::ThreadStats)) and deliberately do not
    /// move; counters (`committed`, `blocked_cycles`) and sequence
    /// numbers are durations/ordinals, not instants, and are likewise
    /// untouched.
    pub(crate) fn shift_time(&mut self, delta: Cycle) {
        for t in &mut self.done_ring {
            *t = t.saturating_add(delta);
        }
    }

    /// Serialize everything mutable about this thread, including the
    /// pipeline state that survives context switches. The (core, slot)
    /// pin is structural and only validated on restore.
    pub(crate) fn snap_save(&self, w: &mut tlpsim_mem::SnapWriter) {
        w.marker(b"THRD");
        self.program.snap_save(w);
        crate::snapio::save_pstate(self.state, w);
        w.u64(self.committed);
        w.opt_u64(self.start_cycle);
        w.opt_u64(self.finish_cycle);
        w.u64(self.blocked_cycles);
        w.usize(self.core);
        w.usize(self.slot);
        match &self.staged {
            Some(i) => {
                w.bool(true);
                crate::snapio::save_instr(i, w);
            }
            None => w.bool(false),
        }
        w.opt_u64(self.last_fetch_line.map(|l| l.0));
        w.u64(self.next_seq);
        w.u64_slice(&self.done_ring);
    }

    /// Restore state saved by [`snap_save`](Self::snap_save).
    pub(crate) fn snap_restore(
        &mut self,
        r: &mut tlpsim_mem::SnapReader<'_>,
    ) -> Result<(), tlpsim_mem::SnapError> {
        use tlpsim_mem::snap_ensure;
        r.marker(b"THRD")?;
        self.program.snap_restore(r)?;
        self.state = crate::snapio::load_pstate(r)?;
        self.committed = r.u64()?;
        self.start_cycle = r.opt_u64()?;
        self.finish_cycle = r.opt_u64()?;
        self.blocked_cycles = r.u64()?;
        let core = r.usize()?;
        let slot = r.usize()?;
        snap_ensure(
            core == self.core && slot == self.slot,
            format!(
                "thread pinned to core {}.{}, snapshot says {core}.{slot}",
                self.core, self.slot
            ),
        )?;
        self.staged = if r.bool()? {
            Some(crate::snapio::load_instr(r)?)
        } else {
            None
        };
        self.last_fetch_line = r.opt_u64()?.map(tlpsim_mem::LineAddr);
        self.next_seq = r.u64()?;
        let ring = r.u64_vec()?;
        snap_ensure(
            ring.len() == RING,
            format!("done ring has {} entries, expected {RING}", ring.len()),
        )?;
        self.done_ring = ring;
        Ok(())
    }
}
