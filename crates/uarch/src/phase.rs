//! In-repo phase attribution for the dense stepper (DESIGN.md §14).
//!
//! External profilers are unreliable in the CI containers (sampling
//! timers are throttled and `rdtsc` is trapped, costing hundreds of
//! cycles per read — bracket timing measures the trap, not the code).
//! The hot loop therefore does the cheapest possible thing: when
//! `TLPSIM_PHASE_PROF=1`, each per-cycle phase (commit / issue-scan /
//! wheel-maturation / fetch / memory) publishes itself in a process
//! global with one relaxed store on entry and one on exit. A sampling
//! thread (perfbench's traced run, `--trace 1`, reported as
//! `uarch.phase.*`) polls [`current`] on a fixed cadence and
//! histograms what it sees — unbiased wall-time shares
//! with no clock reads in the simulation thread at all. Disabled (the
//! default), every probe is one well-predicted branch on a
//! lazily-initialized flag, so the production path pays nothing
//! measurable.
//!
//! Phases nest (memory accesses are issued from inside the issue scan
//! and fetch): [`enter`] swaps the global and returns the previous
//! value, [`leave`] restores it, so inner spans attribute to the inner
//! phase and the enclosing phase resumes afterwards — the sampled
//! analogue of "memory time is excluded from the enclosing phase".

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// The dense-cycle phases perfbench reports as `uarch.phase.*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Commit scan: retiring completed window heads.
    Commit = 0,
    /// Issue scan: candidate merge, FU arbitration, wake chains
    /// (memory accesses excluded).
    Issue = 1,
    /// Calendar-wheel maturation sweeps.
    Mature = 2,
    /// Fetch/dispatch: staging, dependence resolution, ROB insert
    /// (I-cache accesses excluded).
    Fetch = 3,
    /// Memory-hierarchy accesses (data + instruction).
    Memory = 4,
}

/// Number of attributed phases. [`OTHER`] (= `N_PHASES`) is everything
/// else: the engine loop, drain resolution, event scans,
/// histogramming.
pub const N_PHASES: usize = 5;

/// The [`current`] value outside any phase bracket.
pub const OTHER: u8 = N_PHASES as u8;

/// Human-readable phase names, indexed like the sample histogram.
pub const PHASE_NAMES: [&str; N_PHASES] = [
    "commit",
    "issue-scan",
    "wheel-maturation",
    "fetch",
    "memory",
];

/// The phase the simulation thread is in right now (one of the
/// `Phase` discriminants, or [`OTHER`]). Relaxed accesses only: the
/// sampler tolerates staleness of a few nanoseconds.
static CURRENT: AtomicU8 = AtomicU8::new(OTHER);

/// Whether phase publication is active (decided once per process from
/// `TLPSIM_PHASE_PROF`).
#[inline]
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED
        .get_or_init(|| std::env::var("TLPSIM_PHASE_PROF").is_ok_and(|v| !v.is_empty() && v != "0"))
}

/// Enter a phase bracket: publish `p` and return the previous phase
/// for [`leave`]. A no-op returning [`OTHER`] when publication is off.
#[inline]
pub fn enter(p: Phase) -> u8 {
    if !enabled() {
        return OTHER;
    }
    CURRENT.swap(p as u8, Ordering::Relaxed)
}

/// Leave a phase bracket opened by [`enter`], restoring the enclosing
/// phase.
#[inline]
pub fn leave(prev: u8) {
    if enabled() {
        CURRENT.store(prev, Ordering::Relaxed);
    }
}

/// Run `f` attributed to [`Phase::Memory`].
#[inline]
pub fn timed_mem<T>(f: impl FnOnce() -> T) -> T {
    let prev = enter(Phase::Memory);
    let r = f();
    leave(prev);
    r
}

/// The currently published phase (the sampler's read side).
#[inline]
pub fn current() -> u8 {
    CURRENT.load(Ordering::Relaxed)
}
