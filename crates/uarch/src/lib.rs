//! # tlpsim-uarch — cycle-stepped multi-core simulator
//!
//! The execution engine reproducing the paper's Sniper-based setup: a
//! multi-core of big (4-wide out-of-order), medium (2-wide out-of-order)
//! and small (2-wide in-order) cores per Table 1, with SMT support:
//!
//! * **out-of-order cores** model a reorder buffer with *static
//!   per-thread partitioning* and a *round-robin fetch policy* (the
//!   paper's SMT model, after Raasch & Reinhardt), per-class functional
//!   units shared across SMT contexts each cycle, oldest-ready issue,
//!   non-blocking loads through the [`tlpsim_mem`] hierarchy, and
//!   fetch-redirect branch-misprediction penalties;
//! * **in-order cores** are scoreboarded 2-wide pipelines with
//!   fine-grained multithreading over 2 hardware contexts;
//! * the **engine** ([`MultiCore`]) steps all cores cycle by cycle,
//!   routes memory accesses, implements OS-level behaviour — threads
//!   blocked on barriers/locks *yield the core* (freeing the SMT
//!   context), surplus threads time-share a context round-robin when
//!   SMT is disabled — and samples the active-thread histogram that
//!   reproduces Figure 1.
//!
//! The simulator is trace-driven in the statistical sense: instruction
//! streams come from [`tlpsim_workloads`] generators; wrong-path
//! execution is approximated by fetch-redirect stalls, the standard
//! trace-driven treatment.
//!
//! # Example: one big SMT core running two programs
//!
//! ```
//! use tlpsim_uarch::{ChipConfig, CoreConfig, MultiCore, ThreadProgram};
//! use tlpsim_workloads::{spec, InstrStream};
//!
//! let chip = ChipConfig::homogeneous(1, CoreConfig::big(), 2.66);
//! let mut sim = MultiCore::new(&chip);
//! for (i, prof) in [spec::hmmer_like(), spec::mcf_like()].iter().enumerate() {
//!     let t = sim.add_thread(ThreadProgram::multiprogram(
//!         InstrStream::new(prof, i as u64, 42),
//!         10_000,
//!     ));
//!     sim.pin(t, 0, i); // both on core 0, SMT contexts 0 and 1
//! }
//! let result = sim.run().expect("no deadlock");
//! assert!(result.threads.iter().all(|t| t.finish_cycle.is_some()));
//! ```

#[doc(hidden)]
pub mod calwheel;
mod config;
mod core_model;
mod engine;
pub mod phase;
mod program;
mod snapio;
mod stats;

pub use config::{ChipConfig, CoreClass, CoreConfig, FetchPolicy, FuConfig, RobSharing};
pub use core_model::CoreModel;
pub use engine::{
    ContextSnapshot, LockSnapshot, MultiCore, RunError, RunStatus, SampleBaseline, SampleDecision,
    SamplePolicy, SampleStats, StallSnapshot, WindowCounters, DEFAULT_WATCHDOG_CYCLES,
};
pub use program::{ProgramState, ThreadProgram};
pub use snapio::SnapshotSink;
pub use stats::{CoreStats, RunResult, ThreadStats};

/// Identifies a software thread within one simulation.
pub type ThreadId = usize;

pub use tlpsim_mem::Cycle;

/// Re-exported observability surface: construct a [`MultiCore`] with
/// [`MultiCore::with_sink`] and one of these sinks to collect CPI
/// stacks and/or structural events.
pub use tlpsim_trace::{
    ChipCpi, CounterSnapshot, CounterValue, CpiComponent, CpiStacks, NopSink, SampleSink,
    TraceSink, Tracer, N_COMPONENTS,
};
