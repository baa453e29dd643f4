//! # tlpsim-core — the multi-core design-space study
//!
//! This crate is the paper's contribution proper: it assembles the
//! substrates (cycle-level simulator, synthetic workloads, scheduler,
//! power model) into the design-space exploration of *"The Benefit of
//! SMT in the Multi-Core Era: Flexibility towards Degrees of
//! Thread-Level Parallelism"* (ASPLOS 2014):
//!
//! * [`configs`] — the nine power-equivalent multi-core designs of
//!   Figure 2 (4B, 3B2m, 3B5s, 2B4m, 2B10s, 1B6m, 1B15s, 8m, 20s) plus
//!   the Section 8 variants (larger caches, higher frequency, doubled
//!   memory bandwidth);
//! * [`metrics`] — system throughput (STP / weighted speedup), average
//!   normalized turnaround time (ANTT), and the aggregation rules the
//!   paper uses (harmonic mean across workloads for rate metrics,
//!   time-weighted means across thread-count distributions);
//! * [`ctx`] — the memoizing experiment context: isolated-benchmark
//!   profiling, multi-program cell simulation (a *cell* is one
//!   (design, thread count, workload class, SMT mode) point averaged
//!   over 12 workloads), PARSEC-like application runs, and a parallel
//!   sweep executor;
//! * [`experiments`] — one driver per figure of the paper, each
//!   returning the figure's series ready for printing;
//! * [`dynamic`] — the idealized dynamic (core-fusion) multi-core of
//!   Section 6, modeled as the per-thread-count oracle over the nine
//!   static designs.
//!
//! # Example
//!
//! ```no_run
//! use tlpsim_core::{ctx::Ctx, configs, SimScale};
//!
//! let ctx = Ctx::new(SimScale::quick());
//! let cell = ctx.mp_cell(&configs::by_name("4B").unwrap(), 4,
//!                        tlpsim_core::ctx::WorkloadKind::Homogeneous, true)
//!     .expect("cell simulates");
//! println!("4B @ 4 threads: STP = {:.2}", cell.mean_stp());
//! ```

pub mod client;
pub mod configs;
pub mod ctx;
pub mod daemon;
pub mod diskcache;
pub mod dynamic;
pub mod error;
pub mod executor;
pub mod experiments;
pub mod framedlog;
pub mod interrupt;
pub mod journal;
pub mod metrics;
pub mod mode;
pub mod net;
pub mod serve;
pub mod settings;
pub mod snapshot;
pub mod worker;

pub use error::SimError;

/// Simulation scaling knobs (see DESIGN.md §6). The paper simulates
/// 750M-instruction SimPoints; we pre-warm caches functionally and
/// measure a scaled window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimScale {
    /// Timed warmup instructions per thread before the measured window.
    pub warmup: u64,
    /// Measured instructions per thread (multi-program runs).
    pub budget: u64,
    /// Per-phase parallel work of a PARSEC-like app instantiation.
    pub parsec_phase: u64,
    /// Base seed for all streams.
    pub seed: u64,
}

impl SimScale {
    /// 3k warmup + 8k measured instructions per thread, 12k-instruction
    /// PARSEC phases: the scale of the CLI, the bench targets (unless
    /// `TLPSIM_SCALE=standard`), `all_figures`, `tests/findings.rs` and
    /// EXPERIMENTS.md. A cold `all_figures` run takes about 15 minutes
    /// on two CPUs.
    pub fn quick() -> Self {
        SimScale {
            warmup: 3_000,
            budget: 8_000,
            parsec_phase: 12_000,
            seed: 42,
        }
    }

    /// Roughly triple the quick windows, for checking that a finding
    /// holds at a larger scale; the bench targets select it with
    /// `TLPSIM_SCALE=standard`.
    pub fn standard() -> Self {
        SimScale {
            warmup: 8_000,
            budget: 24_000,
            parsec_phase: 40_000,
            seed: 42,
        }
    }
}

/// The thread counts at which sweep experiments sample the 1..=24
/// range (dense enough for curve shape, cheap enough to simulate —
/// this host is single-core, so every simulated chip-cycle is paid
/// serially).
pub const SWEEP_COUNTS: [usize; 9] = [1, 2, 4, 6, 8, 12, 16, 20, 24];
