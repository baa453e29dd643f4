//! # tlpsim-sample — interval-model sampled simulation
//!
//! Wraps the detailed engine ([`tlpsim_uarch::MultiCore`]) in a
//! **detect → extrapolate → verify** loop (DESIGN.md §15):
//!
//! 1. a [`SteadyDetector`] watches windowed deltas of the engine's
//!    typed [`WindowCounters`](tlpsim_uarch::WindowCounters) —
//!    per-thread commit rates, chip-level CPI-stack shares, cache miss
//!    rates — and declares a stable phase when two successive windows
//!    agree within a configurable tolerance;
//! 2. an [`IntervalPolicy`] then asks the engine to advance a large
//!    stride analytically (time-shift extrapolation at the measured
//!    steady-state rates), re-entering detailed simulation every
//!    stride and on any phase-change signal (barrier/lock traffic,
//!    thread completion, context switches);
//! 3. the accuracy harness ([`compare_results`]) quantifies
//!    sampled-vs-detailed error per metric so every use of the mode is
//!    accompanied by a measured bound rather than a hope.
//!
//! The extrapolation mechanism itself lives in the engine
//! ([`MultiCore::run_sampled`], [`MultiCore::try_extrapolate`]), over
//! any [`SampleSink`]: [`ChipCpi`](tlpsim_uarch::ChipCpi) keeps only
//! the chip-level CPI totals the detector reads,
//! [`CpiStacks`](tlpsim_uarch::CpiStacks) also keeps per-context
//! stacks, and both give bit-identical runs. This crate supplies the
//! policy that drives the engine and the validation tooling around it.
//! Runs whose schedule is not extrapolation-safe
//! (segmented/synchronizing threads, time-shared contexts) degrade
//! gracefully: every stride is refused and the run completes fully
//! detailed, bit-identical to exact mode minus the wall-clock win.
//!
//! ```
//! use tlpsim_sample::{run_sampled, SampleConfig};
//! use tlpsim_uarch::{ChipConfig, ChipCpi, CoreConfig, MultiCore, ThreadProgram};
//! use tlpsim_workloads::{spec, InstrStream};
//!
//! let chip = ChipConfig::homogeneous(1, CoreConfig::big(), 2.66);
//! let mut sim = MultiCore::with_sink(&chip, ChipCpi::new());
//! let t = sim.add_thread(ThreadProgram::multiprogram(
//!     InstrStream::new(&spec::hmmer_like(), 0, 42),
//!     20_000,
//! ));
//! sim.pin(t, 0, 0);
//! let (result, stats) = run_sampled(&mut sim, SampleConfig::default(), 1 << 40).unwrap();
//! assert!(result.threads[0].finish_cycle.is_some());
//! assert!(stats.detailed_cycles > 0);
//! ```

mod accuracy;
mod detector;
mod policy;

pub use accuracy::{compare_results, stack_share_abs_err, AccuracyReport};
pub use detector::SteadyDetector;
pub use policy::IntervalPolicy;

use std::fmt;
use tlpsim_uarch::{Cycle, MultiCore, RunError, RunResult, SampleSink, SampleStats};

/// Hard floor on the measurement window: one calendar-wheel span, so a
/// window always observes at least one full wheel rotation.
pub const MIN_WINDOW: u32 = 64;
/// Hard ceiling on window and stride — far above anything useful, it
/// only exists so a typo in `TLPSIM_SAMPLE` cannot request a stride
/// that overflows span arithmetic downstream.
pub const MAX_STRIDE: u32 = 1 << 30;

/// Sampled-mode tuning knobs, settable from the CLI via `--sampled`
/// and the `TLPSIM_SAMPLE=window:N,stride:N,tol:F` environment
/// variable (see [`SampleConfig::parse`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleConfig {
    /// Detailed measurement window, in cycles.
    pub window: u32,
    /// Maximum analytic stride per extrapolation, in cycles.
    pub stride: u32,
    /// Steady-state tolerance in parts-per-million (integer, so the
    /// config stays `Eq + Hash` and can key caches/journals):
    /// successive windows whose rate vectors agree within
    /// `tol_ppm / 1e6` (scale-aware, see [`SteadyDetector`]) mark a
    /// stable phase.
    pub tol_ppm: u32,
}

impl Default for SampleConfig {
    /// Window 2048 / stride 65536 / tolerance 2%: conservative enough
    /// that the 12-profile accuracy regression measures ≤2% CPI error
    /// even on drifting memory-bound profiles (libquantum is the
    /// binding constraint — larger default strides push it past 2%).
    /// Truly steady compute-bound cells tolerate much longer strides:
    /// at `stride:262144` the four-core hmmer cell stays within 2% CPI
    /// error (`tests/accuracy.rs`) and extrapolates over 90% of its
    /// cycles (`tests/golden.rs`).
    fn default() -> Self {
        SampleConfig {
            window: 2048,
            stride: 65_536,
            tol_ppm: 20_000,
        }
    }
}

/// A malformed or out-of-range sampling spec. The CLI turns a bad
/// `TLPSIM_SAMPLE` into a diagnostic and exit code 2 at startup,
/// before any simulation begins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleSpecError(String);

impl fmt::Display for SampleSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid sampling spec: {} (expected comma-separated \
             `window:N`, `stride:N`, `tol:F`, e.g. \
             `window:2048,stride:65536,tol:0.05`)",
            self.0
        )
    }
}

impl std::error::Error for SampleSpecError {}

impl SampleConfig {
    /// Tolerance as a fraction.
    pub fn tol(&self) -> f64 {
        f64::from(self.tol_ppm) / 1e6
    }

    /// Parse a `window:N,stride:N,tol:F` spec (each key optional,
    /// unmentioned knobs keep their defaults). Strict: unknown keys,
    /// duplicates, unparsable numbers and out-of-range values are all
    /// errors — a misconfigured sampling run must fail loudly at
    /// startup, not silently sample with garbage parameters.
    pub fn parse(spec: &str) -> Result<SampleConfig, SampleSpecError> {
        let mut cfg = SampleConfig::default();
        let mut seen = [false; 3];
        for part in spec.split(',') {
            let part = part.trim();
            let (key, value) = part
                .split_once(':')
                .ok_or_else(|| SampleSpecError(format!("`{part}` is not `key:value`")))?;
            let idx = match key {
                "window" => 0,
                "stride" => 1,
                "tol" => 2,
                _ => return Err(SampleSpecError(format!("unknown key `{key}`"))),
            };
            if seen[idx] {
                return Err(SampleSpecError(format!("duplicate key `{key}`")));
            }
            seen[idx] = true;
            match key {
                "window" => {
                    cfg.window = value
                        .parse()
                        .map_err(|_| SampleSpecError(format!("`{value}` is not a valid window")))?
                }
                "stride" => {
                    cfg.stride = value
                        .parse()
                        .map_err(|_| SampleSpecError(format!("`{value}` is not a valid stride")))?
                }
                _ => {
                    let tol: f64 = value
                        .parse()
                        .map_err(|_| SampleSpecError(format!("`{value}` is not a valid tol")))?;
                    if !tol.is_finite() || tol <= 0.0 || tol > 0.5 {
                        return Err(SampleSpecError(format!("tol {tol} out of range (0, 0.5]")));
                    }
                    cfg.tol_ppm = (tol * 1e6).round() as u32;
                }
            }
        }
        cfg.validate().map_err(SampleSpecError)?;
        Ok(cfg)
    }

    /// Range-check the knobs; `Err` holds a human-readable reason.
    pub fn validate(&self) -> Result<(), String> {
        if self.window < MIN_WINDOW {
            return Err(format!("window {} below minimum {MIN_WINDOW}", self.window));
        }
        if self.stride < self.window {
            return Err(format!(
                "stride {} smaller than window {}",
                self.stride, self.window
            ));
        }
        if self.stride > MAX_STRIDE {
            return Err(format!("stride {} above maximum {MAX_STRIDE}", self.stride));
        }
        if self.tol_ppm == 0 || self.tol_ppm > 500_000 {
            return Err(format!("tol_ppm {} out of range (0, 500000]", self.tol_ppm));
        }
        Ok(())
    }
}

/// Run `sim` to completion in sampled mode with the reference
/// interval-model policy. Exactly [`MultiCore::run_sampled`] with an
/// [`IntervalPolicy`] built from `cfg`.
///
/// # Errors
/// Exactly [`MultiCore::run_sampled`]'s errors (unpinned threads,
/// stalls, cycle `limit` exceeded).
pub fn run_sampled<S: SampleSink>(
    sim: &mut MultiCore<S>,
    cfg: SampleConfig,
    limit: Cycle,
) -> Result<(RunResult, SampleStats), RunError> {
    let mut policy = IntervalPolicy::new(cfg);
    sim.run_sampled(&mut policy, limit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let cfg = SampleConfig::parse("window:512,stride:8192,tol:0.02").unwrap();
        assert_eq!(
            cfg,
            SampleConfig {
                window: 512,
                stride: 8192,
                tol_ppm: 20_000
            }
        );
    }

    #[test]
    fn parse_partial_spec_keeps_defaults() {
        let cfg = SampleConfig::parse("stride:131072").unwrap();
        assert_eq!(cfg.window, SampleConfig::default().window);
        assert_eq!(cfg.stride, 131_072);
        assert_eq!(cfg.tol_ppm, SampleConfig::default().tol_ppm);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "window",
            "window:abc",
            "window:0",
            "window:63",
            "frobnicate:3",
            "window:512,window:512",
            "tol:0",
            "tol:0.7",
            "tol:nan",
            "stride:100,window:512", // stride < window
            "stride:2000000000",
        ] {
            assert!(
                SampleConfig::parse(bad).is_err(),
                "spec `{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn default_config_is_valid() {
        SampleConfig::default().validate().unwrap();
    }
}
