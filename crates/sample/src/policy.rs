//! The reference [`SamplePolicy`]: windowed counter-delta phase
//! detection driving interval-model extrapolation.

use crate::{SampleConfig, SteadyDetector};
use tlpsim_uarch::{Cycle, SampleDecision, SamplePolicy, WindowCounters};

/// Distill the window between two cumulative counter reads, `prev` and
/// `cur`, into the rate vector the [`SteadyDetector`] compares
/// (DESIGN.md §15), written to `out`:
///
/// * one entry per software thread — committed instructions per cycle,
/// * the chip-level CPI-stack *shares* (each component's fraction of
///   all attributed cycles),
/// * L1D, L2 and LLC miss rates (misses per access, summed over
///   cores), and DRAM accesses per cycle.
///
/// Everything except the commit rates is a ratio in `[0, 1]`, which
/// the detector's scale-aware rule compares absolutely against the
/// tolerance. Returns `false` (and leaves `out` unspecified) when the
/// window spans zero cycles.
fn window_rates(prev: &WindowCounters, cur: &WindowCounters, out: &mut Vec<f64>) -> bool {
    let d = |cur: u64, prev: u64| cur.saturating_sub(prev) as f64;
    let w = d(cur.cycles, prev.cycles);
    if w == 0.0 {
        return false;
    }
    out.clear();
    out.extend(
        cur.committed
            .iter()
            .zip(&prev.committed)
            .map(|(&c, &p)| d(c, p) / w),
    );
    let comps = cur.cpi.iter().zip(&prev.cpi).map(|(&c, &p)| d(c, p));
    let total: f64 = comps.clone().sum();
    out.extend(comps.map(|c| if total > 0.0 { c / total } else { 0.0 }));
    let miss_rate = |hits: f64, misses: f64| {
        let acc = hits + misses;
        if acc > 0.0 {
            misses / acc
        } else {
            0.0
        }
    };
    out.push(miss_rate(
        d(cur.l1d_hits, prev.l1d_hits),
        d(cur.l1d_misses, prev.l1d_misses),
    ));
    out.push(miss_rate(
        d(cur.l2_hits, prev.l2_hits),
        d(cur.l2_misses, prev.l2_misses),
    ));
    out.push(miss_rate(
        d(cur.llc_hits, prev.llc_hits),
        d(cur.llc_misses, prev.llc_misses),
    ));
    out.push(d(cur.dram_accesses, prev.dram_accesses) / w);
    true
}

/// The reference sampled-mode policy: diff successive window-counter
/// reads into per-window rate vectors, feed them to a
/// [`SteadyDetector`], and request an extrapolation the moment two
/// successive windows agree. Both reset flavors discard the snapshot
/// chain (cumulative counters are discontinuous across a stride), but
/// only a *phase-change* reset discards the detector's evidence: after
/// a successful extrapolation the pre-stride rate vector is kept, so
/// the first fully-measured re-entry window doubles as the verify
/// step — if it still agrees, the next stride is granted after two
/// windows rather than three.
///
/// Strides **ramp**: the first extrapolation in a phase advances only
/// a few windows' worth of cycles, and each consecutive successful
/// extrapolation doubles the stride up to the configured maximum. A
/// slow drift that stays inside the tolerance window-to-window (e.g.
/// caches still warming toward their long-run miss rate) therefore
/// gets re-measured frequently while it lasts, bounding the error a
/// single optimistic window can inject; only evidence of repeated
/// stability earns the full stride. A phase-change event resets the
/// ramp along with the detector.
#[derive(Debug, Clone)]
pub struct IntervalPolicy {
    cfg: SampleConfig,
    detector: SteadyDetector,
    /// The previous window's counters; `None` right after a reset.
    prev: Option<WindowCounters>,
    /// Rate-vector buffer, reused every window.
    rates: Vec<f64>,
    ramp: Cycle,
    extrapolate_pending: bool,
}

impl IntervalPolicy {
    /// Policy with the given knobs (`cfg` should be pre-validated;
    /// see [`SampleConfig::validate`]).
    pub fn new(cfg: SampleConfig) -> Self {
        IntervalPolicy {
            detector: SteadyDetector::new(cfg.tol()),
            ramp: Self::initial_ramp(&cfg),
            cfg,
            prev: None,
            rates: Vec::new(),
            extrapolate_pending: false,
        }
    }

    fn initial_ramp(cfg: &SampleConfig) -> Cycle {
        Cycle::from(cfg.stride).min(Cycle::from(cfg.window) * 4)
    }

    /// The configured knobs.
    pub fn config(&self) -> &SampleConfig {
        &self.cfg
    }
}

impl SamplePolicy for IntervalPolicy {
    fn window(&self) -> Cycle {
        Cycle::from(self.cfg.window)
    }

    fn observe(&mut self, counters: &WindowCounters) -> SampleDecision {
        // Reaching another observe() with the flag still set means the
        // engine refused our last extrapolation (no reset happened):
        // the pending ramp-up must not be misattributed to whatever
        // reset comes next.
        self.extrapolate_pending = false;
        let steady = self.prev.as_ref().is_some_and(|prev| {
            window_rates(prev, counters, &mut self.rates) && self.detector.observe(&self.rates)
        });
        self.prev
            .get_or_insert_with(WindowCounters::default)
            .clone_from(counters);
        if steady {
            self.extrapolate_pending = true;
            SampleDecision::Extrapolate { stride: self.ramp }
        } else {
            SampleDecision::Measure
        }
    }

    fn reset(&mut self) {
        self.prev = None;
        if self.extrapolate_pending {
            // Post-extrapolation reset: the phase survived another
            // stride, double down (up to the configured maximum). The
            // detector's evidence is *kept*: time-shift extrapolation
            // re-enters with zero transient, so the pre-stride rate
            // vector is still valid — the first re-entry window is
            // compared against it (the "verify" step), and agreement
            // re-earns extrapolation after two windows instead of
            // three. Disagreement falls through to plain measuring.
            self.ramp = (self.ramp * 2).min(Cycle::from(self.cfg.stride));
            self.extrapolate_pending = false;
        } else {
            // Phase-change reset: the machine state is discontinuous
            // in a way the rates do not describe. Discard everything
            // and drop back to cautious strides.
            self.detector.reset();
            self.ramp = Self::initial_ramp(&self.cfg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlpsim_uarch::{CpiComponent, N_COMPONENTS};

    fn snap(cycles: u64, committed: u64, l1d_miss: u64) -> WindowCounters {
        let mut cpi = [0; N_COMPONENTS];
        cpi[CpiComponent::Base.index()] = cycles / 2;
        cpi[CpiComponent::L1.index()] = cycles / 2;
        WindowCounters {
            cycles,
            committed: vec![committed],
            cpi,
            l1d_hits: committed.saturating_sub(l1d_miss),
            l1d_misses: l1d_miss,
            ..WindowCounters::default()
        }
    }

    #[test]
    fn window_rates_shape_and_values() {
        let mut rates = Vec::new();
        assert!(window_rates(
            &snap(0, 0, 0),
            &snap(1000, 1500, 150),
            &mut rates
        ));
        // 1 thread + 11 components + 3 miss rates + dram rate.
        assert_eq!(rates.len(), 1 + N_COMPONENTS + 4);
        assert!((rates[0] - 1.5).abs() < 1e-12, "commit rate {}", rates[0]);
        // base and l1 each hold half the attributed cycles.
        let base_share = rates[1 + CpiComponent::Base.index()];
        assert!((base_share - 0.5).abs() < 1e-12);
        // l1d miss rate = 150 / 1500.
        assert!((rates[1 + N_COMPONENTS] - 0.1).abs() < 1e-12);
        // An empty window has no rates.
        let s = snap(1000, 1500, 150);
        assert!(!window_rates(&s, &s, &mut rates));
    }

    #[test]
    fn policy_requests_extrapolation_after_two_agreeing_windows() {
        let mut p = IntervalPolicy::new(SampleConfig::default());
        // Three snapshots with identical per-window rates: the first
        // primes the chain, the second primes the detector, the third
        // agrees with the second.
        assert_eq!(p.observe(&snap(1000, 1500, 150)), SampleDecision::Measure);
        assert_eq!(p.observe(&snap(2000, 3000, 300)), SampleDecision::Measure);
        let first_ramp = Cycle::from(SampleConfig::default().window) * 4;
        match p.observe(&snap(3000, 4500, 450)) {
            SampleDecision::Extrapolate { stride } => assert_eq!(stride, first_ramp),
            d => panic!("expected extrapolation, got {d:?}"),
        }
        // The engine applies the stride then resets the policy. The
        // snapshot chain restarts, but the detector keeps the
        // pre-stride rates as evidence: the first re-entry window that
        // still agrees re-earns extrapolation (at the doubled stride)
        // after only two windows.
        p.reset();
        assert_eq!(p.observe(&snap(4000, 6000, 600)), SampleDecision::Measure);
        match p.observe(&snap(5000, 7500, 750)) {
            SampleDecision::Extrapolate { stride } => assert_eq!(stride, first_ramp * 2),
            d => panic!("expected ramped extrapolation, got {d:?}"),
        }
        // A phase-change reset (no extrapolation applied in between)
        // drops the ramp back to the cautious initial stride.
        p.reset();
        p.reset();
        p.observe(&snap(7000, 10_500, 1050));
        p.observe(&snap(8000, 12_000, 1200));
        match p.observe(&snap(9000, 13_500, 1350)) {
            SampleDecision::Extrapolate { stride } => assert_eq!(stride, first_ramp),
            d => panic!("expected extrapolation, got {d:?}"),
        }
    }

    #[test]
    fn rate_jump_withholds_extrapolation() {
        let mut p = IntervalPolicy::new(SampleConfig::default());
        p.observe(&snap(1000, 1500, 150));
        p.observe(&snap(2000, 3000, 300));
        // Commit rate halves in the third window: not steady.
        assert_eq!(p.observe(&snap(3000, 3750, 375)), SampleDecision::Measure);
    }
}
