//! The verify leg of detect → extrapolate → verify: quantify
//! sampled-vs-detailed error per metric so sampled results always ship
//! with a measured bound.

use tlpsim_trace::CpiStacks;
use tlpsim_uarch::RunResult;

/// Per-metric sampled-vs-detailed error summary for one run pair.
///
/// CPI errors are *relative* (`|sampled - exact| / exact`); since
/// ANTT and STP are computed from exactly these per-thread CPIs
/// (normalized by a shared exact-mode isolated-IPC baseline), the CPI
/// bound transfers verbatim to the scheduling metrics. Stack-share
/// errors are *absolute* differences of fractions in `[0, 1]`.
#[derive(Debug, Clone, Default)]
pub struct AccuracyReport {
    /// Relative CPI error per thread (measurement window only).
    pub cpi_rel_err: Vec<f64>,
    /// Worst per-thread relative CPI error.
    pub max_cpi_rel_err: f64,
    /// Relative error of the total run length in cycles.
    pub cycles_rel_err: f64,
}

/// Compare a sampled run against its detailed reference. Both runs
/// must come from identically configured simulations (same threads,
/// same per-thread instruction `budget`).
///
/// A thread that finished in one run but not the other scores error
/// 1.0 (the worst representable relative error) rather than NaN, so a
/// sampling bug that loses a thread's finish cannot hide; so does a
/// thread present in only one of the runs. `cpi_rel_err` has one entry
/// per thread of the longer run.
pub fn compare_results(exact: &RunResult, sampled: &RunResult, budget: u64) -> AccuracyReport {
    let mut report = AccuracyReport::default();
    let n = exact.threads.len().max(sampled.threads.len());
    for t in 0..n {
        let ipc = |r: &RunResult| r.threads.get(t).map(|th| th.ipc(budget));
        let err = match (ipc(exact), ipc(sampled)) {
            (Some(ie), Some(is)) => cpi_rel_err(ie, is),
            _ => 1.0,
        };
        report.cpi_rel_err.push(err);
        report.max_cpi_rel_err = report.max_cpi_rel_err.max(err);
    }
    if exact.cycles > 0 {
        report.cycles_rel_err =
            (sampled.cycles as f64 - exact.cycles as f64).abs() / exact.cycles as f64;
    }
    report
}

/// Relative CPI error of a sampled IPC `is` against an exact IPC `ie`:
/// 0 when neither thread finished, 1.0 when only one did.
fn cpi_rel_err(ie: f64, is: f64) -> f64 {
    if ie > 0.0 && is > 0.0 {
        let (ce, cs) = (1.0 / ie, 1.0 / is);
        (cs - ce).abs() / ce
    } else if ie == 0.0 && is == 0.0 {
        0.0
    } else {
        1.0
    }
}

/// Worst absolute difference between the chip-level CPI-stack
/// component *shares* of two runs (each share is that component's
/// fraction of all attributed cycles). Returns 0 when either stack is
/// empty.
pub fn stack_share_abs_err(exact: &CpiStacks, sampled: &CpiStacks) -> f64 {
    let (te, ts) = (exact.chip_totals(), sampled.chip_totals());
    let (sum_e, sum_s) = (te.iter().sum::<u64>() as f64, ts.iter().sum::<u64>() as f64);
    if sum_e == 0.0 || sum_s == 0.0 {
        return 0.0;
    }
    te.iter()
        .zip(&ts)
        .map(|(&e, &s)| (e as f64 / sum_e - s as f64 / sum_s).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlpsim_uarch::ThreadStats;

    fn thread(start: u64, finish: u64) -> ThreadStats {
        ThreadStats {
            committed: 0,
            start_cycle: Some(start),
            finish_cycle: Some(finish),
            blocked_cycles: 0,
        }
    }

    #[test]
    fn identical_runs_have_zero_error() {
        let r = RunResult {
            cycles: 1000,
            threads: vec![thread(0, 500)],
            ..Default::default()
        };
        let rep = compare_results(&r, &r.clone(), 1000);
        assert_eq!(rep.max_cpi_rel_err, 0.0);
        assert_eq!(rep.cycles_rel_err, 0.0);
    }

    #[test]
    fn cpi_error_is_relative() {
        let exact = RunResult {
            cycles: 1000,
            threads: vec![thread(0, 1000)],
            ..Default::default()
        };
        let sampled = RunResult {
            cycles: 1100,
            threads: vec![thread(0, 1100)], // CPI 10% higher
            ..Default::default()
        };
        let rep = compare_results(&exact, &sampled, 1000);
        assert!((rep.max_cpi_rel_err - 0.1).abs() < 1e-12);
        assert!((rep.cycles_rel_err - 0.1).abs() < 1e-12);
    }

    #[test]
    fn lost_finish_scores_worst_case() {
        let exact = RunResult {
            cycles: 1000,
            threads: vec![thread(0, 1000)],
            ..Default::default()
        };
        let sampled = RunResult {
            cycles: 1000,
            threads: vec![ThreadStats::default()],
            ..Default::default()
        };
        assert_eq!(compare_results(&exact, &sampled, 1000).max_cpi_rel_err, 1.0);
    }

    #[test]
    fn unmatched_threads_score_worst_case() {
        let exact = RunResult {
            cycles: 1000,
            threads: vec![thread(0, 1000), thread(0, 1000)],
            ..Default::default()
        };
        let lost = RunResult {
            threads: vec![thread(0, 1000)],
            ..exact.clone()
        };
        for (e, s) in [(&exact, &lost), (&lost, &exact)] {
            let rep = compare_results(e, s, 1000);
            assert_eq!(rep.cpi_rel_err, vec![0.0, 1.0]);
            assert_eq!(rep.max_cpi_rel_err, 1.0);
        }
    }

    #[test]
    fn stack_share_err_on_skewed_stacks() {
        use tlpsim_trace::CpiComponent;
        let mut a = CpiStacks::new();
        a.add(0, 0, CpiComponent::Base, 50);
        a.add(0, 0, CpiComponent::Dram, 50);
        let mut b = CpiStacks::new();
        b.add(0, 0, CpiComponent::Base, 60);
        b.add(0, 0, CpiComponent::Dram, 40);
        assert!((stack_share_abs_err(&a, &b) - 0.1).abs() < 1e-12);
        assert_eq!(stack_share_abs_err(&a, &CpiStacks::new()), 0.0);
    }
}
