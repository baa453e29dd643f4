//! SplitMix64-driven property tests for the steady-state detector:
//! synthetic piecewise-constant and drifting rate streams pin down the
//! two guarantees sampled mode rests on — a phase boundary is never
//! declared stable, and a truly constant stream always converges
//! within two windows.

use tlpsim_sample::SteadyDetector;
use tlpsim_workloads::SplitMix64;

/// Uniform in `[0, 1)`.
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A random rate vector: commit-rate-like magnitudes mixed with
/// ratio-like near-zero entries, as the sampled-mode policy produces.
fn rand_rates(rng: &mut SplitMix64, dim: usize) -> Vec<f64> {
    (0..dim)
        .map(|_| {
            if rng.next_u64().is_multiple_of(2) {
                unit(rng) * 4.0 // IPC-like
            } else {
                unit(rng) * 0.05 // miss-rate / share-like
            }
        })
        .collect()
}

/// Bump one coordinate by strictly more than the scale-aware
/// tolerance band, so the straddling comparison is guaranteed to
/// fail: `|a - b| = K * tol * max(1, |a|)` with `K >= 3` exceeds
/// `tol * max(1, |a|, |b|)` for any `tol <= 0.5`.
fn inject_jump(rng: &mut SplitMix64, rates: &[f64], tol: f64) -> Vec<f64> {
    let mut next = rates.to_vec();
    let j = (rng.next_u64() as usize) % rates.len();
    let k = 3.0 + unit(rng) * 3.0;
    next[j] += k * tol * rates[j].abs().max(1.0);
    next
}

#[test]
fn constant_stream_converges_within_two_windows() {
    let mut rng = SplitMix64::new(0x5eed_0001);
    for case in 0..300 {
        let tol = 0.001 + unit(&mut rng) * 0.25;
        let dim = 1 + (rng.next_u64() % 24) as usize;
        let rates = rand_rates(&mut rng, dim);
        let mut d = SteadyDetector::new(tol);
        assert!(
            !d.observe(&rates),
            "case {case}: first window has nothing to compare against"
        );
        for w in 0..5 {
            assert!(
                d.observe(&rates),
                "case {case}: constant stream must be stable from window 2 (window {w})"
            );
        }
    }
}

#[test]
fn phase_boundary_is_never_declared_stable() {
    let mut rng = SplitMix64::new(0x5eed_0002);
    for case in 0..300 {
        let tol = 0.001 + unit(&mut rng) * 0.15;
        let dim = 1 + (rng.next_u64() % 8) as usize;
        let n_phases = 2 + (rng.next_u64() % 4) as usize;
        let mut d = SteadyDetector::new(tol);
        let mut rates = rand_rates(&mut rng, dim);
        for phase in 0..n_phases {
            let len = 2 + (rng.next_u64() % 5) as usize;
            for w in 0..len {
                let stable = d.observe(&rates);
                if phase > 0 && w == 0 {
                    assert!(
                        !stable,
                        "case {case} phase {phase}: window straddling a phase \
                         boundary must not be declared stable"
                    );
                } else if w > 0 {
                    assert!(
                        stable,
                        "case {case} phase {phase} window {w}: constant windows \
                         within a phase must be stable"
                    );
                }
            }
            rates = inject_jump(&mut rng, &rates, tol);
        }
    }
}

#[test]
fn super_tolerance_drift_is_never_stable() {
    let mut rng = SplitMix64::new(0x5eed_0003);
    for case in 0..200 {
        let tol = 0.001 + unit(&mut rng) * 0.1;
        let dim = 1 + (rng.next_u64() % 8) as usize;
        let mut rates = rand_rates(&mut rng, dim);
        let mut d = SteadyDetector::new(tol);
        d.observe(&rates);
        for w in 0..10 {
            // Every coordinate drifts by > 3x the tolerance band each
            // window: a ramp, not a steady state.
            for r in rates.iter_mut() {
                *r += 3.5 * tol * r.abs().max(1.0);
            }
            assert!(
                !d.observe(&rates),
                "case {case} window {w}: drifting stream declared stable"
            );
        }
    }
}

#[test]
fn sub_tolerance_noise_is_stable() {
    let mut rng = SplitMix64::new(0x5eed_0004);
    for case in 0..200 {
        let tol = 0.01 + unit(&mut rng) * 0.1;
        let dim = 1 + (rng.next_u64() % 8) as usize;
        let base = rand_rates(&mut rng, dim);
        let mut d = SteadyDetector::new(tol);
        d.observe(&base);
        for w in 0..10 {
            // Jitter each coordinate within half the tolerance band
            // around the fixed base: noise, not a phase change.
            let noisy: Vec<f64> = base
                .iter()
                .map(|&r| r + (unit(&mut rng) - 0.5) * tol * r.abs().max(1.0) * 0.9)
                .collect();
            assert!(
                d.observe(&noisy),
                "case {case} window {w}: sub-tolerance noise flagged as unstable"
            );
        }
    }
}
