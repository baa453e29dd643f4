//! Sampled-vs-detailed accuracy regression over the full 12-profile
//! suite: the error bound the sampled mode ships with is *measured*,
//! not assumed. Each profile runs once fully detailed and once
//! sampled, on identically seeded simulations, and the per-thread CPI
//! must agree within 2%.

use tlpsim_sample::{compare_results, run_sampled, stack_share_abs_err, SampleConfig};
use tlpsim_uarch::{ChipConfig, CoreConfig, CpiStacks, MultiCore, ThreadProgram};
use tlpsim_workloads::{spec, InstrStream};

const WARMUP: u64 = 10_000;
const BUDGET: u64 = 60_000;
const LIMIT: u64 = 1 << 40;

fn build(profile: &str) -> MultiCore<CpiStacks> {
    let prof = spec::by_name(profile).expect("profile exists");
    let chip = ChipConfig::homogeneous(1, CoreConfig::big(), 2.66);
    let mut sim = MultiCore::with_sink(&chip, CpiStacks::new());
    let t = sim.add_thread(ThreadProgram::multiprogram_with_warmup(
        InstrStream::new(&prof, 0, 42),
        WARMUP,
        BUDGET,
    ));
    sim.pin(t, 0, 0);
    sim.prewarm();
    sim
}

#[test]
fn twelve_profile_cpi_error_within_two_percent() {
    let mut worst = (0.0f64, "none");
    let mut sampled_profiles = 0usize;
    for name in spec::names() {
        let mut exact_sim = build(name);
        let exact = exact_sim.run().expect("exact run completes");

        let mut sampled_sim = build(name);
        let (sampled, stats) =
            run_sampled(&mut sampled_sim, SampleConfig::default(), LIMIT).expect("sampled run");

        let report = compare_results(&exact, &sampled, BUDGET);
        assert!(
            report.max_cpi_rel_err <= 0.02,
            "{name}: CPI error {:.4} exceeds 2% (stats {stats:?})",
            report.max_cpi_rel_err
        );
        let share_err = stack_share_abs_err(exact_sim.sink(), sampled_sim.sink());
        assert!(
            share_err <= 0.05,
            "{name}: CPI-stack share error {share_err:.4} exceeds 5 points"
        );
        if stats.extrapolations > 0 {
            sampled_profiles += 1;
        }
        if report.max_cpi_rel_err > worst.0 {
            worst = (report.max_cpi_rel_err, name);
        }
    }
    // The suite must actually exercise extrapolation, not pass
    // vacuously with every stride refused.
    assert!(
        sampled_profiles >= 6,
        "only {sampled_profiles}/12 profiles ever extrapolated"
    );
    eprintln!("worst CPI error {:.4} on {}", worst.0, worst.1);
}

#[test]
fn compute_bound_profile_extrapolates_most_cycles() {
    // A longer run than the 12-profile sweep: the stride ramp needs a
    // few extrapolations to reach the full configured stride.
    let prof = spec::by_name("hmmer_like").unwrap();
    let chip = ChipConfig::homogeneous(1, CoreConfig::big(), 2.66);
    let mut sim = MultiCore::with_sink(&chip, CpiStacks::new());
    let t = sim.add_thread(ThreadProgram::multiprogram_with_warmup(
        InstrStream::new(&prof, 0, 42),
        WARMUP,
        500_000,
    ));
    sim.pin(t, 0, 0);
    sim.prewarm();
    let (result, stats) = run_sampled(&mut sim, SampleConfig::default(), LIMIT).unwrap();
    assert!(result.threads[0].finish_cycle.is_some());
    assert!(
        stats.extrapolated_fraction() > 0.5,
        "compute-bound steady state should extrapolate most cycles, got {:.3} ({stats:?})",
        stats.extrapolated_fraction()
    );
}

#[test]
fn steady_four_core_cell_holds_two_percent_at_long_strides() {
    // Steady compute-bound cells tolerate four times the default
    // stride: four big cores, one hmmer-like thread each, the cell
    // `golden.rs::golden_compute_bound_long_strides` pins at 5M
    // instructions per thread. At 2M the stride ramp (8k, 16k, ...
    // cycles) grants two strides longer than the default, about two
    // thirds of all cycles; at 1M a bias in long strides barely shows.
    let cfg = SampleConfig {
        stride: 262_144,
        ..SampleConfig::default()
    };
    let budget = 2_000_000;
    let build_cell = || {
        let chip = ChipConfig::homogeneous(4, CoreConfig::big(), 2.66);
        let mut sim = MultiCore::with_sink(&chip, CpiStacks::new());
        for i in 0..4u64 {
            let t = sim.add_thread(ThreadProgram::multiprogram_with_warmup(
                InstrStream::new(&spec::hmmer_like(), i, 31),
                1_000,
                budget,
            ));
            sim.pin(t, i as usize, 0);
        }
        sim.prewarm();
        sim
    };
    let exact = build_cell().run().expect("exact run");
    let (sampled, stats) = run_sampled(&mut build_cell(), cfg, LIMIT).expect("sampled run");
    assert!(
        stats.extrapolations > 0,
        "the steady cell never extrapolated ({stats:?})"
    );
    let report = compare_results(&exact, &sampled, budget);
    assert!(
        report.max_cpi_rel_err <= 0.02,
        "CPI error {:.4} exceeds 2% at stride 262144 ({stats:?})",
        report.max_cpi_rel_err
    );
    eprintln!(
        "stride 262144: CPI error {:.4}, {:.3} of cycles extrapolated",
        report.max_cpi_rel_err,
        stats.extrapolated_fraction()
    );
}

#[test]
fn sampled_smt_pair_stays_accurate() {
    // Two threads sharing one SMT core: extrapolation must preserve
    // both threads' measurement windows, not just the chip totals.
    let pair = [("hmmer_like", 0u64), ("gcc_like", 1u64)];
    let build_pair = || {
        let chip = ChipConfig::homogeneous(1, CoreConfig::big(), 2.66);
        let mut sim = MultiCore::with_sink(&chip, CpiStacks::new());
        for (i, (name, space)) in pair.iter().enumerate() {
            let prof = spec::by_name(name).unwrap();
            let t = sim.add_thread(ThreadProgram::multiprogram_with_warmup(
                InstrStream::new(&prof, *space, 42),
                WARMUP,
                BUDGET,
            ));
            sim.pin(t, 0, i);
        }
        sim.prewarm();
        sim
    };
    let exact = build_pair().run().expect("exact run");
    let mut sim = build_pair();
    let (sampled, _stats) = run_sampled(&mut sim, SampleConfig::default(), LIMIT).unwrap();
    let report = compare_results(&exact, &sampled, BUDGET);
    assert!(
        report.max_cpi_rel_err <= 0.02,
        "SMT pair CPI error {:.4} exceeds 2%",
        report.max_cpi_rel_err
    );
}
