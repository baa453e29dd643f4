//! CPI-stack accounting invariants (DESIGN.md §11).
//!
//! Two properties, checked over the same config × workload cells as the
//! fast-forward equivalence harness:
//!
//! 1. **Identity** — for every hardware thread context `(core, slot)`,
//!    the sum over all CPI components equals the core's measured cycle
//!    count exactly. Every simulated cycle of every context is
//!    attributed to exactly one component; nothing is dropped or
//!    double-counted.
//! 2. **Skip-equivalence** — the stacks collected with cycle skipping
//!    enabled are *bit-identical* to the stacks collected by the dense
//!    stepper. Fast-forwarded spans classify once at span start and
//!    weight by the span length; this must reproduce the dense
//!    per-cycle sum (the §9 constancy argument).
//!
//! Additionally, attaching a sink must not perturb simulation results:
//! the traced run's [`RunResult`] is compared against the untraced
//! golden path.

use tlpsim_uarch::{
    ChipConfig, ChipCpi, CoreConfig, CpiStacks, FetchPolicy, MultiCore, RobSharing, RunResult,
    SampleSink, ThreadProgram, TraceSink,
};
use tlpsim_workloads::{parsec, spec, InstrStream, Segment};

/// Run one construction three ways — untraced (skip on), traced with
/// skip, traced dense — check the invariants, and return the traced
/// stacks for scenario-specific assertions.
fn check_invariants(mk: impl Fn(bool) -> MultiCore<CpiStacks>) -> CpiStacks {
    let mut fast = mk(true);
    let rf = fast.run().expect("traced fast run completes");
    let fast_stacks = fast.into_sink();

    let mut dense = mk(false);
    let rd = dense.run().expect("traced dense run completes");
    let dense_stacks = dense.into_sink();

    assert_eq!(rf, rd, "tracing: fast-forward result diverged from dense");
    assert_identity(&rf, &fast_stacks);
    assert_identity(&rd, &dense_stacks);
    assert_eq!(
        fast_stacks, dense_stacks,
        "CPI stacks must be bit-identical between skip and dense stepping"
    );
    fast_stacks
}

/// Every context's component sum must equal its core's cycle count.
fn assert_identity(r: &RunResult, stacks: &CpiStacks) {
    for ((core, slot), comps) in stacks.iter() {
        let sum: u64 = comps.iter().sum();
        let cycles = r.cores[core].cycles;
        assert_eq!(
            sum, cycles,
            "core {core} slot {slot}: component sum {sum} != measured cycles {cycles}"
        );
    }
    // Every core contributes stacks for every slot it stepped.
    for (c, cs) in r.cores.iter().enumerate() {
        if cs.cycles > 0 {
            assert!(
                stacks.iter().any(|((core, _), _)| core == c),
                "core {c} stepped {} cycles but produced no stack",
                cs.cycles
            );
        }
    }
}

fn multiprogram_mix<S: TraceSink>(chip: &ChipConfig, skip: bool, sink: S) -> MultiCore<S> {
    let mut sim = MultiCore::with_sink(chip, sink);
    sim.set_cycle_skipping(skip);
    let profiles = [
        spec::mcf_like(),
        spec::hmmer_like(),
        spec::libquantum_like(),
        spec::gamess_like(),
    ];
    let slots_per_core = chip.cores[0].smt_contexts as usize;
    for (i, p) in profiles.iter().enumerate() {
        let t = sim.add_thread(ThreadProgram::multiprogram_with_warmup(
            InstrStream::new(p, i as u64, 42),
            1_000,
            6_000,
        ));
        if slots_per_core > 1 {
            sim.pin(t, i % 2, (i / 2) % slots_per_core);
        } else {
            sim.pin(t, i % 2, 0);
        }
    }
    sim.prewarm();
    sim
}

fn check_multiprogram(core: CoreConfig, smt: bool) -> CpiStacks {
    let mut chip = ChipConfig::homogeneous(2, core, 2.66);
    if !smt {
        chip = chip.without_smt();
    }
    check_invariants(|skip| multiprogram_mix(&chip, skip, CpiStacks::new()))
}

#[test]
fn big_smt_identity_and_skip_equivalence() {
    let stacks = check_multiprogram(CoreConfig::big(), true);
    // An SMT mix with mcf-like threads must show both DRAM-bound
    // cycles and SMT interference somewhere on the chip.
    let totals = stacks.chip_totals();
    assert!(totals[tlpsim_uarch::CpiComponent::Dram.index()] > 0);
    assert!(
        totals[tlpsim_uarch::CpiComponent::SmtFetch.index()]
            + totals[tlpsim_uarch::CpiComponent::SmtIssue.index()]
            > 0,
        "two threads per core must produce SMT interference cycles"
    );
}

#[test]
fn big_nosmt_identity_and_skip_equivalence() {
    let stacks = check_multiprogram(CoreConfig::big(), false);
    // Without SMT no cycle may be attributed to SMT interference.
    let totals = stacks.chip_totals();
    assert_eq!(totals[tlpsim_uarch::CpiComponent::SmtFetch.index()], 0);
    assert_eq!(totals[tlpsim_uarch::CpiComponent::SmtIssue.index()], 0);
}

#[test]
fn medium_smt_identity_and_skip_equivalence() {
    check_multiprogram(CoreConfig::medium(), true);
}

#[test]
fn medium_nosmt_identity_and_skip_equivalence() {
    check_multiprogram(CoreConfig::medium(), false);
}

#[test]
fn small_smt_identity_and_skip_equivalence() {
    check_multiprogram(CoreConfig::small(), true);
}

#[test]
fn small_nosmt_identity_and_skip_equivalence() {
    check_multiprogram(CoreConfig::small(), false);
}

#[test]
fn icount_shared_rob_identity_and_skip_equivalence() {
    let mut core = CoreConfig::big();
    core.fetch_policy = FetchPolicy::ICount;
    core.rob_sharing = RobSharing::Shared;
    check_multiprogram(core, true);
}

fn parsec_sim(
    chip: &ChipConfig,
    app: &tlpsim_workloads::ParsecApp,
    n_threads: usize,
    skip: bool,
) -> MultiCore<CpiStacks> {
    let w = app.instantiate(n_threads, 3_000, 7);
    let mut sim = MultiCore::with_sink(chip, CpiStacks::new());
    sim.set_cycle_skipping(skip);
    let n_cores = chip.cores.len();
    let max_barrier = w
        .threads
        .iter()
        .flatten()
        .filter_map(|s| match s {
            Segment::Barrier { id } => Some(*id),
            _ => None,
        })
        .max()
        .unwrap();
    for (i, segs) in w.threads.iter().enumerate() {
        let stream = InstrStream::new(&w.profile, i as u64, 99).with_shared_region(
            0x4000_0000_0000,
            w.shared_bytes,
            w.shared_frac,
        );
        let t = sim.add_thread(ThreadProgram::segmented(stream, segs.clone()));
        let slots = chip.cores[i % n_cores].smt_contexts as usize;
        sim.pin(t, i % n_cores, (i / n_cores) % slots);
    }
    sim.set_roi_barriers(0, max_barrier);
    sim.prewarm();
    sim
}

#[test]
fn barrier_heavy_parsec_identity_and_skip_equivalence() {
    let chip = ChipConfig::homogeneous(4, CoreConfig::big(), 2.66);
    let app = parsec::streamcluster_like();
    let stacks = check_invariants(|skip| parsec_sim(&chip, &app, 8, skip));
    // Barrier waiting shows up as idle context cycles.
    assert!(stacks.chip_totals()[tlpsim_uarch::CpiComponent::Idle.index()] > 0);
}

#[test]
fn lock_heavy_parsec_identity_and_skip_equivalence() {
    let mut app = parsec::blackscholes_like();
    app.cs_frac = 0.9;
    app.max_parallelism = 64;
    app.imbalance = 0.0;
    let chip = ChipConfig::homogeneous(2, CoreConfig::big(), 2.66);
    check_invariants(|skip| parsec_sim(&chip, &app, 4, skip));
}

#[test]
fn time_sharing_overload_identity_and_skip_equivalence() {
    let chip = ChipConfig::homogeneous(2, CoreConfig::big(), 2.66).without_smt();
    check_invariants(|skip| {
        let mut sim = MultiCore::with_sink(&chip, CpiStacks::new());
        sim.set_cycle_skipping(skip);
        for i in 0..6u64 {
            let p = if i % 2 == 0 {
                spec::mcf_like()
            } else {
                spec::gcc_like()
            };
            let t = sim.add_thread(ThreadProgram::multiprogram_with_warmup(
                InstrStream::new(&p, i, 17),
                500,
                4_000,
            ));
            sim.pin(t, (i % 2) as usize, 0);
        }
        sim.prewarm();
        sim
    });
}

#[test]
fn heterogeneous_chip_identity_and_skip_equivalence() {
    let chip = ChipConfig::heterogeneous(
        &[CoreConfig::big(), CoreConfig::medium(), CoreConfig::small()],
        2.66,
    );
    check_invariants(|skip| {
        let mut sim = MultiCore::with_sink(&chip, CpiStacks::new());
        sim.set_cycle_skipping(skip);
        let profiles = [
            spec::libquantum_like(),
            spec::milc_like(),
            spec::astar_like(),
        ];
        for (i, p) in profiles.iter().enumerate() {
            let t = sim.add_thread(ThreadProgram::multiprogram_with_warmup(
                InstrStream::new(p, i as u64, 5),
                1_000,
                5_000,
            ));
            sim.pin(t, i, 0);
        }
        sim.prewarm();
        sim
    });
}

/// A traced run must not perturb the simulation itself: same inputs,
/// with and without a sink, produce equal [`RunResult`]s.
#[test]
fn tracing_does_not_perturb_results() {
    let chip = ChipConfig::homogeneous(2, CoreConfig::big(), 2.66);
    let build_untraced = || {
        let mut sim = MultiCore::new(&chip);
        for i in 0..4u64 {
            let t = sim.add_thread(ThreadProgram::multiprogram_with_warmup(
                InstrStream::new(&spec::mcf_like(), i, 23),
                1_000,
                8_000,
            ));
            sim.pin(t, (i % 2) as usize, (i / 2) as usize);
        }
        sim.prewarm();
        sim
    };
    let build_traced = || {
        let mut sim = MultiCore::with_sink(&chip, tlpsim_uarch::Tracer::default());
        for i in 0..4u64 {
            let t = sim.add_thread(ThreadProgram::multiprogram_with_warmup(
                InstrStream::new(&spec::mcf_like(), i, 23),
                1_000,
                8_000,
            ));
            sim.pin(t, (i % 2) as usize, (i / 2) as usize);
        }
        sim.prewarm();
        sim
    };
    let r0 = build_untraced().run().expect("untraced run completes");
    let mut traced = build_traced();
    let r1 = traced.run().expect("traced run completes");
    assert_eq!(r0, r1, "attaching a sink changed simulation results");
    let tracer = traced.into_sink();
    assert!(tracer.ring.total_recorded() > 0, "events must be recorded");
    // Every populated context must have a stack obeying the identity.
    assert_identity(&r1, &tracer.stacks);
}

#[test]
fn chip_sink_totals_equal_per_context_sums() {
    // The chip-level sink keeps only what the sampled-mode detector
    // reads; it must see every attribution the per-context stacks see.
    let chip = ChipConfig::homogeneous(2, CoreConfig::big(), 2.66);
    for skip in [true, false] {
        let mut per_ctx = multiprogram_mix(&chip, skip, CpiStacks::new());
        let mut chip_level = multiprogram_mix(&chip, skip, ChipCpi::new());
        assert_eq!(per_ctx.run().unwrap(), chip_level.run().unwrap());
        assert_eq!(
            chip_level.sink().chip_totals(),
            per_ctx.sink().chip_totals(),
            "skip {skip}: chip-level totals diverged from the per-context sums"
        );
    }
}
