//! Golden-digest anchors for sampled mode: the detect → extrapolate →
//! verify loop's observable behavior, frozen.
//!
//! Each config runs through [`run_sampled`] once per CPI sink — the
//! per-context [`CpiStacks`] and the chip-level [`ChipCpi`] — and both
//! must land on the same digest of the `Debug` rendering of
//! `(RunResult, SampleStats)`: the policy reads only chip-level totals
//! and drops its counter chain after every applied stride, so the sink
//! cannot change a decision. The configs cover every profile alone on a
//! big core, an SMT pair, a compute-bound cell whose long run of
//! extrapolations pins the credit path, and a hand-placed heterogeneous
//! 8-thread mix on four SMT cores.
//!
//! To regenerate after an *intentional* change to sampled behavior
//! (never for a perf-only change):
//!
//! ```text
//! TLPSIM_PRINT_GOLDEN=1 cargo test -q -p tlpsim-sample --test golden -- --nocapture
//! ```

use tlpsim_sample::{run_sampled, SampleConfig};
use tlpsim_uarch::{
    ChipConfig, ChipCpi, CoreConfig, CpiStacks, MultiCore, SampleSink, SampleStats, ThreadProgram,
};
use tlpsim_workloads::{spec, InstrStream};

/// One software thread and the context it is pinned to.
struct Placed {
    profile: &'static str,
    space: u64,
    seed: u64,
    warmup: u64,
    budget: u64,
    core: usize,
    slot: usize,
}

struct Setup {
    chip: ChipConfig,
    threads: Vec<Placed>,
    cfg: SampleConfig,
}

fn print_mode() -> bool {
    std::env::var("TLPSIM_PRINT_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// FNV-1a over the `Debug` rendering of the run's result and sampling
/// statistics, and the statistics themselves.
fn run<S: SampleSink>(setup: &Setup, sink: S) -> (u64, SampleStats) {
    let mut sim = MultiCore::with_sink(&setup.chip, sink);
    for p in &setup.threads {
        let prof = spec::by_name(p.profile).expect("profile exists");
        let t = sim.add_thread(ThreadProgram::multiprogram_with_warmup(
            InstrStream::new(&prof, p.space, p.seed),
            p.warmup,
            p.budget,
        ));
        sim.pin(t, p.core, p.slot);
    }
    sim.prewarm();
    let out = run_sampled(&mut sim, setup.cfg, 1 << 40).expect("sampled run completes");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{out:?}").as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h, out.1)
}

/// Run `setup` on both sinks, require one digest, check (or print) it
/// against `expected`, and return the run's sampling statistics.
fn check(name: &str, expected: u64, setup: &Setup) -> SampleStats {
    let (d, stats) = run(setup, CpiStacks::new());
    assert_eq!(
        run(setup, ChipCpi::new()).0,
        d,
        "{name}: the chip-level sink diverged from per-context stacks"
    );
    if print_mode() {
        println!("golden {name}: 0x{d:016x}");
    } else {
        assert_eq!(
            d, expected,
            "golden digest changed for {name}: got 0x{d:016x}, expected 0x{expected:016x} \
             — sampled behavior drifted from the recorded loop"
        );
    }
    stats
}

fn big_chip(cores: usize) -> ChipConfig {
    ChipConfig::homogeneous(cores, CoreConfig::big(), 2.66)
}

#[test]
fn golden_every_profile_alone() {
    let expected = [
        ("hmmer_like", 0x854d5bf038d6a604),
        ("calculix_like", 0x213346357bcd997b),
        ("gamess_like", 0xdc04f4887e12ff6b),
        ("tonto_like", 0xb355ef52c92f2eb1),
        ("namd_like", 0xfb9fb0cee7722a02),
        ("h264ref_like", 0x02e3a471911595fc),
        ("gcc_like", 0xbdc451af5bb7dc48),
        ("bzip2_like", 0x1cb4dc3ee60ad8d4),
        ("astar_like", 0xbb18b1f107e14ed4),
        ("mcf_like", 0x17b5415884c31fe9),
        ("libquantum_like", 0x7b7567f13bd1b314),
        ("milc_like", 0x5030a965fc7c3355),
    ];
    assert_eq!(
        expected.iter().map(|e| e.0).collect::<Vec<_>>(),
        spec::names(),
        "one digest per profile, in profile order"
    );
    for (profile, digest) in expected {
        let setup = Setup {
            chip: big_chip(1),
            threads: vec![Placed {
                profile,
                space: 0,
                seed: 42,
                warmup: 10_000,
                budget: 60_000,
                core: 0,
                slot: 0,
            }],
            cfg: SampleConfig::default(),
        };
        check(profile, digest, &setup);
    }
}

#[test]
fn golden_smt_pair() {
    // The pair of `tests/accuracy.rs`: two threads sharing one core.
    let setup = Setup {
        chip: big_chip(1),
        threads: [("hmmer_like", 0u64), ("gcc_like", 1u64)]
            .into_iter()
            .enumerate()
            .map(|(slot, (profile, space))| Placed {
                profile,
                space,
                seed: 42,
                warmup: 10_000,
                budget: 60_000,
                core: 0,
                slot,
            })
            .collect(),
        cfg: SampleConfig::default(),
    };
    check("smt_pair", 0xc9ea1282ae03037b, &setup);
}

#[test]
fn golden_compute_bound_long_strides() {
    // A steady compute-bound cell: nine extrapolations, ramping up to
    // the full stride, so the credit path is pinned.
    let setup = Setup {
        chip: big_chip(4),
        threads: (0..4u64)
            .map(|i| Placed {
                profile: "hmmer_like",
                space: i,
                seed: 31,
                warmup: 1_000,
                budget: 5_000_000,
                core: i as usize,
                slot: 0,
            })
            .collect(),
        cfg: SampleConfig {
            stride: 262_144,
            ..SampleConfig::default()
        },
    };
    let stats = check("compute_bound", 0x75dd23da10bc20ca, &setup);
    // What makes this cell about 10x faster sampled than exact. Checked
    // apart from the digest, so regenerating the digest cannot lose it.
    assert!(
        stats.extrapolated_fraction() >= 0.9,
        "the steady cell extrapolated only {:.3} of its cycles ({stats:?})",
        stats.extrapolated_fraction()
    );
}

#[test]
fn golden_heterogeneous_eight_threads_on_smt_cores() {
    let profiles = [
        "mcf_like",
        "hmmer_like",
        "libquantum_like",
        "gamess_like",
        "gcc_like",
        "milc_like",
        "astar_like",
        "namd_like",
    ];
    let setup = Setup {
        chip: big_chip(4),
        threads: profiles
            .into_iter()
            .enumerate()
            .map(|(i, profile)| Placed {
                profile,
                space: i as u64,
                seed: 7,
                warmup: 5_000,
                budget: 30_000,
                core: i % 4,
                slot: i / 4,
            })
            .collect(),
        cfg: SampleConfig::default(),
    };
    check("hetero8", 0xdc67cceb18e197c0, &setup);
}
