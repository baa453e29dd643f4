//! Differential and property tests for functional cache warming.
//!
//! `MultiCore::prewarm` fills every cache in closed form. The oracle,
//! which exists only here, is the line-by-line walk: every thread's
//! `prewarm_addrs()` interleaved round-robin (round `i` takes line `i`
//! of every thread that long, in thread order) through
//! `MemorySystem::prewarm_line`, then `reset_counters`. Right after
//! `prewarm()`, the engine's `save_state()` must equal, byte for byte,
//! the engine state with the oracle's memory system in place.
//!
//! The property suite checks the same at the level of one `Cache`:
//! `Cache::prewarm` on random geometries, random (overlapping) run
//! lists and pre-touched caches against `Cache::access` line by line.

use tlpsim_core::{configs, ctx::Ctx, SimScale, SWEEP_COUNTS};
use tlpsim_mem::{AccessKind, Cache, CacheConfig, LineRun, MemorySystem, SnapWriter};
use tlpsim_sched::assign_threads;
use tlpsim_uarch::{ChipConfig, CoreConfig, FetchPolicy, MultiCore, RobSharing, ThreadProgram};
use tlpsim_workloads::{mix, parsec, spec, InstrStream, ParsecApp, Segment, SplitMix64};

/// A chip and its pinned threads, not yet warmed.
struct Setup {
    chip: ChipConfig,
    /// `(program, core, slot)` in `add_thread` order.
    threads: Vec<(ThreadProgram, usize, usize)>,
    roi: Option<(u32, u32)>,
}

impl Setup {
    fn new(chip: ChipConfig) -> Self {
        Setup {
            chip,
            threads: Vec::new(),
            roi: None,
        }
    }

    fn add(&mut self, program: ThreadProgram, core: usize, slot: usize) {
        self.threads.push((program, core, slot));
    }

    fn engine(&self) -> MultiCore {
        let mut sim = MultiCore::new(&self.chip);
        for (program, core, slot) in &self.threads {
            let t = sim.add_thread(program.clone());
            sim.pin(t, *core, *slot);
        }
        if let Some((first, last)) = self.roi {
            sim.set_roi_barriers(first, last);
        }
        sim
    }

    /// The oracle: one line-by-line warm of `mem`.
    fn forward_walk(&self, mem: &mut MemorySystem) {
        let walks: Vec<(usize, Vec<(bool, tlpsim_mem::Addr)>)> = self
            .threads
            .iter()
            .map(|(p, core, _)| (*core, p.prewarm_addrs()))
            .collect();
        let longest = walks.iter().map(|(_, w)| w.len()).max().unwrap_or(0);
        for i in 0..longest {
            for (core, walk) in &walks {
                if let Some(&(is_code, addr)) = walk.get(i) {
                    let kind = if is_code {
                        AccessKind::Fetch
                    } else {
                        AccessKind::Load
                    };
                    mem.prewarm_line(*core, kind, addr);
                }
            }
        }
        mem.reset_counters();
    }

    /// `calls` calls of `prewarm()` on one engine must leave exactly the
    /// state of as many forward walks.
    fn check(&self, what: &str, calls: usize) {
        let mut warmed = self.engine();
        for _ in 0..calls {
            warmed.prewarm();
        }
        let got = warmed.save_state();

        // The unwarmed engine's state ends with its (fresh) memory
        // system and the trace sink; splice the oracle's memory in.
        let cold = self.engine().save_state();
        let fresh = mem_bytes(&MemorySystem::new(&self.chip.memory));
        let at = cold
            .windows(fresh.len())
            .rposition(|w| w == fresh.as_slice())
            .expect("engine state holds its memory system");
        let mut mem = MemorySystem::new(&self.chip.memory);
        for _ in 0..calls {
            self.forward_walk(&mut mem);
        }
        let mut want = cold[..at].to_vec();
        want.extend(mem_bytes(&mem));
        want.extend_from_slice(&cold[at + fresh.len()..]);

        if got != want {
            let first = got.iter().zip(&want).position(|(a, b)| a != b);
            panic!(
                "{what}: state after {calls} prewarm() call(s) differs from the forward walk \
                 ({} vs {} bytes, first difference at {first:?})",
                got.len(),
                want.len()
            );
        }
    }
}

fn mem_bytes(mem: &MemorySystem) -> Vec<u8> {
    let mut w = SnapWriter::new();
    mem.snap_save(&mut w);
    w.finish()
}

// ---------- the twelve configurations of equivalence.rs ----------

/// Two memory-bound and two compute-bound programs on a 2-core chip.
fn multiprogram_mix(chip: ChipConfig) -> Setup {
    let profiles = [
        spec::mcf_like(),
        spec::hmmer_like(),
        spec::libquantum_like(),
        spec::gamess_like(),
    ];
    let slots_per_core = chip.cores[0].smt_contexts as usize;
    let mut s = Setup::new(chip);
    for (i, p) in profiles.iter().enumerate() {
        let prog = ThreadProgram::multiprogram_with_warmup(
            InstrStream::new(p, i as u64, 42),
            1_000,
            6_000,
        );
        let slot = if slots_per_core > 1 {
            (i / 2) % slots_per_core
        } else {
            0 // no SMT: two programs time-share each context
        };
        s.add(prog, i % 2, slot);
    }
    s
}

fn multiprogram(core: CoreConfig, smt: bool) -> Setup {
    let chip = ChipConfig::homogeneous(2, core, 2.66);
    multiprogram_mix(if smt { chip } else { chip.without_smt() })
}

/// A PARSEC-like app whose threads all walk one shared region,
/// pinned round-robin over the cores.
fn parsec_app(chip: ChipConfig, app: &ParsecApp, n_threads: usize) -> Setup {
    let w = app.instantiate(n_threads, 3_000, 7);
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
    let mut s = Setup::new(chip);
    for (i, segs) in w.threads.iter().enumerate() {
        let stream = InstrStream::new(&w.profile, i as u64, 99).with_shared_region(
            0x4000_0000_0000,
            w.shared_bytes,
            w.shared_frac,
        );
        let slots = s.chip.cores[i % n_cores].smt_contexts as usize;
        s.add(
            ThreadProgram::segmented(stream, segs.clone()),
            i % n_cores,
            (i / n_cores) % slots,
        );
    }
    s.roi = Some((0, max_barrier));
    s
}

fn equivalence_configs() -> Vec<(&'static str, Setup)> {
    let mut icount = CoreConfig::big();
    icount.fetch_policy = FetchPolicy::ICount;
    icount.rob_sharing = RobSharing::Shared;

    let mut lock_heavy = parsec::blackscholes_like();
    lock_heavy.cs_frac = 0.9;
    lock_heavy.max_parallelism = 64;
    lock_heavy.imbalance = 0.0;

    let mut time_shared =
        Setup::new(ChipConfig::homogeneous(2, CoreConfig::big(), 2.66).without_smt());
    for i in 0..6u64 {
        let p = if i % 2 == 0 {
            spec::mcf_like()
        } else {
            spec::gcc_like()
        };
        let prog = ThreadProgram::multiprogram_with_warmup(InstrStream::new(&p, i, 17), 500, 4_000);
        time_shared.add(prog, (i % 2) as usize, 0);
    }

    let mut hetero = Setup::new(ChipConfig::heterogeneous(
        &[CoreConfig::big(), CoreConfig::medium(), CoreConfig::small()],
        2.66,
    ));
    for (i, p) in [
        spec::libquantum_like(),
        spec::milc_like(),
        spec::astar_like(),
    ]
    .iter()
    .enumerate()
    {
        let prog =
            ThreadProgram::multiprogram_with_warmup(InstrStream::new(p, i as u64, 5), 1_000, 5_000);
        hetero.add(prog, i, 0);
    }

    let mut mcf = Setup::new(ChipConfig::homogeneous(2, CoreConfig::big(), 2.66));
    for i in 0..4u64 {
        let prog = ThreadProgram::multiprogram_with_warmup(
            InstrStream::new(&spec::mcf_like(), i, 23),
            1_000,
            8_000,
        );
        mcf.add(prog, (i % 2) as usize, (i / 2) as usize);
    }

    vec![
        ("big smt", multiprogram(CoreConfig::big(), true)),
        ("big no-smt", multiprogram(CoreConfig::big(), false)),
        ("medium smt", multiprogram(CoreConfig::medium(), true)),
        ("medium no-smt", multiprogram(CoreConfig::medium(), false)),
        ("small smt", multiprogram(CoreConfig::small(), true)),
        ("small no-smt", multiprogram(CoreConfig::small(), false)),
        (
            "icount shared-rob",
            multiprogram_mix(ChipConfig::homogeneous(2, icount, 2.66)),
        ),
        (
            "barrier-heavy parsec",
            parsec_app(
                ChipConfig::homogeneous(4, CoreConfig::big(), 2.66),
                &parsec::streamcluster_like(),
                8,
            ),
        ),
        (
            "lock-heavy parsec",
            parsec_app(
                ChipConfig::homogeneous(2, CoreConfig::big(), 2.66),
                &lock_heavy,
                4,
            ),
        ),
        ("time-sharing overload", time_shared),
        ("heterogeneous chip", hetero),
        ("memory-bound mcf", mcf),
    ]
}

#[test]
fn equivalence_configs_match_the_forward_walk() {
    for (what, s) in equivalence_configs() {
        s.check(what, 1);
    }
}

/// A second call finds every cache holding lines, so it replays
/// through the lookup path from the first read on.
#[test]
fn a_second_prewarm_matches_two_forward_walks() {
    for (what, s) in equivalence_configs() {
        s.check(what, 2);
    }
}

/// Small cores have 48-set L1s and a 192-set L2: the non-power-of-two
/// set-index path, here with SMT co-runners sharing them.
#[test]
fn small_cores_with_shared_private_caches_match() {
    let chip = ChipConfig::homogeneous(2, CoreConfig::small(), 2.66);
    let mut s = Setup::new(chip);
    for (i, p) in [spec::gcc_like(), spec::astar_like(), spec::milc_like()]
        .iter()
        .enumerate()
    {
        let prog =
            ThreadProgram::multiprogram_with_warmup(InstrStream::new(p, i as u64, 3), 100, 1_000);
        s.add(prog, 0, i % 2);
    }
    s.check("three threads on one small core", 1);
}

/// Every mix of the served 4B sweep at the daemon tests' tiny scale,
/// built and placed as `Ctx` builds and places them.
#[test]
fn every_served_tiny_mix_matches_the_forward_walk() {
    let scale = SimScale {
        warmup: 200,
        budget: 600,
        parsec_phase: 1_000,
        seed: 42,
    };
    let ctx = Ctx::new(scale);
    let chip = configs::by_name("4B")
        .expect("4B is a design")
        .chip(true, 8.0);
    let profiles = spec::all();
    for n in SWEEP_COUNTS {
        for (w, m) in mix::heterogeneous_mixes(12, n, scale.seed)
            .iter()
            .enumerate()
        {
            let traits: Vec<_> = m.iter().map(|&b| ctx.traits_of(b).unwrap()).collect();
            let placements = assign_threads(&chip, &traits, true);
            let mut s = Setup::new(chip.clone());
            for (i, &b) in m.iter().enumerate() {
                let seed = scale.seed ^ ((w as u64) << 20) ^ 0x9E37;
                let prog = ThreadProgram::multiprogram_with_warmup(
                    InstrStream::new(&profiles[b], i as u64, seed),
                    scale.warmup,
                    scale.budget,
                );
                s.add(prog, placements[i].core, placements[i].slot);
            }
            s.check(&format!("4B n={n} mix {w}"), 1);
        }
    }
}

/// Threads of one app walk their shared region in lockstep, two per
/// core: L1D, L2 and LLC all meet repeated lines, and canneal's region
/// outgrows the LLC.
#[test]
fn shared_region_app_two_threads_per_core_matches() {
    let chip = ChipConfig::homogeneous(2, CoreConfig::big(), 2.66);
    parsec_app(chip, &parsec::canneal_like(), 4).check("canneal-like, 4 threads on 2 cores", 1);
}

// ---------- Cache-level properties ----------

fn cache_bytes(c: &Cache) -> Vec<u8> {
    let mut w = SnapWriter::new();
    c.snap_save(&mut w);
    w.finish()
}

/// Line-by-line reference for `Cache::prewarm`.
fn forward(c: &mut Cache, lanes: &[Vec<LineRun>], feeds: fn(&LineRun) -> bool) {
    let walks: Vec<Vec<Option<tlpsim_mem::LineAddr>>> = lanes
        .iter()
        .map(|runs| {
            runs.iter()
                .flat_map(|r| r.lines().map(move |l| feeds(r).then_some(l)))
                .collect()
        })
        .collect();
    let longest = walks.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for w in &walks {
            if let Some(Some(l)) = w.get(i) {
                c.access(*l, false);
            }
        }
    }
}

#[test]
fn cache_prewarm_matches_forward_access() {
    const ODD_SETS: [u64; 7] = [3, 5, 6, 12, 48, 96, 192];
    let mut rng = SplitMix64::new(0x9E37_79B9);
    for case in 0..400 {
        let sets = if rng.chance(0.5) {
            1 << rng.below(8)
        } else {
            ODD_SETS[rng.below(ODD_SETS.len() as u64) as usize]
        };
        let ways = 1 + rng.below(16);
        let lines = sets * ways;
        let mut warmed = Cache::new(CacheConfig::new(lines * 64, ways as u32, 1));

        // Start empty, pre-touched (resident, some dirty), or touched
        // and emptied again (stale stamps, tick and counters).
        let start = rng.below(3);
        if start > 0 {
            let touched: Vec<u64> = (0..rng.below(2 * lines) + 1)
                .map(|_| rng.below(4 * lines))
                .collect();
            for &l in &touched {
                warmed.access(tlpsim_mem::LineAddr(l), rng.chance(0.3));
            }
            if start == 2 {
                for &l in &touched {
                    warmed.invalidate(tlpsim_mem::LineAddr(l));
                }
            }
        }

        // Lanes of runs drawn from a window a few times the capacity,
        // so runs overlap often; some lanes replay an earlier lane's
        // runs exactly (threads walking one shared region).
        let mut lanes: Vec<Vec<LineRun>> = Vec::new();
        for _ in 0..1 + rng.below(5) {
            if !lanes.is_empty() && rng.chance(0.2) {
                let copy = lanes[rng.below(lanes.len() as u64) as usize].clone();
                lanes.push(copy);
                continue;
            }
            let runs = (0..rng.below(5))
                .map(|_| LineRun {
                    code: rng.chance(0.3),
                    first: tlpsim_mem::LineAddr(rng.below(6 * lines)),
                    len: rng.below(3 * lines + 2),
                })
                .collect();
            lanes.push(runs);
        }
        let feeds: fn(&LineRun) -> bool = match rng.below(3) {
            0 => |_| true,
            1 => |r| r.code,
            _ => |r| !r.code,
        };

        let mut reference = warmed.clone();
        let refs: Vec<&[LineRun]> = lanes.iter().map(Vec::as_slice).collect();
        warmed.prewarm(&refs, feeds);
        forward(&mut reference, &lanes, feeds);
        assert!(
            cache_bytes(&warmed) == cache_bytes(&reference),
            "case {case}: {sets} sets x {ways} ways, start {start}, lanes {lanes:?}"
        );
    }
}

/// Disjoint footprints far larger than the cache: the closed form
/// alone, with every set overfilled many times.
#[test]
fn cache_prewarm_matches_forward_access_on_long_disjoint_runs() {
    for (sets, ways) in [(8192, 16), (48, 2), (192, 4), (128, 4)] {
        let mut warmed = Cache::new(CacheConfig::new(sets * ways * 64, ways as u32, 1));
        let mut reference = warmed.clone();
        let lanes: Vec<Vec<LineRun>> = (0..3u64)
            .map(|t| {
                let base = (t << 24) + t * 65;
                vec![
                    LineRun {
                        code: false,
                        first: tlpsim_mem::LineAddr(base),
                        len: 5 * sets * ways + t,
                    },
                    LineRun {
                        code: true,
                        first: tlpsim_mem::LineAddr(base + (1 << 22)),
                        len: sets / 2 + 1,
                    },
                ]
            })
            .collect();
        let refs: Vec<&[LineRun]> = lanes.iter().map(Vec::as_slice).collect();
        warmed.prewarm(&refs, |_| true);
        forward(&mut reference, &lanes, |_| true);
        assert!(
            cache_bytes(&warmed) == cache_bytes(&reference),
            "{sets} sets x {ways} ways"
        );
    }
}
