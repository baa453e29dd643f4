//! CPI stacks: where every context cycle goes, per design point.
//!
//! Not a figure from the paper — an explanatory companion to three of
//! its findings (EXPERIMENTS.md summary table), produced with the
//! `tlpsim-trace` accounting sink:
//!
//! * **Finding 1** — 4B+SMT wins at low thread counts but the gap
//!   compresses at high counts. The stacks show why: going from 4 to
//!   16 threads the DRAM/bus share of the cycle budget grows while the
//!   Base share shrinks — bandwidth saturation, not core
//!   microarchitecture, sets the ceiling everyone hits.
//! * **Finding 3** — 4B+SMT beats heterogeneous no-SMT designs. The
//!   no-SMT chip burns the cycles SMT would recover as idle contexts
//!   and fetch-starved small cores; on 4B+SMT the same cycles show up
//!   as useful Base work plus bounded SMT interference.
//! * **Finding 8** — the ideal dynamic multi-core is only slightly
//!   better than 4B+SMT. The entire price 4B+SMT pays is visible as
//!   the SMT-interference + contention bands; they stay a small
//!   fraction of the stack, which is the bound on what any
//!   reconfiguration oracle could claw back.

use tlpsim_core::configs;
use tlpsim_uarch::{ChipConfig, CpiComponent, CpiStacks, MultiCore, ThreadProgram};
use tlpsim_workloads::{spec, InstrStream};

/// Simulate `n` multiprogrammed threads on `chip` under the accounting
/// sink; returns chip-wide cycle totals per CPI component plus the
/// run's wall cycles.
fn stack_for(chip: &ChipConfig, n: usize, warmup: u64, budget: u64) -> ([u64; 11], u64) {
    let profiles = spec::all();
    let mut sim = MultiCore::with_sink(chip, CpiStacks::new());
    // Round-robin placement across cores, then across SMT contexts —
    // the same breadth-first policy the experiment drivers use.
    let n_cores = chip.cores.len();
    for i in 0..n {
        let p = &profiles[i % profiles.len()];
        let t = sim.add_thread(ThreadProgram::multiprogram_with_warmup(
            InstrStream::new(p, i as u64, 42),
            warmup,
            budget,
        ));
        let core = i % n_cores;
        let slot = (i / n_cores) % chip.cores[core].smt_contexts.max(1) as usize;
        sim.pin(t, core, slot);
    }
    sim.prewarm();
    let cycles = sim.run().expect("cpi-stack run completes").cycles;
    // Sum only contexts that ever did anything: 4B carries 24 SMT
    // contexts, and the structurally-empty ones would otherwise drown
    // the populated contexts' breakdown in pure idle.
    let stacks = sim.into_sink();
    let mut totals = [0u64; 11];
    for (_, comps) in stacks.iter() {
        let idle = comps[CpiComponent::Idle.index()];
        if comps.iter().sum::<u64>() > idle {
            for (t, c) in totals.iter_mut().zip(comps) {
                *t += c;
            }
        }
    }
    (totals, cycles)
}

/// Render one stack as percentages of total attributed cycles.
fn render(label: &str, totals: &[u64; 11]) {
    let sum: u64 = totals.iter().sum();
    print!("{label:<28}");
    for c in CpiComponent::ALL {
        let pct = 100.0 * totals[c.index()] as f64 / sum.max(1) as f64;
        if pct >= 0.05 {
            print!(" {}:{pct:.1}%", c.name());
        }
    }
    println!();
}

fn group(totals: &[u64; 11], comps: &[CpiComponent]) -> f64 {
    let sum: u64 = totals.iter().sum();
    let part: u64 = comps.iter().map(|c| totals[c.index()]).sum();
    part as f64 / sum.max(1) as f64
}

fn main() {
    tlpsim_bench::header("CPI stacks", "cycle accounting behind findings 1, 3, 8");
    let scale = tlpsim_bench::settings().scale;
    let (w, b) = (scale.warmup, scale.budget);

    let d4b = configs::by_name("4B").expect("4B exists");
    let smt = d4b.chip(true, 8.0);
    let nosmt_het = configs::by_name("2B10s")
        .or_else(|| configs::by_name("1B6m"))
        .expect("a heterogeneous design exists");
    let het = nosmt_het.chip(false, 8.0);

    // Finding 1: thread-count sweep on 4B+SMT.
    println!("-- Finding 1: 4B+SMT, memory share vs thread count --");
    let mut mem_shares = Vec::new();
    for n in [2usize, 4, 8, 16] {
        let (t, _) = stack_for(&smt, n, w, b);
        render(&format!("4B+SMT n={n}"), &t);
        mem_shares.push((
            n,
            group(
                &t,
                &[CpiComponent::Llc, CpiComponent::Dram, CpiComponent::L2],
            ),
        ));
    }
    let (first, last) = (mem_shares[0].1, mem_shares.last().unwrap().1);
    println!(
        "memory-hierarchy share {:.1}% -> {:.1}% (saturation compresses the high-count gap)\n",
        100.0 * first,
        100.0 * last
    );

    // Finding 3: 4B+SMT vs heterogeneous no-SMT at equal thread count.
    println!(
        "-- Finding 3: 4B+SMT vs {} no-SMT at n=8 --",
        nosmt_het.name
    );
    let (t_smt, cyc_smt) = stack_for(&smt, 8, w, b);
    let (t_het, cyc_het) = stack_for(&het, 8, w, b);
    render("4B+SMT n=8", &t_smt);
    render(&format!("{} no-SMT n=8", nosmt_het.name), &t_het);
    println!(
        "wall cycles for the same work: 4B+SMT {cyc_smt} vs {} {cyc_het} — SMT overlaps \
         the DRAM band ({:.1}% of context cycles) that the no-SMT chip must expose\n",
        nosmt_het.name,
        100.0 * group(&t_smt, &[CpiComponent::Dram]),
    );

    // Finding 8: the SMT-interference band bounds the oracle's edge.
    println!("-- Finding 8: what a dynamic oracle could reclaim from 4B+SMT --");
    for n in [4usize, 8, 16] {
        let (t, _) = stack_for(&smt, n, w, b);
        let smt_tax = group(
            &t,
            &[
                CpiComponent::SmtFetch,
                CpiComponent::SmtIssue,
                CpiComponent::FuContention,
                CpiComponent::RobFull,
            ],
        );
        println!(
            "4B+SMT n={n}: SMT interference + contention = {:.1}% of all context cycles",
            100.0 * smt_tax
        );
    }
    println!("(the reclaimable band stays small — the oracle's headroom, Fig. 13)");
}
