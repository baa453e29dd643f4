//! The stall watchdog: a schedule that cannot make progress must abort
//! with `RunError::Stalled` and a usable diagnostic snapshot instead of
//! spinning forever.

use tlpsim_uarch::{
    ChipConfig, CoreConfig, MultiCore, ProgramState, RunError, ThreadProgram,
    DEFAULT_WATCHDOG_CYCLES,
};
use tlpsim_workloads::{spec, InstrStream, Segment};

/// Two segmented threads where only one ever reaches barrier 0: the
/// barrier needs both segmented threads, so the waiter starves.
fn stalled_sim() -> MultiCore {
    let chip = ChipConfig::homogeneous(2, CoreConfig::big(), 2.66);
    let mut sim = MultiCore::new(&chip);
    let profile = spec::gcc_like();
    let waiter = sim.add_thread(ThreadProgram::segmented(
        InstrStream::new(&profile, 0, 1),
        vec![
            Segment::Compute { instrs: 500 },
            Segment::Barrier { id: 0 },
            Segment::Compute { instrs: 500 },
        ],
    ));
    let runner = sim.add_thread(ThreadProgram::segmented(
        InstrStream::new(&profile, 1, 2),
        vec![Segment::Compute { instrs: 500 }],
    ));
    sim.pin(waiter, 0, 0);
    sim.pin(runner, 1, 0);
    sim
}

#[test]
fn watchdog_fires_on_starved_barrier() {
    let mut sim = stalled_sim();
    sim.set_watchdog(20_000);
    match sim.run() {
        Err(RunError::Stalled { cycle, snapshot }) => {
            // Fires promptly: well before the old hard-coded 3M window.
            assert!(cycle < 200_000, "stall declared only at cycle {cycle}");
            assert_eq!(snapshot.window, 20_000);
            assert!(snapshot.committed >= 1_000, "both compute phases ran");
            // The snapshot names the starved barrier: 1 of 2 arrived.
            assert_eq!(snapshot.barriers, vec![(0, 1, 2)]);
            // The waiter is visible as blocked at barrier 0.
            let blocked = snapshot
                .contexts
                .iter()
                .filter(|c| c.state == Some(ProgramState::AtBarrier(0)))
                .count();
            assert_eq!(blocked, 1, "snapshot: {snapshot}");
            // Nothing is in flight anywhere: the chip is truly idle.
            assert!(snapshot.contexts.iter().all(|c| c.pending_mem_ops == 0));
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
}

#[test]
fn watchdog_window_is_configurable() {
    let mut fast = stalled_sim();
    fast.set_watchdog(5_000);
    let mut slow = stalled_sim();
    slow.set_watchdog(400_000);
    let fast_cycle = match fast.run() {
        Err(RunError::Stalled { cycle, .. }) => cycle,
        other => panic!("expected Stalled, got {other:?}"),
    };
    let slow_cycle = match slow.run() {
        Err(RunError::Stalled { cycle, .. }) => cycle,
        other => panic!("expected Stalled, got {other:?}"),
    };
    assert!(
        fast_cycle < slow_cycle,
        "5k window fired at {fast_cycle}, 400k window at {slow_cycle}"
    );
}

/// A tight window and the largest one `TLPSIM_WATCHDOG_CYCLES` accepts
/// both leave a healthy run exactly as the default window does, on
/// both engines: `u64::MAX` means "never fire", so the fast-forward
/// replay of the checks must saturate, not wrap to a past cycle. The
/// run is long enough for skips to span several check cycles.
#[test]
fn healthy_run_is_untouched_by_the_watchdog_window() {
    let run = |skip: bool, window: Option<u64>| {
        let chip = ChipConfig::homogeneous(1, CoreConfig::big(), 2.66);
        let mut sim = MultiCore::new(&chip);
        let t = sim.add_thread(ThreadProgram::multiprogram_with_warmup(
            InstrStream::new(&spec::mcf_like(), 0, 1),
            0,
            20_000,
        ));
        sim.pin(t, 0, 0);
        sim.prewarm();
        sim.set_cycle_skipping(skip);
        if let Some(w) = window {
            sim.set_watchdog(w);
        }
        sim.run().expect("healthy run completes")
    };
    let reference = run(false, None);
    assert!(reference.threads[0].finish_cycle.is_some());
    for skip in [false, true] {
        for window in [50_000, u64::MAX] {
            assert_eq!(
                run(skip, Some(window)),
                reference,
                "window {window} changed a healthy run (skip={skip})"
            );
        }
    }
}

#[test]
fn default_window_matches_constant() {
    // The default must stay generous enough for slow-but-live runs.
    assert_eq!(DEFAULT_WATCHDOG_CYCLES, 3_000_000);
}

/// Regression: a fast-forward larger than the watchdog window over a
/// zero-commit stretch must still raise `Stalled` — at exactly the
/// cycle the dense stepper would, with an identical snapshot. The
/// starved barrier quiesces the whole chip, so the skip engine's next
/// event is unbounded and the jump would otherwise sail past the
/// window.
#[test]
fn stall_is_bit_identical_under_fast_forward() {
    for window in [5_000u64, 20_000, 131_072, 400_000] {
        let mut fast = stalled_sim();
        fast.set_cycle_skipping(true);
        fast.set_watchdog(window);
        let mut dense = stalled_sim();
        dense.set_cycle_skipping(false);
        dense.set_watchdog(window);
        let ef = fast.run().expect_err("starved barrier must stall");
        let ed = dense.run().expect_err("starved barrier must stall");
        assert_eq!(
            ef, ed,
            "fast-forward stall diverged from dense at window={window}"
        );
    }
}

/// Regression: fast-forward must not bypass the power-of-two check
/// cadence. The dense stepper only inspects progress on cycles that
/// are multiples of the check period, so the reported stall cycle is
/// always aligned to it — skipped runs included.
#[test]
fn stall_cycle_respects_check_cadence() {
    let window = 20_000u64;
    // Mirrors the engine's cadence: (window/4) rounded up to a power
    // of two, capped at 64Ki cycles.
    let check_period = (window / 4).next_power_of_two().clamp(1, 0x1_0000);
    let mut sim = stalled_sim();
    sim.set_cycle_skipping(true);
    sim.set_watchdog(window);
    match sim.run() {
        Err(RunError::Stalled { cycle, .. }) => {
            assert_eq!(
                cycle % check_period,
                0,
                "stall at {cycle} not aligned to check period {check_period}"
            );
            assert!(
                sim.skipped_cycles() > 0,
                "quiescent chip should fast-forward"
            );
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
}

/// Checkpoint/restore must re-arm the watchdog exactly: the progress
/// baselines (`last commits` / `last progress cycle`) travel inside the
/// snapshot and the check cadence is re-derived from the restored
/// window, so a run restored mid-starvation declares the stall at the
/// *same cycle* with the *same snapshot* as the uninterrupted run —
/// the restore neither resets the no-progress clock (which would delay
/// detection) nor forgets pre-checkpoint progress (which would
/// false-positive).
#[test]
fn watchdog_rearms_across_restore() {
    use tlpsim_uarch::RunStatus;
    let window = 20_000u64;
    let mk = |skip: bool| {
        let mut sim = stalled_sim();
        sim.set_cycle_skipping(skip);
        sim.set_watchdog(window);
        sim
    };
    for skip in [false, true] {
        let reference = mk(skip).run().expect_err("starved barrier must stall");
        let stall_cycle = match &reference {
            RunError::Stalled { cycle, .. } => *cycle,
            other => panic!("expected Stalled, got {other:?}"),
        };
        // Pause both while threads still commit and deep into the
        // no-progress stretch (past half the window).
        for pause in [500, stall_cycle - window / 2] {
            let mut sim = mk(skip);
            match sim.run_slice(1 << 40, pause) {
                Ok(RunStatus::Paused) => {}
                other => panic!("expected pause at {pause}, got {other:?}"),
            }
            let bytes = sim.save_state();
            let mut restored = mk(skip);
            restored.restore_state(&bytes).expect("restore");
            let e = restored.run().expect_err("restored run must still stall");
            assert_eq!(
                e, reference,
                "restore at {pause} (skip={skip}) changed the stall verdict"
            );
        }
    }
}

/// A cycle limit hit inside a skipped window must report the same
/// `CycleLimit` error as the dense stepper, at the same final cycle.
#[test]
fn cycle_limit_is_bit_identical_under_fast_forward() {
    // mcf-like misses constantly, so fast-forward is active when the
    // limit lands mid-window.
    let mcf = || {
        let chip = ChipConfig::homogeneous(1, CoreConfig::big(), 2.66);
        let mut sim = MultiCore::new(&chip);
        let t = sim.add_thread(ThreadProgram::multiprogram_with_warmup(
            InstrStream::new(&spec::mcf_like(), 0, 3),
            0,
            1_000_000,
        ));
        sim.pin(t, 0, 0);
        sim.prewarm();
        sim
    };
    // A starved chip under a `u64::MAX` window: the watchdog never
    // fires, so the limit ends the run on both engines.
    let starved = || {
        let mut sim = stalled_sim();
        sim.set_watchdog(u64::MAX);
        sim
    };
    let cells: [&dyn Fn() -> MultiCore; 2] = [&mcf, &starved];
    for mk in cells {
        let mut fast = mk();
        fast.set_cycle_skipping(true);
        let mut dense = mk();
        dense.set_cycle_skipping(false);
        let limit = 30_000;
        let ef = fast.run_with_limit(limit).expect_err("limit must trip");
        let ed = dense.run_with_limit(limit).expect_err("limit must trip");
        assert_eq!(ef, RunError::CycleLimit { limit });
        assert_eq!(ef, ed, "cycle-limit behaviour diverged");
        assert_eq!(fast.now(), dense.now(), "final cycle diverged");
    }
}
