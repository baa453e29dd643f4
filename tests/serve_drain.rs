//! Graceful-drain test of the serve supervisor, isolated in its own
//! test binary because it raises the process-global interrupt flag —
//! sharing a process with the other serve tests would drain them too.

use std::collections::BTreeMap;
use std::time::Duration;

use tlpsim::core::ctx::WorkloadKind;
use tlpsim::core::journal::{Journal, SweepSpec};
use tlpsim::core::mode::SimMode;
use tlpsim::core::serve::{serve_sweep, FaultPolicy, ServeOptions};
use tlpsim::core::{interrupt, SimScale, SWEEP_COUNTS};

#[test]
fn interrupt_drains_gracefully_and_the_journal_resumes() {
    interrupt::reset();
    let dir = std::env::temp_dir().join(format!("tlpsim-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let jpath = dir.join("sweep.journal");

    let spec = SweepSpec {
        design: "4B".into(),
        kind: WorkloadKind::Heterogeneous,
        smt: true,
        bus_dgbps: 80,
        scale: SimScale {
            warmup: 200,
            budget: 600,
            parsec_phase: 1_000,
            seed: 42,
        },
        mode: SimMode::Exact,
    };
    let opts = ServeOptions {
        workers: 2,
        worker_cmd: vec![
            env!("CARGO_BIN_EXE_tlpsim").to_string(),
            "__serve-worker".to_string(),
        ],
        retry_base: Duration::from_millis(20),
        fault: FaultPolicy::Clear,
        ..ServeOptions::default()
    };

    let journal = Journal::create(&jpath, spec.clone()).unwrap();

    // Raise the interrupt the moment the journal shows progress — mid-
    // sweep, with cells still pending, like a real Ctrl-C would.
    let trigger = {
        let jpath = jpath.clone();
        std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + Duration::from_secs(120);
            loop {
                let journaled_cells = std::fs::read_to_string(&jpath)
                    .map(|t| t.lines().count().saturating_sub(1))
                    .unwrap_or(0);
                if journaled_cells >= 1 {
                    interrupt::request();
                    return true;
                }
                if std::time::Instant::now() >= deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        })
    };

    let out = serve_sweep(&journal, BTreeMap::new(), &opts).expect("serve runs");
    assert!(trigger.join().unwrap(), "the interrupt was never raised");

    assert!(out.interrupted, "outcome must record the drain");
    assert!(
        out.quarantined.is_empty(),
        "a drain is not a failure: {:?}",
        out.quarantined
    );
    assert!(
        out.cells.len() < SWEEP_COUNTS.len(),
        "drain must have cut the sweep short to test anything"
    );
    assert!(
        !out.cells.is_empty(),
        "the trigger waited for journaled progress"
    );
    // Workers exited cleanly: a drain is cooperative, not a massacre.
    assert_eq!(out.stats.worker_deaths, 0, "{:?}", out.stats);
    assert!(out.stats.clean_exits >= 1, "{:?}", out.stats);
    let drained = out.cells.len();
    drop(journal);

    // Round 2: the journal picks up exactly where the drain stopped —
    // no completed cell is recomputed, the remainder completes.
    interrupt::reset();
    let (journal, spec2, done, report) = Journal::open(&jpath).unwrap();
    assert_eq!(spec2, spec);
    assert_eq!(done.len(), drained, "journal holds every drained cell");
    assert_eq!(report.truncated_at, None, "graceful drain tears nothing");

    let out2 = serve_sweep(&journal, done, &opts).expect("second serve runs");
    assert!(!out2.interrupted);
    assert!(out2.quarantined.is_empty());
    assert_eq!(
        out2.cells.keys().copied().collect::<Vec<_>>(),
        SWEEP_COUNTS.to_vec()
    );
    // The no-recompute invariant, measured: round 2 dispatched only
    // what the drain left undone.
    assert_eq!(
        out2.stats.dispatched,
        (SWEEP_COUNTS.len() - drained) as u64,
        "{:?}",
        out2.stats
    );
    let _ = std::fs::remove_dir_all(&dir);
}
