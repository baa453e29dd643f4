//! End-to-end tests of the `tlpsim serve` supervisor/worker stack
//! (DESIGN.md §13): real worker OS processes (the `__serve-worker`
//! entry of the tlpsim binary) connected over loopback TCP, real kills.
//! Each test builds a journal whose header carries a tiny simulation
//! scale, so the debug-build workers stay fast — the scale rides in
//! every request exactly the way production scales do.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use tlpsim::core::ctx::{Cell, Ctx, WorkloadKind};
use tlpsim::core::diskcache::Record;
use tlpsim::core::journal::{Journal, SweepSpec};
use tlpsim::core::mode::SimMode;
use tlpsim::core::net::{FramedConn, MAX_FRAME};
use tlpsim::core::serve::{serve_sweep, FaultPolicy, ServeOptions};
use tlpsim::core::worker::{encode_done, encode_runs, EXIT};
use tlpsim::core::{configs, interrupt, SimScale, SWEEP_COUNTS};

/// Small enough for debug-build workers, big enough to exercise the
/// real simulation path.
fn tiny_scale() -> SimScale {
    SimScale {
        warmup: 200,
        budget: 600,
        parsec_phase: 1_000,
        seed: 42,
    }
}

fn tiny_spec() -> SweepSpec {
    SweepSpec {
        design: "4B".into(),
        kind: WorkloadKind::Heterogeneous,
        smt: true,
        bus_dgbps: 80,
        scale: tiny_scale(),
        mode: SimMode::Exact,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tlpsim-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Options pointing at the real tlpsim binary's worker entry point.
/// The fault policy is `Clear`, so an exported `TLPSIM_FAULT` cannot
/// leak into the worker hosts.
fn opts() -> ServeOptions {
    ServeOptions {
        workers: 2,
        worker_cmd: vec![
            env!("CARGO_BIN_EXE_tlpsim").to_string(),
            "__serve-worker".to_string(),
        ],
        retry_base: Duration::from_millis(20),
        fault: FaultPolicy::Clear,
        ..ServeOptions::default()
    }
}

/// A synthetic journaled cell for thread counts a test wants to skip
/// (prefilled "done" work is never re-dispatched, so its values only
/// need to be well-formed).
fn fake_cell(n: usize) -> Cell {
    Cell {
        stp: (0..12).map(|i| n as f64 + i as f64 * 0.125).collect(),
        antt: (0..12).map(|i| 1.0 + i as f64 * 0.0625).collect(),
        power_w: (0..12).map(|i| 10.0 + i as f64).collect(),
    }
}

/// Prefill every sweep cell except `leave` with synthetic results.
fn all_but(leave: &[usize]) -> BTreeMap<usize, Cell> {
    SWEEP_COUNTS
        .iter()
        .filter(|n| !leave.contains(n))
        .map(|&n| (n, fake_cell(n)))
        .collect()
}

#[test]
fn serve_completes_and_matches_in_process_results() {
    interrupt::reset();
    let dir = tmp_dir("match");
    let jpath = dir.join("sweep.journal");
    let spec = tiny_spec();
    let journal = Journal::create(&jpath, spec.clone()).unwrap();

    let out = serve_sweep(&journal, BTreeMap::new(), &opts()).expect("serve runs");
    assert!(!out.interrupted);
    assert!(out.quarantined.is_empty(), "{:?}", out.quarantined);
    assert_eq!(
        out.cells.keys().copied().collect::<Vec<_>>(),
        SWEEP_COUNTS.to_vec(),
        "every sweep cell must complete"
    );
    assert_eq!(out.stats.dispatched, SWEEP_COUNTS.len() as u64);
    assert_eq!(out.stats.retries, 0);
    assert_eq!(out.stats.rejected_frames, 0);

    // Worker processes must produce bit-identical results to the
    // in-process executor — same scale, same seed, same code. Spot-
    // check the ends and middle of the sweep (re-simulating all nine
    // in-process would double the test's wall time for no extra signal).
    let ctx = Ctx::new(spec.scale);
    let design = configs::by_name(&spec.design).unwrap();
    for n in [1usize, 8, 24] {
        let reference = ctx
            .mp_cell_bus(&design, n, spec.kind, spec.smt, 8.0)
            .expect("in-process cell");
        assert_eq!(
            &out.cells[&n], &*reference,
            "cell n={n} differs from in-process run"
        );
    }

    // Every cell was journaled write-ahead: a resume finds nothing to do.
    drop(journal);
    let (_j, _s, done, report) = Journal::open(&jpath).unwrap();
    assert_eq!(done.len(), SWEEP_COUNTS.len());
    assert_eq!(report.truncated_at, None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_crash_faults_are_retried_never_quarantined() {
    interrupt::reset();
    let dir = tmp_dir("crash");
    let jpath = dir.join("sweep.journal");
    let spec = tiny_spec();
    let journal = Journal::create(&jpath, spec.clone()).unwrap();

    // Every non-final attempt crashes; the final-attempt suppression
    // makes the fault transient by construction.
    let mut o = opts();
    o.fault = FaultPolicy::Spec("crash:1.0,seed:5".into());
    let done = all_but(&[1, 2, 4]);
    let out = serve_sweep(&journal, done, &o).expect("serve runs");

    assert!(out.quarantined.is_empty(), "{:?}", out.quarantined);
    assert_eq!(out.cells.len(), SWEEP_COUNTS.len());
    // 3 cells × attempts {0, 1} crashed, attempt 2 (last) succeeded.
    assert_eq!(out.stats.retries, 6, "{:?}", out.stats);
    assert_eq!(out.stats.dispatched, 9, "{:?}", out.stats);
    assert!(out.stats.worker_deaths >= 6, "{:?}", out.stats);
    assert!(out.stats.respawns >= 6, "{:?}", out.stats);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_faults_exhaust_the_budget_and_quarantine() {
    interrupt::reset();
    let dir = tmp_dir("quarantine");
    let jpath = dir.join("sweep.journal");
    let spec = tiny_spec();
    let journal = Journal::create(&jpath, spec.clone()).unwrap();

    let mut o = opts();
    o.fault = FaultPolicy::Spec("crash:1.0,persist,seed:1".into());
    let done = all_but(&[1, 2]);
    let out = serve_sweep(&journal, done, &o).expect("serve completes degraded, not Err");

    assert_eq!(
        out.quarantined.keys().copied().collect::<Vec<_>>(),
        vec![1, 2],
        "both uncovered cells must be quarantined"
    );
    for e in out.quarantined.values() {
        let s = e.to_string();
        assert!(
            s.contains("quarantined after 3"),
            "typed error renders budget: {s}"
        );
    }
    assert!(!out.cells.contains_key(&1) && !out.cells.contains_key(&2));
    assert!(!out.interrupted);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_worker_is_killed_by_heartbeat_loss_and_cell_retried() {
    interrupt::reset();
    let dir = tmp_dir("stall");
    let jpath = dir.join("sweep.journal");
    let spec = tiny_spec();
    let journal = Journal::create(&jpath, spec.clone()).unwrap();

    let mut o = opts();
    o.workers = 1;
    o.fault = FaultPolicy::Spec("stall:1.0,seed:2".into());
    o.hb_interval = Duration::from_millis(50);
    o.hb_timeout = Duration::from_millis(400);
    o.max_attempts = 2;
    let done = all_but(&[1]);
    let out = serve_sweep(&journal, done, &o).expect("serve runs");

    assert!(out.quarantined.is_empty(), "{:?}", out.quarantined);
    assert_eq!(out.cells.len(), SWEEP_COUNTS.len());
    assert!(out.stats.hb_kills >= 1, "{:?}", out.stats);
    assert_eq!(out.stats.retries, 1, "{:?}", out.stats);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_result_write_is_rejected_by_checksum_and_retried() {
    interrupt::reset();
    let dir = tmp_dir("torn");
    let jpath = dir.join("sweep.journal");
    let spec = tiny_spec();
    let journal = Journal::create(&jpath, spec.clone()).unwrap();

    let mut o = opts();
    o.fault = FaultPolicy::Spec("torn-write:1.0,seed:3".into());
    let done = all_but(&[1, 2]);
    let out = serve_sweep(&journal, done, &o).expect("serve runs");

    assert!(out.quarantined.is_empty(), "{:?}", out.quarantined);
    assert_eq!(out.cells.len(), SWEEP_COUNTS.len());
    // The half-written frame must be caught by the frame checksum, not
    // accepted as a result. 2 cells × attempts {0, 1} torn = 4 bad
    // frames, 4 retries; attempt 2 (last) lands clean.
    assert!(out.stats.rejected_frames >= 4, "{:?}", out.stats);
    assert_eq!(out.stats.retries, 4, "{:?}", out.stats);
    assert!(out.stats.worker_deaths >= 4, "{:?}", out.stats);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg(unix)]
fn externally_sigkilled_worker_is_respawned_and_sweep_completes() {
    interrupt::reset();
    let dir = tmp_dir("sigkill");
    let jpath = dir.join("sweep.journal");
    let pid_file = dir.join("workers.pids");
    let spec = tiny_spec();
    let journal = Journal::create(&jpath, spec.clone()).unwrap();

    let mut o = opts();
    o.workers = 1;
    o.pid_file = Some(pid_file.clone());
    let done = all_but(&[8, 12, 16, 24]);

    // The external chaos: SIGKILL the first worker the moment its PID
    // shows up — almost certainly mid-cell.
    let killer = {
        let pid_file = pid_file.clone();
        std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            loop {
                if let Ok(text) = std::fs::read_to_string(&pid_file) {
                    if let Some(pid) = text
                        .lines()
                        .next()
                        .and_then(|l| l.trim().parse::<u32>().ok())
                    {
                        std::thread::sleep(Duration::from_millis(300));
                        return interrupt::send_signal(pid, interrupt::SIGKILL);
                    }
                }
                if std::time::Instant::now() >= deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    let out = serve_sweep(&journal, done, &o).expect("serve runs");
    assert!(killer.join().unwrap(), "the victim worker was never killed");

    assert!(out.quarantined.is_empty(), "{:?}", out.quarantined);
    assert_eq!(
        out.cells.keys().copied().collect::<Vec<_>>(),
        SWEEP_COUNTS.to_vec()
    );
    // The kill either hit a busy worker (death + retry) or, at worst,
    // one that had just gone idle (death + respawn only) — in both
    // cases the pool recovered.
    assert!(out.stats.worker_deaths >= 1, "{:?}", out.stats);
    assert!(out.stats.respawns >= 1, "{:?}", out.stats);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker host behind a bare listener standing in for the
/// supervisor: an unterminated line over `MAX_FRAME` is dropped while it
/// streams in, and the next request is still answered.
#[test]
fn worker_host_drops_an_oversized_line_and_answers_the_next_request() {
    let dir = tmp_dir("oversized");
    let cache = dir.join("cells.cache");
    let spec = tiny_spec();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let mut host = Command::new(env!("CARGO_BIN_EXE_tlpsim"))
        .args(["__serve-worker", "--tcp", &addr, cache.to_str().unwrap()])
        .env_remove("TLPSIM_FAULT")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("worker host spawns");
    let stderr = {
        let mut pipe = host.stderr.take().unwrap();
        std::thread::spawn(move || {
            let mut text = String::new();
            pipe.read_to_string(&mut text).map(|_| text)
        })
    };
    let (stream, _) = listener.accept().expect("worker host connects");
    let mut conn = FramedConn::from_stream(stream, Duration::from_secs(60)).unwrap();
    let hello = conn.recv().expect("intact HELLO");
    assert!(hello.starts_with("HELLO "), "{hello}");

    // More than MAX_FRAME bytes before the line ends: the host must
    // discard the line rather than buffer it, then serve the next frame.
    let mut raw = conn.stream().try_clone().unwrap();
    raw.write_all(&vec![b'x'; MAX_FRAME + 4096]).unwrap();
    raw.write_all(b"\n").unwrap();
    conn.send(&encode_runs(1, 0, true, &spec.header_line()))
        .unwrap();

    let reply = loop {
        let frame = conn.recv().expect("an intact reply");
        if !frame.starts_with("HB ") {
            break frame;
        }
    };
    let cell = Ctx::new(spec.scale)
        .mp_cell_bus(
            &configs::by_name(&spec.design).unwrap(),
            1,
            spec.kind,
            spec.smt,
            8.0,
        )
        .expect("in-process cell");
    let record = Record::Cell {
        key: spec.cell_key(1),
        cell: (*cell).clone(),
    };
    assert_eq!(reply, encode_done(0, &record.encode()));

    conn.send(EXIT).unwrap();
    assert!(host.wait().unwrap().success());
    // The line was rejected for its length while it streamed in, not
    // buffered whole and then failed as a bad frame.
    let stderr = stderr.join().unwrap().unwrap();
    let cap = format!("frame exceeds the {MAX_FRAME}-byte cap");
    assert!(stderr.contains(&cap), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
