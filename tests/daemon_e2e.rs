//! End-to-end tests of `tlpsim serve --daemon` (DESIGN.md §16): a real
//! daemon process, real TCP worker hosts, real `tlpsim submit` client
//! processes, real SIGKILLs. The invariants under test are the PR's
//! acceptance bar: client-visible stdout byte-identical to an
//! in-process sweep no matter what the wire or the daemon's lifetime
//! does, and **no cell computed twice** — verified structurally, by
//! CELL-record key uniqueness in the shared cache.

use std::collections::HashSet;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use tlpsim::core::client::{self, ClientOptions};
use tlpsim::core::ctx::{Ctx, WorkloadKind};
use tlpsim::core::diskcache::Record;
use tlpsim::core::framedlog::unframe;
use tlpsim::core::journal::SweepSpec;
use tlpsim::core::mode::SimMode;
use tlpsim::core::net::FramedConn;
use tlpsim::core::worker::encode_runs;
use tlpsim::core::{configs, interrupt, SimError, SimScale, SWEEP_COUNTS};

/// Small enough for debug-build workers, big enough to exercise the
/// real simulation path. Must match `TLPSIM_SERVE_SCALE` below.
fn tiny_scale() -> SimScale {
    SimScale {
        warmup: 200,
        budget: 600,
        parsec_phase: 1_000,
        seed: 42,
    }
}

const TINY_SCALE_ENV: &str = "200,600,1000,42";

fn tiny_spec(design: &str) -> SweepSpec {
    SweepSpec {
        design: design.into(),
        kind: WorkloadKind::Heterogeneous,
        smt: true,
        bus_dgbps: 80,
        scale: tiny_scale(),
        mode: SimMode::Exact,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tlpsim-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The tlpsim binary under the tiny scale, with `env` set. Every
/// inherited `TLPSIM_*` variable is removed first, so a knob left in a
/// developer's shell cannot steer, or fail, a spawned process.
fn tlpsim_cmd(env: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tlpsim"));
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("TLPSIM_") {
            cmd.env_remove(&k);
        }
    }
    cmd.env("TLPSIM_SERVE_SCALE", TINY_SCALE_ENV)
        .env("TLPSIM_SERVE_RETRY_MS", "20");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd
}

/// Spawn a daemon bound to `addr` and wait for its addr-file
/// rendezvous. `None` if the daemon died before publishing (e.g. a
/// bind race right after a predecessor's SIGKILL — callers retry).
fn spawn_daemon(dir: &Path, addr: &str, env: &[(&str, &str)]) -> Option<(Child, String)> {
    let addr_file = dir.join("addr.txt");
    let _ = std::fs::remove_file(&addr_file);
    let mut child = tlpsim_cmd(env)
        .args([
            "serve",
            "--daemon",
            addr,
            "--workers",
            "2",
            "--queue",
            dir.join("jobs.queue").to_str().unwrap(),
            "--cache",
            dir.join("cells.cache").to_str().unwrap(),
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--pid-file",
            dir.join("workers.pids").to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(a) = std::fs::read_to_string(&addr_file) {
            let a = a.trim().to_string();
            if !a.is_empty() {
                return Some((child, a));
            }
        }
        if child.try_wait().ok().flatten().is_some() {
            return None;
        }
        assert!(Instant::now() < deadline, "daemon never published its addr");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Spawn with retry — after a SIGKILL the port can linger briefly.
fn spawn_daemon_insist(dir: &Path, addr: &str, env: &[(&str, &str)]) -> (Child, String) {
    for round in 0..40 {
        if let Some(up) = spawn_daemon(dir, addr, env) {
            return up;
        }
        std::thread::sleep(Duration::from_millis(100 + 50 * round));
    }
    panic!("daemon at {addr} never came up");
}

/// The stdout a fault-free in-process sweep of 4B prints — the
/// byte-identity reference every daemon path is held to. Computed
/// once per test process.
fn expected_table() -> &'static str {
    static EXPECTED: OnceLock<String> = OnceLock::new();
    EXPECTED.get_or_init(|| {
        let ctx = Ctx::new(tiny_scale());
        let design = configs::by_name("4B").unwrap();
        let mut s = String::from("sweep 4B heterogeneous SMT=true bus=8 GB/s\n");
        s.push_str(&format!(
            "{:>4} {:>10} {:>10} {:>10}\n",
            "n", "STP", "ANTT", "power_W"
        ));
        for &n in SWEEP_COUNTS.iter() {
            let c = ctx
                .mp_cell_bus(&design, n, WorkloadKind::Heterogeneous, true, 8.0)
                .expect("reference cell");
            s.push_str(&format!(
                "{n:>4} {:>10.4} {:>10.4} {:>10.2}\n",
                c.mean_stp(),
                c.mean_antt(),
                c.mean_power()
            ));
        }
        s
    })
}

/// Every CELL record key in the shared cache must be unique: a
/// duplicate key is a cell computed (and persisted) twice — the
/// compute-once invariant, checked structurally. Returns the count.
fn assert_cache_keys_unique(cache: &Path) -> usize {
    let text = std::fs::read_to_string(cache).expect("cache readable");
    let mut seen = HashSet::new();
    let mut cells = 0;
    for line in text.lines().skip(1) {
        let Ok(payload) = unframe(line) else { continue };
        if let Ok(Record::Cell { key, .. }) = Record::decode(payload) {
            cells += 1;
            assert!(
                seen.insert(format!("{key:?}")),
                "cell computed twice: {key:?}"
            );
        }
    }
    cells
}

fn wait_workers_dead(pid_file: &Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let pids: Vec<u32> = std::fs::read_to_string(pid_file)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.trim().parse().ok())
        .collect();
    for pid in pids {
        // Signal 0 probes liveness without touching the process.
        while interrupt::send_signal(pid, 0) {
            assert!(
                Instant::now() < deadline,
                "worker {pid} outlived its daemon"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

#[test]
fn two_clients_compute_once_and_see_identical_bytes() {
    let dir = tmp_dir("dedup");
    let (mut daemon, addr) = spawn_daemon_insist(&dir, "127.0.0.1:0", &[]);

    // Two clients, distinct tokens — distinct *jobs*, identical cells.
    let first = tlpsim_cmd(&[])
        .args(["submit", "4B", "--addr", &addr, "--token", "client-a"])
        .output()
        .expect("first client runs");
    assert!(first.status.success(), "{first:?}");
    let second = tlpsim_cmd(&[])
        .args(["submit", "4B", "--addr", &addr, "--token", "client-b"])
        .output()
        .expect("second client runs");
    assert!(second.status.success(), "{second:?}");

    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        expected_table(),
        "client A table differs from the in-process reference"
    );
    assert_eq!(
        first.stdout, second.stdout,
        "the two clients saw different bytes"
    );

    // The daemon's own accounting: job B scheduled nothing new.
    let json = client::status(&addr, Duration::from_secs(5)).expect("status answers");
    assert!(
        json.contains("\"daemon.cells.completed\":9"),
        "nine cells computed, once each: {json}"
    );
    assert!(
        json.contains("\"daemon.cells.deduped\":9"),
        "client B's nine cells must all dedup: {json}"
    );
    assert!(json.contains("\"daemon.jobs.completed\":2"), "{json}");

    assert_eq!(assert_cache_keys_unique(&dir.join("cells.cache")), 9);
    let _ = daemon.kill();
    let _ = daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg(unix)]
fn daemon_sigkill_mid_sweep_restart_recomputes_nothing() {
    let dir = tmp_dir("sigkill");
    let (mut daemon, addr) = spawn_daemon_insist(&dir, "127.0.0.1:0", &[]);

    // The client outlives the daemon: its reconnect ladder spans the
    // kill-and-restart window below.
    let client = tlpsim_cmd(&[])
        .args(["submit", "4B", "--addr", &addr, "--token", "survivor"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("client spawns");

    // Mid-sweep = some cells durably cached, most still to come.
    let cache = dir.join("cells.cache");
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let cells = std::fs::read_to_string(&cache)
            .map(|t| t.matches("CELL").count())
            .unwrap_or(0);
        if cells >= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "sweep never got going");
        std::thread::sleep(Duration::from_millis(50));
    }

    daemon.kill().expect("SIGKILL daemon");
    let _ = daemon.wait();
    // Orphaned workers notice the dead socket and exit on their own.
    wait_workers_dead(&dir.join("workers.pids"));

    // Restart on the same address, same queue, same cache: the open
    // job replays, the finished cells come from the cache, and the
    // waiting client reconnects and finishes.
    let (mut daemon2, addr2) = spawn_daemon_insist(&dir, &addr, &[]);
    assert_eq!(addr2, addr);

    let out = client.wait_with_output().expect("client finishes");
    assert!(
        out.status.success(),
        "client must survive the restart: {:?}",
        out.status
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected_table(),
        "post-restart table differs from the in-process reference"
    );

    // The heart of the crash contract: across both daemon lifetimes,
    // every cell key appears exactly once in the durable cache.
    assert_eq!(assert_cache_keys_unique(&cache), 9);
    let _ = daemon2.kill();
    let _ = daemon2.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker host whose daemon vanished mid-cell stops at its next mix
/// boundary instead of simulating the cell to the end for nobody: its
/// failing heartbeat requests an interrupt, and an interrupted cell is
/// never cached. The "daemon" here is a bare listener that hands the
/// host one long cell and then closes the connection.
#[test]
#[cfg(unix)]
fn orphaned_worker_host_stops_within_one_mix() {
    let dir = tmp_dir("orphan");
    let cache = dir.join("cells.cache");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let mut host = tlpsim_cmd(&[("TLPSIM_SERVE_HB_MS", "50")])
        .args(["__serve-worker", "--tcp", &addr, cache.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("worker host spawns");
    let (stream, _) = listener.accept().expect("worker host connects");
    let mut conn = FramedConn::from_stream(stream, Duration::from_secs(30)).unwrap();
    assert!(conn.recv().unwrap().starts_with("HELLO "));

    // Twelve mixes of 24 threads each: finishing the cell takes many
    // times as long as finishing one mix.
    let spec = SweepSpec {
        scale: SimScale {
            warmup: 1_000,
            budget: 3_000,
            parsec_phase: 1_000,
            seed: 42,
        },
        ..tiny_spec("4B")
    };
    conn.send(&encode_runs(24, 1, false, &spec.header_line()))
        .unwrap();
    // A heartbeat that reports the cell in flight, then the daemon is gone.
    while !conn.recv().unwrap().contains("\"serve.worker.busy_n\":25") {}
    drop(conn);
    drop(listener);

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = host.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = host.kill();
            let _ = host.wait();
            panic!("worker host outlived its daemon by 30 s");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "{status:?}");
    let cached = std::fs::read_to_string(&cache).unwrap_or_default();
    assert!(
        !cached.contains("CELL"),
        "the orphaned host finished its cell instead of stopping"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saturated_queue_sheds_typed_without_wedging_the_accept_loop() {
    interrupt::reset();
    let dir = tmp_dir("shed");
    let (mut daemon, addr) =
        spawn_daemon_insist(&dir, "127.0.0.1:0", &[("TLPSIM_SERVE_QUEUE_DEPTH", "1")]);

    // Fill the one admission slot and detach.
    let filler = tlpsim_cmd(&[])
        .args(["submit", "4B", "--addr", &addr, "--no-wait"])
        .output()
        .expect("filler client runs");
    assert!(filler.status.success(), "{filler:?}");

    // A different job must now be shed — typed, not buffered, not hung.
    let spec = tiny_spec("2B10s");
    let mut copts = ClientOptions::new(&addr, &spec);
    copts.token = "shed-me".into();
    match client::submit(&spec, &copts, true) {
        Err(SimError::Overloaded { depth }) => assert_eq!(depth, 1),
        other => panic!("expected a typed Overloaded shed, got {other:?}"),
    }

    // The accept loop is alive and serving: STATUS still answers
    // immediately, and the shed is on the books.
    let json = client::status(&addr, Duration::from_secs(5)).expect("status answers post-shed");
    assert!(json.contains("\"daemon.jobs.shed\":1"), "{json}");

    let _ = daemon.kill();
    let _ = daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn network_chaos_is_byte_identical_and_computes_every_cell_once() {
    let dir = tmp_dir("chaos");
    // All four network fault classes at once, aggressively; a short
    // heartbeat timeout so hb-loss workers are reaped quickly.
    let (mut daemon, addr) = spawn_daemon_insist(
        &dir,
        "127.0.0.1:0",
        &[
            (
                "TLPSIM_FAULT",
                "conn-drop:0.25,partial-frame:0.2,hb-loss:0.15,slow-peer:0.3,seed:7",
            ),
            ("TLPSIM_SERVE_HB_TIMEOUT_MS", "2000"),
        ],
    );

    let out = tlpsim_cmd(&[])
        .args(["submit", "4B", "--addr", &addr, "--token", "chaos"])
        .output()
        .expect("chaos client runs");
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected_table(),
        "chaos run must be byte-identical to the fault-free reference"
    );

    let json = client::status(&addr, Duration::from_secs(5)).expect("status answers");
    assert!(
        json.contains("\"daemon.cells.quarantined\":0"),
        "transient faults must never quarantine: {json}"
    );
    assert!(json.contains("\"daemon.cells.completed\":9"), "{json}");

    // Lost DONE frames became cache hits on retry, not recomputes.
    assert_eq!(assert_cache_keys_unique(&dir.join("cells.cache")), 9);
    let _ = daemon.kill();
    let _ = daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
