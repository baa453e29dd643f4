//! The sweep-service worker host (DESIGN.md §13, §16).
//!
//! `tlpsim serve` and `tlpsim serve --daemon` fan sweep cells out to
//! worker *OS processes* so a segfaulting, OOM-killed or wedged cell
//! cannot take the sweep down. This module is the worker side: a host
//! that connects back to its supervisor over TCP, reads framed cell
//! requests, simulates them with the ordinary [`Ctx`] machinery, and
//! writes framed replies. The wire format reuses the disk-cache/journal
//! framing (`<fnv1a64> <len> <payload>`, one frame per line — see
//! [`crate::framedlog`]), so a torn or corrupted frame is detected by
//! the supervisor exactly the way a torn journal record is.
//!
//! Wire protocol (one framed payload per line):
//!
//! | direction           | payload                                      |
//! |---------------------|----------------------------------------------|
//! | supervisor → worker | `RUNS <n> <attempt> <last01> <header>`       |
//! | supervisor → worker | `EXIT`                                       |
//! | worker → supervisor | `HELLO <pid> <protocol-version>`             |
//! | worker → supervisor | `HB <counters-json>` (heartbeat)             |
//! | worker → supervisor | `DONE <attempt> <CELL ...>` (a result)       |
//! | worker → supervisor | `ERR <n> <attempt> <interrupted01> <why>`    |
//!
//! Results ride in a `DONE` frame that carries the *attempt* alongside
//! the [`Record::Cell`] payload, so the supervisor can reject a stale
//! frame from an earlier attempt of the same cell (the heartbeat-loss
//! race of DESIGN.md §16). `RUNS` carries the full sweep header per
//! request, so one connected host can serve cells of any job the
//! supervisor holds, computing through a shared disk cache
//! ([`crate::ctx::Ctx::with_disk_cache`]) that makes every result
//! durable *before* the frame is sent — a lost result frame is a cache
//! hit on retry, never a recompute.
//!
//! Heartbeats are piggybacked on the PR 4 counter registry: each beat
//! carries a [`CounterSnapshot`] (cells completed, busy thread count,
//! beat sequence number) serialized with
//! [`CounterSnapshot::to_json`], emitted from a dedicated thread so a
//! worker busy simulating still proves it is alive. A worker that
//! stops beating is presumed wedged and killed by the supervisor.
//!
//! # Deterministic fault injection
//!
//! `TLPSIM_FAULT=<spec>` arms a reproducible chaos harness at the two
//! cell boundaries (request received, result written):
//!
//! ```text
//! spec     := clause ("," clause)*
//! clause   := "crash:" prob | "stall:" prob | "torn-write:" prob
//!           | "conn-drop:" prob | "partial-frame:" prob
//!           | "hb-loss:" prob   | "slow-peer:" prob
//!           | "seed:" u64   | "persist"
//! prob     := f64 in [0, 1]
//! ```
//!
//! Draws are SplitMix64-seeded from `(seed, cell, attempt)`, so a given
//! cell/attempt pair always behaves identically — every recovery path
//! in the supervisor is exercised by tests, not argued about. Process
//! faults:
//!
//! * `crash` — exit(101) before simulating (an OOM-kill/segfault stand-in);
//! * `stall` — stop heartbeating and sleep (a wedged worker; the
//!   supervisor's heartbeat timeout must kill it);
//! * `torn-write` — simulate the cell, write *half* of the result frame
//!   and exit(102) (a mid-write death; the frame checksum rejects it).
//!
//! The four *network* classes act at the framing layer ([`crate::net`])
//! and are drawn from an independent SplitMix64 stream, so arming them
//! never perturbs the process-fault draws (a process fault wins when
//! both fire):
//!
//! * `conn-drop` — compute the cell (the shared disk cache makes it
//!   durable), then close the connection without sending the result
//!   (exit 104): the retry must be a cache hit, not a recompute;
//! * `partial-frame` — compute, send *half* the `DONE` frame, exit
//!   (105): the reader must reject it and the retry dedups;
//! * `hb-loss` — go silent *before* computing and hang: the
//!   supervisor's heartbeat timeout must kill this host (exit 106 if it
//!   never does);
//! * `slow-peer` — send the intact result a few bytes at a time with
//!   pauses: correctness is untouched, the incremental decoder and the
//!   read deadlines are what is being exercised.
//!
//! Unless `persist` is given, faults are suppressed on a cell's final
//! attempt (`last01` = 1), making every injected fault transient: the
//! retry budget always wins and a chaos run quarantines nothing.
//! `persist` removes that guarantee, which is how the quarantine path
//! itself is tested.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tlpsim_trace::CounterSnapshot;
use tlpsim_workloads::SplitMix64;

use crate::configs;
use crate::ctx::Ctx;
use crate::diskcache::Record;
use crate::error::SimError;
use crate::executor::lock_unpoisoned;
use crate::interrupt;
use crate::journal::SweepSpec;
use crate::net::{self, FrameError, FrameReader};
use crate::settings::Settings;

/// Version tag carried in `HELLO`; bump on any wire-format change.
/// v2: results ride in `DONE <attempt> <CELL ...>` frames and requests
/// are `RUNS` frames carrying the sweep header.
pub const PROTOCOL_VERSION: u32 = 2;

/// Worker exit codes (stable; the supervisor and tests rely on them).
pub mod exit_code {
    /// Clean shutdown (`EXIT` frame, connection closed, or graceful
    /// drain).
    pub const OK: i32 = 0;
    /// A malformed or unknown `TLPSIM_*` variable, or bad host
    /// arguments: `tlpsim` exits with this before the host starts.
    pub const USAGE: i32 = 2;
    /// Injected `crash` fault.
    pub const FAULT_CRASH: i32 = 101;
    /// Injected `torn-write` fault (died mid result write).
    pub const FAULT_TORN: i32 = 102;
    /// Injected `stall` fault timed out without being killed.
    pub const FAULT_STALL: i32 = 103;
    /// Injected `conn-drop` fault (result durable, connection dropped).
    pub const FAULT_CONN_DROP: i32 = 104;
    /// Injected `partial-frame` fault (died mid result frame).
    pub const FAULT_PARTIAL: i32 = 105;
    /// Injected `hb-loss` fault timed out without being killed.
    pub const FAULT_HB_LOSS: i32 = 106;
    /// TCP worker host could not reach (or lost) the daemon.
    pub const NO_DAEMON: i32 = 7;
}

/// How long an injected stall sleeps before giving up and exiting
/// (the supervisor is expected to kill the worker long before this).
const STALL_SLEEP: Duration = Duration::from_secs(3600);

/// The request that releases an idle worker host: it exits 0.
pub const EXIT: &str = "EXIT";

/// Encode a worker-side failure reply.
pub fn encode_err(n: usize, attempt: u32, interrupted: bool, detail: &str) -> String {
    // The detail rides in the free tail of the payload; newlines would
    // break the line-oriented framing, so flatten them.
    let flat = detail.replace(['\n', '\r'], " ");
    format!("ERR {n} {attempt} {} {flat}", u8::from(interrupted))
}

/// Parse an `ERR` payload back into `(n, attempt, interrupted, detail)`.
pub fn decode_err(payload: &str) -> Option<(usize, u32, bool, String)> {
    let rest = payload.strip_prefix("ERR ")?;
    let mut it = rest.splitn(4, ' ');
    let n = it.next()?.parse().ok()?;
    let attempt = it.next()?.parse().ok()?;
    let interrupted = match it.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let detail = it.next().unwrap_or("").to_string();
    Some((n, attempt, interrupted, detail))
}

/// Encode a successful result reply: the attempt it answers plus the
/// [`Record::Cell`] payload. The attempt is what lets the supervisor
/// reject a stale frame from a killed predecessor whose reader thread
/// outlived its generation stamp.
pub fn encode_done(attempt: u32, record_payload: &str) -> String {
    format!("DONE {attempt} {record_payload}")
}

/// Split a `DONE` payload back into `(attempt, record payload)`.
pub fn decode_done(payload: &str) -> Option<(u32, &str)> {
    let rest = payload.strip_prefix("DONE ")?;
    let (attempt, record) = rest.split_once(' ')?;
    Some((attempt.parse().ok()?, record))
}

/// Encode a cell request: thread count, zero-based attempt, whether it
/// is the cell's final permitted attempt (fault injection is suppressed
/// there unless `persist` is set), and the full sweep header, so the
/// host knows what to simulate without per-connection state (the
/// daemon serves many jobs through one worker pool).
pub fn encode_runs(n: usize, attempt: u32, last: bool, header: &str) -> String {
    format!("RUNS {n} {attempt} {} {header}", u8::from(last))
}

/// Parse a `RUNS` payload back into `(n, attempt, last, spec)`.
///
/// # Errors
/// A diagnostic string for a malformed request or header — a worker
/// host must refuse garbage loudly, not simulate a guess.
pub fn decode_runs(payload: &str) -> Result<(usize, u32, bool, SweepSpec), String> {
    let rest = payload
        .strip_prefix("RUNS ")
        .ok_or_else(|| format!("not a RUNS request: {payload:?}"))?;
    let mut it = rest.splitn(4, ' ');
    let (Some(n), Some(a), Some(l), Some(header)) = (it.next(), it.next(), it.next(), it.next())
    else {
        return Err("RUNS needs n, attempt, last and a header".into());
    };
    let n = n.parse().map_err(|_| format!("bad thread count {n:?}"))?;
    let attempt = a.parse().map_err(|_| format!("bad attempt {a:?}"))?;
    let last = match l {
        "0" => false,
        "1" => true,
        _ => return Err(format!("bad last flag {l:?}")),
    };
    Ok((n, attempt, last, SweepSpec::parse_header(header)?))
}

/// Which fault an armed [`FaultSpec`] injects at a cell boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Die before simulating (exit 101).
    Crash,
    /// Stop heartbeating and hang (must be killed by the supervisor).
    Stall,
    /// Simulate, then die halfway through writing the result frame.
    TornWrite,
}

/// Which *network* fault an armed [`FaultSpec`] injects on a TCP
/// worker host (see the module docs for each class's semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Compute (durably, via the shared cache), then drop the
    /// connection without sending the result.
    ConnDrop,
    /// Compute, send half the `DONE` frame, exit.
    PartialFrame,
    /// Go silent before computing; the daemon's heartbeat timeout must
    /// reap this host.
    HbLoss,
    /// Send the intact result a few bytes at a time with pauses.
    SlowPeer,
}

/// Parsed `TLPSIM_FAULT` specification. See the module docs for the
/// grammar and semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// P(crash) at the request boundary.
    pub crash: f64,
    /// P(stall) at the request boundary (drawn if crash didn't fire).
    pub stall: f64,
    /// P(torn write) at the result boundary.
    pub torn: f64,
    /// P(conn-drop) at the result boundary (TCP hosts only).
    pub conn_drop: f64,
    /// P(partial-frame) at the result boundary (TCP hosts only).
    pub partial_frame: f64,
    /// P(hb-loss) at the request boundary (TCP hosts only).
    pub hb_loss: f64,
    /// P(slow-peer) at the result boundary (TCP hosts only).
    pub slow_peer: f64,
    /// Seed of the per-(cell, attempt) SplitMix64 streams.
    pub seed: u64,
    /// Inject on final attempts too (arms the quarantine path).
    pub persist: bool,
}

impl FaultSpec {
    /// The inert spec (no faults ever fire).
    pub fn none() -> FaultSpec {
        FaultSpec {
            crash: 0.0,
            stall: 0.0,
            torn: 0.0,
            conn_drop: 0.0,
            partial_frame: 0.0,
            hb_loss: 0.0,
            slow_peer: 0.0,
            seed: 0,
            persist: false,
        }
    }

    /// True when no process fault can ever fire.
    pub fn is_none(&self) -> bool {
        self.crash <= 0.0 && self.stall <= 0.0 && self.torn <= 0.0
    }

    /// True when no network fault can ever fire.
    pub fn net_is_none(&self) -> bool {
        self.conn_drop <= 0.0
            && self.partial_frame <= 0.0
            && self.hb_loss <= 0.0
            && self.slow_peer <= 0.0
    }

    /// Parse a spec string (the `TLPSIM_FAULT` value).
    ///
    /// # Errors
    /// A diagnostic naming the malformed clause — a chaos run with a
    /// typo'd spec must fail loudly, not run un-faulted.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::none();
        for clause in s.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if clause == "persist" {
                spec.persist = true;
                continue;
            }
            let Some((key, val)) = clause.split_once(':') else {
                return Err(format!("fault clause {clause:?} has no ':'"));
            };
            let prob = |what: &str, v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("bad {what} probability {v:?}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("{what} probability {p} outside [0, 1]"));
                }
                Ok(p)
            };
            match key.trim() {
                "crash" => spec.crash = prob("crash", val)?,
                "stall" => spec.stall = prob("stall", val)?,
                "torn-write" => spec.torn = prob("torn-write", val)?,
                "conn-drop" => spec.conn_drop = prob("conn-drop", val)?,
                "partial-frame" => spec.partial_frame = prob("partial-frame", val)?,
                "hb-loss" => spec.hb_loss = prob("hb-loss", val)?,
                "slow-peer" => spec.slow_peer = prob("slow-peer", val)?,
                "seed" => {
                    spec.seed = val
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad fault seed {val:?}"))?;
                }
                other => return Err(format!("unknown fault kind {other:?}")),
            }
        }
        Ok(spec)
    }

    /// The deterministic draw for one `(cell, attempt)` boundary. The
    /// stream depends only on `(seed, n, attempt)` — re-running the
    /// same chaos configuration replays the same faults, and distinct
    /// attempts of one cell draw independently (that is what makes
    /// injected faults transient under a retry budget).
    pub fn draw(&self, n: usize, attempt: u32, last: bool) -> Option<Fault> {
        if self.is_none() || (last && !self.persist) {
            return None;
        }
        let mut rng = SplitMix64::new(
            self.seed
                ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        if rng.chance(self.crash) {
            return Some(Fault::Crash);
        }
        if rng.chance(self.stall) {
            return Some(Fault::Stall);
        }
        if rng.chance(self.torn) {
            return Some(Fault::TornWrite);
        }
        None
    }

    /// The deterministic *network*-fault draw for one `(cell, attempt)`
    /// boundary on a TCP worker host. Mixed with a different constant
    /// than [`draw`](Self::draw), so the two fault families are
    /// statistically independent: arming network chaos never changes
    /// which process faults fire, and vice versa.
    pub fn draw_net(&self, n: usize, attempt: u32, last: bool) -> Option<NetFault> {
        if self.net_is_none() || (last && !self.persist) {
            return None;
        }
        let mut rng = SplitMix64::new(
            self.seed
                ^ 0xA076_1D64_78BD_642F
                ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        if rng.chance(self.conn_drop) {
            return Some(NetFault::ConnDrop);
        }
        if rng.chance(self.partial_frame) {
            return Some(NetFault::PartialFrame);
        }
        if rng.chance(self.hb_loss) {
            return Some(NetFault::HbLoss);
        }
        if rng.chance(self.slow_peer) {
            return Some(NetFault::SlowPeer);
        }
        None
    }
}

/// Shared frame writer: the heartbeat thread and the main loop
/// interleave on one socket, so every frame is one locked `write_all` +
/// flush.
#[derive(Clone)]
struct FrameWriter {
    out: Arc<Mutex<TcpStream>>,
}

impl FrameWriter {
    /// Frame and send one payload. Returns false when the supervisor
    /// side of the connection is gone (time to exit).
    fn send(&self, payload: &str) -> bool {
        let mut out = lock_unpoisoned(&self.out);
        net::send_frame(&mut *out, payload).is_ok()
    }

    /// The torn-write/partial-frame faults: emit only the first half of
    /// the framed line (no terminator) so the supervisor sees a bad
    /// frame + EOF.
    fn send_torn(&self, payload: &str) {
        let mut out = lock_unpoisoned(&self.out);
        net::send_torn(&mut *out, payload);
    }

    /// The slow-peer fault: send the intact frame in tiny pieces with
    /// pauses. Returns false when the peer is gone.
    fn send_trickled(&self, payload: &str, chunk: usize, pause: Duration) -> bool {
        let mut out = lock_unpoisoned(&self.out);
        net::send_trickled(&mut *out, payload, chunk, pause).is_ok()
    }
}

/// Live worker-side counters, published through heartbeats.
struct WorkerCounters {
    cells_done: AtomicU64,
    busy_n: AtomicU64, // 0 = idle, else thread count + 1
    beats: AtomicU64,
    alive: AtomicBool,
}

impl WorkerCounters {
    fn snapshot(&self) -> CounterSnapshot {
        let mut s = CounterSnapshot::new();
        s.add_u64(
            "serve.worker.cells_done",
            self.cells_done.load(Ordering::Relaxed),
        );
        s.add_u64("serve.worker.busy_n", self.busy_n.load(Ordering::Relaxed));
        s.add_u64("serve.worker.beats", self.beats.load(Ordering::Relaxed));
        s.add_u64("serve.worker.pid", u64::from(std::process::id()));
        s
    }
}

/// The worker host entry point (`tlpsim __serve-worker --tcp <addr>
/// <cache> [<ckpt-dir>]`): connect back to the supervisor at `addr`,
/// introduce ourselves with `HELLO`, and serve framed `RUNS` requests
/// until `EXIT`, connection loss, or a graceful interrupt. Returns the
/// process exit code.
///
/// The sweep spec rides in *every request* (the daemon multiplexes many
/// jobs over one pool), and every result is made durable through the
/// shared disk cache at `cache_path` *before* its `DONE` frame is sent —
/// the write-ahead order that turns any lost result frame into a cache
/// hit on retry. `settings` gives the fault spec, the heartbeat cadence
/// (`TLPSIM_SERVE_HB_MS`, which the supervisor sets on every host), the
/// watchdog window and the checkpoint cadence. `ckpt_dir`, when given,
/// is where in-flight cells checkpoint at that cadence: one-shot
/// `serve` passes the directory `tlpsim sweep`/`resume` use, so a
/// drained serve run resumes mid-cell like any other sweep.
pub fn worker_tcp_main(
    settings: &Settings,
    addr: &str,
    cache_path: &str,
    ckpt_dir: Option<&str>,
) -> i32 {
    let fault = &settings.fault;
    let hb_every = settings.hb_interval;
    let ckpt = ckpt_dir.zip(settings.ckpt_cycles);
    // A fresh context per request: replaying the shared cache is what
    // turns a retried-but-already-computed cell into a memo hit, and a
    // fresh compute appends to the cache *before* we reply (write-ahead
    // for results) because Ctx persists at compute time. The mode rides
    // in the sweep header, so a sampled sweep never gets exact cells.
    let ctx_for = |spec: &SweepSpec| {
        let ctx = Ctx::with_disk_cache(spec.scale, cache_path)
            .with_mode(spec.mode)
            .with_watchdog(settings.watchdog_cycles);
        match ckpt {
            Some((dir, every)) => ctx.with_checkpoints(dir, every),
            None => ctx,
        }
    };
    // SIGTERM from a draining supervisor (or a terminal Ctrl-C, which
    // reaches the whole process group) raises the cooperative flag; an
    // in-flight cell stops at its next mix or checkpoint boundary.
    interrupt::install_handlers();

    // The supervisor spawns us right after binding its listener (and the
    // e2e harness restarts daemons under us), so be patient about the
    // first connect.
    let mut stream = None;
    for round in 0..50u64 {
        match TcpStream::connect(addr) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(40 + 8 * round)),
        }
    }
    let Some(stream) = stream else {
        eprintln!("tlpsim worker: no daemon at {addr}");
        return exit_code::NO_DAEMON;
    };
    let _ = stream.set_nodelay(true);
    let Ok(wstream) = stream.try_clone() else {
        eprintln!("tlpsim worker: cannot clone socket");
        return exit_code::NO_DAEMON;
    };
    let writer = FrameWriter {
        out: Arc::new(Mutex::new(wstream)),
    };
    let counters = Arc::new(WorkerCounters {
        cells_done: AtomicU64::new(0),
        busy_n: AtomicU64::new(0),
        beats: AtomicU64::new(0),
        alive: AtomicBool::new(true),
    });
    // HELLO strictly before the heartbeat thread exists: the supervisor
    // routes this connection to a worker slot on HELLO, and an HB
    // racing ahead of it would be an unknown verb from a stranger.
    writer.send(&format!("HELLO {} {PROTOCOL_VERSION}", std::process::id()));
    let hb = {
        let writer = writer.clone();
        let counters = Arc::clone(&counters);
        std::thread::spawn(move || loop {
            if !counters.alive.load(Ordering::SeqCst) {
                return;
            }
            counters.beats.fetch_add(1, Ordering::Relaxed);
            let payload = format!("HB {}", counters.snapshot().to_json());
            if !writer.send(&payload) {
                // The supervisor is gone: stop the in-flight cell at
                // its next mix boundary (an interrupted cell is never
                // cached), and the host exits.
                interrupt::request();
                return;
            }
            std::thread::sleep(hb_every);
        })
    };

    // Short read timeout so the loop notices a graceful interrupt even
    // while idle; the supervisor's own heartbeat policy covers the rest.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    for frame in FrameReader::new(stream) {
        if interrupt::requested() {
            break;
        }
        let payload = match frame {
            Ok(p) => p,
            Err(FrameError::TimedOut) => continue,
            Err(why) => {
                // A torn, corrupt or oversized request frame: ignore it.
                // If the supervisor really wedged, EOF follows shortly.
                eprintln!("tlpsim worker: dropping bad request frame: {why}");
                continue;
            }
        };
        if payload == EXIT {
            break;
        }
        match decode_runs(&payload) {
            Ok((n, attempt, last, spec)) => {
                let cell = (n, attempt, last);
                if !serve_one(&writer, &counters, fault, &ctx_for, cell, &spec)
                    || interrupt::requested()
                {
                    break;
                }
            }
            Err(why) => eprintln!("tlpsim worker: dropping bad request frame: {why}"),
        }
    }

    counters.alive.store(false, Ordering::SeqCst);
    let _ = hb.join();
    exit_code::OK
}

/// Simulate one `RUNS` request — cell `(n, attempt, last)` of `spec` —
/// and reply. Returns false when the connection is gone and the host
/// should exit. Process faults (crash, stall, torn-write) and network
/// faults (conn-drop, partial-frame, hb-loss, slow-peer) both apply
/// here; the network draw is independent of the process draw by
/// construction.
fn serve_one(
    writer: &FrameWriter,
    counters: &WorkerCounters,
    fault: &FaultSpec,
    ctx_for: &dyn Fn(&SweepSpec) -> Ctx,
    (n, attempt, last): (usize, u32, bool),
    spec: &SweepSpec,
) -> bool {
    let Some(design) = configs::by_name(&spec.design) else {
        return writer.send(&encode_err(
            n,
            attempt,
            false,
            &format!("unknown design {}", spec.design),
        ));
    };
    counters.busy_n.store(n as u64 + 1, Ordering::Relaxed);
    let torn = match fault.draw(n, attempt, last) {
        Some(Fault::Crash) => {
            eprintln!("tlpsim worker: injected crash at cell n={n} attempt {attempt}");
            std::process::exit(exit_code::FAULT_CRASH);
        }
        Some(Fault::Stall) => {
            eprintln!("tlpsim worker: injected stall at cell n={n} attempt {attempt}");
            counters.alive.store(false, Ordering::SeqCst);
            std::thread::sleep(STALL_SLEEP);
            std::process::exit(exit_code::FAULT_STALL);
        }
        torn => torn.is_some(),
    };
    let net_fault = fault.draw_net(n, attempt, last);
    if net_fault == Some(NetFault::HbLoss) {
        // Silence the heartbeat *before* computing: the supervisor must
        // reap this host by heartbeat timeout, and since nothing was
        // computed yet, the retry computing it fresh keeps the
        // computed-exactly-once invariant.
        eprintln!("tlpsim worker: injected hb-loss at cell n={n} attempt {attempt}");
        counters.alive.store(false, Ordering::SeqCst);
        std::thread::sleep(STALL_SLEEP);
        std::process::exit(exit_code::FAULT_HB_LOSS);
    }

    let ctx = ctx_for(spec);
    let outcome = ctx.mp_cell_bus(
        &design,
        n,
        spec.kind,
        spec.smt,
        f64::from(spec.bus_dgbps) / 10.0,
    );
    counters.busy_n.store(0, Ordering::Relaxed);
    let cell = match outcome {
        Ok(cell) => cell,
        Err(e) => {
            let interrupted = matches!(e, SimError::Interrupted);
            return writer.send(&encode_err(n, attempt, interrupted, &e.to_string()));
        }
    };
    let rec = Record::Cell {
        key: spec.cell_key(n),
        cell: (*cell).clone(),
    };
    let done = encode_done(attempt, &rec.encode());
    if torn {
        eprintln!("tlpsim worker: injected torn write at cell n={n} attempt {attempt}");
        writer.send_torn(&done);
        std::process::exit(exit_code::FAULT_TORN);
    }
    match net_fault {
        Some(NetFault::ConnDrop) => {
            // The result is already durable in the shared cache;
            // dropping the connection here is exactly the
            // lost-result-frame scenario the dedup layer must absorb.
            eprintln!("tlpsim worker: injected conn-drop at cell n={n} attempt {attempt}");
            std::process::exit(exit_code::FAULT_CONN_DROP);
        }
        Some(NetFault::PartialFrame) => {
            eprintln!("tlpsim worker: injected partial frame at cell n={n} attempt {attempt}");
            writer.send_torn(&done);
            std::process::exit(exit_code::FAULT_PARTIAL);
        }
        Some(NetFault::SlowPeer) => {
            eprintln!("tlpsim worker: injected slow-peer at cell n={n} attempt {attempt}");
            if !writer.send_trickled(&done, 7, Duration::from_millis(2)) {
                return false;
            }
            counters.cells_done.fetch_add(1, Ordering::Relaxed);
            true
        }
        Some(NetFault::HbLoss) | None => {
            counters.cells_done.fetch_add(1, Ordering::Relaxed);
            writer.send(&done)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn err_reply_round_trips_with_spaces_and_newlines() {
        let enc = encode_err(8, 2, false, "watchdog: no commit\nfor 3000000 cycles");
        let (n, attempt, interrupted, detail) = decode_err(&enc).unwrap();
        assert_eq!((n, attempt, interrupted), (8, 2, false));
        assert!(detail.contains("no commit") && !detail.contains('\n'));
        let enc = encode_err(1, 0, true, "");
        assert_eq!(decode_err(&enc).unwrap(), (1, 0, true, String::new()));
        assert_eq!(decode_err("ERR x 0 0 hm"), None);
        assert_eq!(decode_err("CELL 4B 1"), None);
    }

    #[test]
    fn fault_spec_parses_the_documented_grammar() {
        let f = FaultSpec::parse("crash:0.1,stall:0.05,torn-write:0.02").unwrap();
        assert_eq!((f.crash, f.stall, f.torn), (0.1, 0.05, 0.02));
        assert!(!f.persist);
        let f = FaultSpec::parse("crash:1.0, seed:99 ,persist").unwrap();
        assert_eq!((f.crash, f.seed, f.persist), (1.0, 99, true));
        assert!(FaultSpec::parse("").unwrap().is_none());
        for bad in [
            "crash",
            "crash:1.5",
            "crash:-0.1",
            "crash:x",
            "melt:0.5",
            "seed:abc",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn fault_draws_are_deterministic_and_transient_by_default() {
        let f = FaultSpec::parse("crash:0.5,stall:0.3,torn-write:0.2,seed:7").unwrap();
        for n in [1usize, 4, 24] {
            for attempt in 0..3u32 {
                let a = f.draw(n, attempt, false);
                let b = f.draw(n, attempt, false);
                assert_eq!(a, b, "draw must be a pure function of (seed, n, attempt)");
                // The transience guarantee: nothing fires on the final attempt.
                assert_eq!(f.draw(n, attempt, true), None);
            }
        }
        // persist removes the final-attempt suppression.
        let p = FaultSpec::parse("crash:1.0,persist").unwrap();
        assert_eq!(p.draw(4, 2, true), Some(Fault::Crash));
        // Certain probabilities fire in the documented order.
        let c = FaultSpec::parse("crash:1.0,stall:1.0,torn-write:1.0").unwrap();
        assert_eq!(c.draw(4, 0, false), Some(Fault::Crash));
        let s = FaultSpec::parse("stall:1.0,torn-write:1.0").unwrap();
        assert_eq!(s.draw(4, 0, false), Some(Fault::Stall));
        let t = FaultSpec::parse("torn-write:1.0").unwrap();
        assert_eq!(t.draw(4, 0, false), Some(Fault::TornWrite));
    }

    #[test]
    fn done_frames_round_trip() {
        let enc = encode_done(3, "CELL 4B 4 X 1 80 exact 1.0 2.0");
        let (attempt, rec) = decode_done(&enc).unwrap();
        assert_eq!(attempt, 3);
        assert_eq!(rec, "CELL 4B 4 X 1 80 exact 1.0 2.0");
        assert_eq!(decode_done("DONE x CELL"), None);
        assert_eq!(decode_done("DONE 3"), None);
        assert_eq!(decode_done("CELL 4B"), None);
    }

    #[test]
    fn runs_requests_round_trip_and_reject_garbage() {
        let spec = SweepSpec::parse_header("TLPSIM-JOURNAL v2 4B X 1 80 3000 8000 12000 42 exact")
            .unwrap();
        let enc = encode_runs(12, 2, true, &spec.header_line());
        let (n, attempt, last, parsed) = decode_runs(&enc).unwrap();
        assert_eq!((n, attempt, last), (12, 2, true));
        assert_eq!(parsed, spec);
        for bad in [
            "RUNS",
            "RUNS 4 0 1",
            "RUNS x 0 1 TLPSIM-JOURNAL v2 4B X 1 80 3000 8000 12000 42 exact",
            "RUNS 4 0 2 TLPSIM-JOURNAL v2 4B X 1 80 3000 8000 12000 42 exact",
            "RUNS 4 0 1 not-a-header",
            "RUN 4 0 1",
        ] {
            assert!(decode_runs(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn net_fault_clauses_parse_and_draw_independently() {
        let f =
            FaultSpec::parse("conn-drop:0.3,partial-frame:0.2,hb-loss:0.1,slow-peer:0.2,seed:11")
                .unwrap();
        assert!(f.is_none(), "net clauses must not arm process faults");
        assert!(!f.net_is_none());
        // Deterministic and transient by default.
        for n in [1usize, 8, 24] {
            for attempt in 0..3u32 {
                assert_eq!(f.draw_net(n, attempt, false), f.draw_net(n, attempt, false));
                assert_eq!(f.draw_net(n, attempt, true), None);
            }
        }
        // Arming network faults must not perturb the process draws.
        let mixed = FaultSpec::parse("crash:0.5,seed:3,conn-drop:0.9").unwrap();
        let plain = FaultSpec::parse("crash:0.5,seed:3").unwrap();
        for attempt in 0..16u32 {
            assert_eq!(
                mixed.draw(6, attempt, false),
                plain.draw(6, attempt, false),
                "process draw changed when net faults were armed"
            );
        }
        // Certain probabilities fire in the documented order.
        let all =
            FaultSpec::parse("conn-drop:1.0,partial-frame:1.0,hb-loss:1.0,slow-peer:1.0").unwrap();
        assert_eq!(all.draw_net(4, 0, false), Some(NetFault::ConnDrop));
        let pf = FaultSpec::parse("partial-frame:1.0,hb-loss:1.0,slow-peer:1.0").unwrap();
        assert_eq!(pf.draw_net(4, 0, false), Some(NetFault::PartialFrame));
        let hb = FaultSpec::parse("hb-loss:1.0,slow-peer:1.0").unwrap();
        assert_eq!(hb.draw_net(4, 0, false), Some(NetFault::HbLoss));
        let sp = FaultSpec::parse("slow-peer:1.0").unwrap();
        assert_eq!(sp.draw_net(4, 0, false), Some(NetFault::SlowPeer));
        assert!(FaultSpec::parse("conn-drop:1.5").is_err());
        assert!(FaultSpec::parse("slow-peer:x").is_err());
    }

    #[test]
    fn distinct_attempts_draw_independently() {
        // With p = 0.5 across 3 attempts, some (n, attempt) must differ;
        // a stream keyed only on n would repeat the same fault forever.
        let f = FaultSpec::parse("crash:0.5,seed:3").unwrap();
        let outcomes: Vec<bool> = (0..16u32)
            .map(|attempt| f.draw(6, attempt, false).is_some())
            .collect();
        assert!(outcomes.iter().any(|&x| x));
        assert!(outcomes.iter().any(|&x| !x));
    }
}
