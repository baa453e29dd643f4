//! The supervision core and the long-running sweep daemon (DESIGN.md
//! §13, §16).
//!
//! One event loop supervises worker hosts for both serve entry points.
//! `tlpsim serve --daemon <addr>` runs it as a crash-safe, multi-client
//! service: clients (`tlpsim submit` / `status` / `cancel`) and worker
//! hosts both connect over TCP and speak the framed line protocol of
//! [`crate::net`]. One-shot `tlpsim serve`
//! ([`crate::serve::serve_sweep`]) runs the same loop in-process on a
//! loopback listener, with its sweep's journal in place of the job
//! queue, and returns once every cell is done or quarantined. The
//! daemon owns three durable artifacts:
//!
//! * **the job queue** (`TLPSIM-QUEUE v1`) — every accepted job is
//!   appended and fsync'd *before* the client sees `ACCEPTED`, and
//!   every terminal transition (`QDONE`/`QFAIL`/`QCANCEL`) is appended
//!   the same way, so a SIGKILLed daemon restarts with zero lost or
//!   duplicated jobs (the journal discipline of PR 5, applied to
//!   jobs);
//! * **the shared result cache** — the mode-keyed v3 disk cache
//!   ([`crate::diskcache`]). Worker hosts compute *through* it
//!   ([`crate::ctx::Ctx::with_disk_cache`]): a fresh result is
//!   appended before its `DONE` frame is sent, so any lost frame —
//!   conn-drop, partial-frame, daemon death — turns the retry into a
//!   cache hit. Combined with at-most-one in-flight task per cell
//!   key, **no cell is ever computed twice**, across retries, daemon
//!   restarts, and any number of clients;
//! * **per-cell dedup** — jobs are decomposed into cell tasks keyed by
//!   [`CellKey`]; identical cells across clients share one task and
//!   one cached result.
//!
//! The robustness layer is the supervision policy of [`crate::serve`]
//! across a real network boundary: heartbeat supervision of worker
//! hosts (generation is the connection itself — a frame from a dead
//! predecessor's socket can never be attributed to its replacement —
//! *and* every `DONE` carries its attempt), per-connection read/write
//! deadlines so a slow-loris peer is shed instead of wedging the
//! accept loop, admission control with a bounded open-job queue and a
//! typed [`SimError::Overloaded`] shed, and graceful drain on
//! SIGINT/SIGTERM (exit 130 with a resume hint; queued jobs persist).
//!
//! Wire protocol, client side (framed payloads):
//!
//! | direction       | payload                                     |
//! |-----------------|---------------------------------------------|
//! | client → daemon | `SUBMIT <token> <sweep-header>`             |
//! | client → daemon | `STATUS` / `CANCEL <token>`                 |
//! | daemon → client | `ACCEPTED <id>` / `SHED <depth>` / `REJECT <why>` |
//! | daemon → client | `TICK <id>` (liveness, every hb interval)   |
//! | daemon → client | `RES <id> <CELL ...>` (one completed cell)  |
//! | daemon → client | `JOBDONE <id>` / `JOBFAIL <id> <why>`       |
//! | daemon → client | `STATS <json>` / `CANCELLED <id>` / `NOJOB` |
//!
//! `SUBMIT` is idempotent by token: resubmitting (after a reconnect,
//! or from a second client) attaches to the existing job and replays
//! its completed cells. That idempotence is what makes the client's
//! reconnect loop safe to fire blindly.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tlpsim_trace::CounterSnapshot;

use crate::configs;
use crate::ctx::{Cell, CellKey};
use crate::diskcache::{DiskCache, Record};
use crate::error::SimError;
use crate::framedlog::{Durability, FramedLog, ReplayReport};
use crate::interrupt;
use crate::journal::{ckpt_dir_for, Journal, SweepSpec};
use crate::net::{send_frame, FrameError, FrameReader};
use crate::serve::{cell_deadline, FaultPolicy, ServeOptions, ServeOutcome, ServeStats};
use crate::worker::{decode_done, decode_err, encode_runs, EXIT, PROTOCOL_VERSION};
use crate::{SimScale, SWEEP_COUNTS};

/// Queue-file format version; bump on any layout change.
pub const QUEUE_VERSION: u32 = 1;

/// Open jobs a daemon admits before it sheds new ones, unless
/// `TLPSIM_SERVE_QUEUE_DEPTH` says otherwise.
pub(crate) const DEFAULT_QUEUE_DEPTH: usize = 16;

/// Per-connection read/write deadline: a peer that neither speaks nor
/// drains for this long is dropped (the slow-loris bound).
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Daemon options: where it listens and what it keeps durable, plus the
/// supervision policy it shares with one-shot `serve`. The CLI takes the
/// scale and queue depth from its [`Settings`](crate::settings::Settings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonOptions {
    /// Listen address (`host:port`; port 0 binds an ephemeral port —
    /// pair it with `addr_file`).
    pub addr: String,
    /// The persistent job queue file.
    pub queue_path: PathBuf,
    /// The shared result cache worker hosts compute through.
    pub cache_path: PathBuf,
    /// The single simulation scale this daemon serves (jobs at any
    /// other scale are rejected — scale is cache identity).
    pub scale: SimScale,
    /// Admission control: maximum open jobs before `SHED`.
    pub queue_depth: usize,
    /// When set, the actually-bound address is written here once the
    /// listener is up (ephemeral-port rendezvous for tests/benches).
    pub addr_file: Option<PathBuf>,
    /// Worker pool and supervision policy; `hb_interval` is also the
    /// client `TICK` cadence.
    pub serve: ServeOptions,
}

/// Parse a `TLPSIM_SERVE_SCALE` value (`warmup,budget,parsec_phase,seed`).
///
/// # Errors
/// A diagnostic naming what is malformed.
pub fn parse_scale(v: &str) -> Result<SimScale, String> {
    let parts: Vec<&str> = v.split(',').map(str::trim).collect();
    let [w, b, p, s] = parts.as_slice() else {
        return Err("needs exactly 4 fields: warmup,budget,parsec_phase,seed".into());
    };
    let num = |t: &str, what: &str| -> Result<u64, String> {
        t.parse().map_err(|_| format!("bad {what} {t:?}"))
    };
    let scale = SimScale {
        warmup: num(w, "warmup")?,
        budget: num(b, "budget")?,
        parsec_phase: num(p, "parsec phase")?,
        seed: num(s, "seed")?,
    };
    if scale.warmup == 0 || scale.budget == 0 || scale.parsec_phase == 0 {
        return Err("warmup, budget and parsec_phase must be positive".into());
    }
    Ok(scale)
}

impl DaemonOptions {
    /// Production defaults for everything but the listen address and
    /// the supervision policy.
    pub fn new(addr: String, serve: ServeOptions) -> DaemonOptions {
        DaemonOptions {
            addr,
            queue_path: PathBuf::from("tlpsim-daemon.queue"),
            cache_path: PathBuf::from("tlpsim-daemon.cells"),
            scale: SimScale::quick(),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            addr_file: None,
            serve,
        }
    }
}

/// One record of the persistent job queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QRec {
    /// A job was accepted: its dedup token and full sweep header.
    Job {
        /// Monotonic job id.
        id: u64,
        /// Client-chosen (or derived) idempotence token.
        token: String,
        /// The job's [`SweepSpec::header_line`].
        header: String,
    },
    /// The job completed (every cell present in the result cache).
    Done {
        /// Job id.
        id: u64,
    },
    /// The job failed (a cell exhausted its attempt budget).
    Fail {
        /// Job id.
        id: u64,
        /// Why, flattened to one line.
        why: String,
    },
    /// The job was cancelled by a client.
    Cancel {
        /// Job id.
        id: u64,
    },
}

impl QRec {
    /// Serialize to the wire/disk payload (without framing).
    pub fn encode(&self) -> String {
        match self {
            QRec::Job { id, token, header } => format!("QJOB {id} {token} {header}"),
            QRec::Done { id } => format!("QDONE {id}"),
            QRec::Fail { id, why } => {
                format!("QFAIL {id} {}", why.replace(['\n', '\r'], " "))
            }
            QRec::Cancel { id } => format!("QCANCEL {id}"),
        }
    }

    /// Strictly parse a payload back.
    ///
    /// # Errors
    /// A diagnostic string — a queue replayed after a crash must
    /// reject what it cannot prove, never guess.
    pub fn decode(payload: &str) -> Result<QRec, String> {
        let (tag, rest) = payload.split_once(' ').unwrap_or((payload, ""));
        let id =
            |r: &str| -> Result<u64, String> { r.parse().map_err(|_| format!("bad job id {r:?}")) };
        match tag {
            "QJOB" => {
                let mut it = rest.splitn(3, ' ');
                let (Some(i), Some(token), Some(header)) = (it.next(), it.next(), it.next()) else {
                    return Err("QJOB needs id, token and header".into());
                };
                // The header must round-trip now, at replay time: a job
                // we cannot re-create is a job we must not claim to hold.
                SweepSpec::parse_header(header)?;
                Ok(QRec::Job {
                    id: id(i)?,
                    token: token.to_string(),
                    header: header.to_string(),
                })
            }
            "QDONE" => Ok(QRec::Done { id: id(rest)? }),
            "QCANCEL" => Ok(QRec::Cancel { id: id(rest)? }),
            "QFAIL" => {
                let (i, why) = rest.split_once(' ').unwrap_or((rest, ""));
                Ok(QRec::Fail {
                    id: id(i)?,
                    why: why.to_string(),
                })
            }
            other => Err(format!("unknown queue record {other:?}")),
        }
    }
}

/// The persistent job queue: framed, checksummed, fsync'd appends —
/// the journal discipline of [`crate::journal`] applied to job state.
#[derive(Debug)]
pub struct QueueFile {
    log: FramedLog,
}

fn queue_header(scale: SimScale) -> String {
    format!(
        "TLPSIM-QUEUE v{QUEUE_VERSION} {} {} {} {}",
        scale.warmup, scale.budget, scale.parsec_phase, scale.seed
    )
}

impl QueueFile {
    /// Open (creating if absent) the queue at `path`, bound to
    /// `scale`, replaying every intact record and truncating a torn
    /// tail. Returns the queue handle, the replayed records in append
    /// order, and a replay report.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] on I/O failure or — loudly, like
    /// the journal — when the file exists with a different header:
    /// resuming someone else's queue (or the same queue at a
    /// different scale) must fail, not silently fork history.
    pub fn open(
        path: &Path,
        scale: SimScale,
    ) -> Result<(QueueFile, Vec<QRec>, ReplayReport), SimError> {
        let header = queue_header(scale);
        let mut records = Vec::new();
        let (log, report) = FramedLog::open(
            path,
            Some(&header),
            Durability::Synced,
            |first| match first {
                Some(h) if h == header => Ok(true),
                Some(h) => Err(format!(
                    "belongs to a different daemon (header {h:?}, expected {header:?})"
                )),
                None => Err("has no complete header line".into()),
            },
            |payload| QRec::decode(payload).map(|r| records.push(r)).is_ok(),
        )
        .map_err(|e| {
            SimError::InvalidConfig(format!("cannot open queue {}: {e}", path.display()))
        })?;
        Ok((QueueFile { log }, records, report))
    }

    /// Durably append one record: framed `write_all` + `sync_data`
    /// under the file's lock. After this returns, the transition
    /// survives SIGKILL — which is why `ACCEPTED` is only sent *after*
    /// this returns for the `QJOB`.
    pub fn append(&self, rec: &QRec) {
        let _ = self.log.append(&rec.encode());
    }
}

impl ServeStats {
    /// The counter snapshot published to `STATUS` clients.
    pub fn snapshot(&self, open_jobs: usize) -> CounterSnapshot {
        let mut s = CounterSnapshot::new();
        s.add_u64("daemon.jobs.submitted", self.jobs_submitted);
        s.add_u64("daemon.jobs.completed", self.jobs_completed);
        s.add_u64("daemon.jobs.failed", self.jobs_failed);
        s.add_u64("daemon.jobs.cancelled", self.jobs_cancelled);
        s.add_u64("daemon.jobs.shed", self.jobs_shed);
        s.add_u64("daemon.jobs.open", open_jobs as u64);
        s.add_u64("daemon.cells.completed", self.cells_completed);
        s.add_u64("daemon.cells.deduped", self.cells_deduped);
        s.add_u64("daemon.cells.retried", self.retries);
        s.add_u64("daemon.cells.quarantined", self.quarantined);
        s.add_u64("daemon.cells.dispatched", self.dispatched);
        s.add_u64("daemon.workers.respawns", self.respawns);
        s.add_u64("daemon.workers.hb_kills", self.hb_kills);
        s.add_u64("daemon.workers.timeout_kills", self.timeout_kills);
        s.add_u64("daemon.workers.losses", self.worker_losses);
        s.add_u64("daemon.frames.rejected", self.rejected_frames);
        s.add_u64("daemon.conns.opened", self.conns_opened);
        s
    }
}

/// What a daemon run produced (it only returns on drain or fatal
/// startup error).
#[derive(Debug)]
pub struct DaemonOutcome {
    /// The run ended in a graceful drain (SIGINT/SIGTERM).
    pub interrupted: bool,
    /// Lifetime counters.
    pub stats: ServeStats,
    /// Jobs still open at drain time (they persist in the queue).
    pub open_jobs: usize,
}

/// The sweep spec a cell key implies at the daemon's scale. CellKey
/// carries everything but the scale; the daemon serves exactly one
/// scale, so the mapping is total.
fn spec_for_key(key: &CellKey, scale: SimScale) -> SweepSpec {
    SweepSpec {
        design: key.design.clone(),
        kind: key.kind,
        smt: key.smt,
        bus_dgbps: key.bus_dgbps,
        scale,
        mode: key.mode,
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum JobState {
    Open,
    Done,
    Failed(String),
    Cancelled,
}

struct Job {
    id: u64,
    token: String,
    spec: SweepSpec,
    state: JobState,
}

/// One attempt of a cell. `due` is when it may be dispatched while it
/// waits in the pending queue, and its wall-clock deadline once it is
/// in flight on a worker host.
struct Task {
    key: CellKey,
    attempt: u32,
    due: Instant,
}

/// One supervised worker host. The connection id is the *generation*:
/// frames arrive tagged with the connection they came from, and a
/// replacement host gets a new connection, so a dead predecessor's
/// leftovers can never be attributed to it (the attempt check in the
/// `DONE` frame closes the remaining same-connection race).
struct WorkerHost {
    conn: Option<u64>,
    child: Option<Child>,
    /// 0 marks a foreign host that joined on its own (never respawned).
    pid: u32,
    busy: Option<Task>,
    last_hb: Instant,
    spawned_at: Instant,
}

#[derive(Clone, Copy)]
enum Role {
    Pending,
    Worker(usize),
    Client { job: Option<u64> },
}

struct Conn {
    w: TcpStream,
    role: Role,
    opened: Instant,
}

#[derive(Debug)]
enum Ev {
    Open(u64, TcpStream),
    Frame(u64, String),
    /// A torn, corrupt or oversized frame (the reader resynced).
    Bad,
    Gone(u64),
}

/// Bind `addr`; returns the listener and the address worker hosts
/// connect back to (loopback when the bind was a wildcard).
fn bind(addr: &str) -> Result<(TcpListener, String), SimError> {
    let inv = |why: String| SimError::InvalidConfig(why);
    let listener = TcpListener::bind(addr).map_err(|e| inv(format!("cannot bind {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| inv(format!("no local addr: {e}")))?;
    let connect_addr = if local.ip().is_unspecified() {
        format!("127.0.0.1:{}", local.port())
    } else {
        local.to_string()
    };
    Ok((listener, connect_addr))
}

/// The accept thread: blocks in accept(), so a new connection is served
/// at once; the shutdown sets the flag and then wakes it with one
/// loopback connect.
fn accept_loop(listener: TcpListener, tx: Sender<Ev>, shutdown: Arc<AtomicBool>) {
    let mut next_conn: u64 = 1;
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let id = next_conn;
                next_conn += 1;
                let _ = stream.set_nodelay(true);
                let Ok(w) = stream.try_clone() else { continue };
                // The write deadline is the slow-loris bound: a peer
                // that will not drain our frames gets its connection
                // dropped, not our event loop.
                let _ = w.set_write_timeout(Some(IO_TIMEOUT));
                if tx.send(Ev::Open(id, w)).is_err() {
                    return;
                }
                let tx = tx.clone();
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || reader_loop(id, stream, &tx, &shutdown));
            }
            // Out of descriptors and the like: back off briefly.
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Forward one connection's frames to the event loop, then `Gone`. A
/// peer that died mid-frame leaves a torn tail, which arrives as one
/// `Bad` before the `Gone`, like any frame the checksum rejects.
fn reader_loop(id: u64, stream: TcpStream, tx: &Sender<Ev>, shutdown: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    for frame in FrameReader::new(stream) {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        let ev = match frame {
            Ok(p) => Ev::Frame(id, p),
            Err(FrameError::TimedOut) => continue,
            Err(_) => Ev::Bad,
        };
        if tx.send(ev).is_err() {
            return;
        }
    }
    let _ = tx.send(Ev::Gone(id));
}

/// Collect `child`'s exit status, waiting for it until `deadline` and
/// killing it after that (a deadline in the past kills at once unless
/// it has already exited).
fn reap_child(child: &mut Child, deadline: Instant) -> Option<ExitStatus> {
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => {
                let _ = child.kill();
                return child.wait().ok();
            }
        }
    }
}

/// What a supervision core makes durable.
enum Ledger<'a> {
    /// The daemon's job queue: jobs arrive from clients, and the loop
    /// runs until drained.
    Queue(QueueFile),
    /// A one-shot sweep's journal: every `DONE` is journaled before it
    /// counts, and the loop returns once no cell is pending or in
    /// flight.
    Journal(&'a Journal),
}

/// The supervision state machine. One thread owns all of it, fed by
/// one mpsc channel from the accept thread and one reader thread per
/// connection.
struct Core<'a> {
    opts: &'a DaemonOptions,
    ledger: Ledger<'a>,
    /// The address spawned worker hosts connect back to.
    connect_addr: String,
    jobs: BTreeMap<u64, Job>,
    next_job_id: u64,
    conns: HashMap<u64, Conn>,
    hosts: Vec<WorkerHost>,
    pending: Vec<Task>,
    results: HashMap<CellKey, Cell>,
    quarantined: HashMap<CellKey, SimError>,
    stats: ServeStats,
    draining: bool,
}

impl<'a> Core<'a> {
    fn new(opts: &'a DaemonOptions, ledger: Ledger<'a>, connect_addr: String) -> Core<'a> {
        Core {
            opts,
            ledger,
            connect_addr,
            jobs: BTreeMap::new(),
            next_job_id: 1,
            conns: HashMap::new(),
            hosts: Vec::new(),
            pending: Vec::new(),
            results: HashMap::new(),
            quarantined: HashMap::new(),
            stats: ServeStats::default(),
            draining: false,
        }
    }

    fn one_shot(&self) -> bool {
        matches!(self.ledger, Ledger::Journal(_))
    }

    /// Durably append a job transition (a no-op without a job queue).
    fn append(&self, rec: &QRec) {
        if let Ledger::Queue(queue) = &self.ledger {
            queue.append(rec);
        }
    }

    /// Spawn `n_hosts` worker hosts and run the event loop: until a
    /// graceful drain completes, or — one-shot — until no cell is
    /// pending or in flight. Then release every host.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] when the initial pool cannot be
    /// spawned, or a one-shot sweep with work left has no live host and
    /// cannot respawn one.
    fn run(&mut self, listener: TcpListener, n_hosts: usize) -> Result<(), SimError> {
        for _ in 0..n_hosts {
            let host = self.spawn_host()?;
            self.hosts.push(host);
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = channel::<Ev>();
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || accept_loop(listener, tx, shutdown))
        };

        let mut outcome = Ok(());
        let mut last_tick = Instant::now();
        loop {
            if interrupt::requested() && !self.draining {
                self.begin_drain();
            }
            if !self.draining {
                self.dispatch();
            }
            let busy = self.hosts.iter().any(|h| h.busy.is_some());
            if !busy && (self.draining || self.one_shot() && self.pending.is_empty()) {
                break;
            }
            let alive = self
                .hosts
                .iter()
                .any(|h| h.child.is_some() || h.conn.is_some());
            if self.one_shot() && !busy && !alive {
                outcome = Err(SimError::InvalidConfig(
                    "serve: all workers are dead and respawn failed".into(),
                ));
                break;
            }

            match rx.recv_timeout(Duration::from_millis(25)) {
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {}
                Ok(Ev::Open(id, w)) => {
                    self.stats.conns_opened += 1;
                    let conn = Conn {
                        w,
                        role: Role::Pending,
                        opened: Instant::now(),
                    };
                    self.conns.insert(id, conn);
                }
                // The reader already resynced; count it and keep the
                // connection.
                Ok(Ev::Bad) => self.stats.rejected_frames += 1,
                Ok(Ev::Gone(id)) => self.on_gone(id),
                Ok(Ev::Frame(id, payload)) => self.on_frame(id, &payload),
            }

            let now = Instant::now();
            self.check_health(now);
            if now.duration_since(last_tick) >= self.opts.serve.hb_interval {
                last_tick = now;
                self.tick(now);
            }
        }

        // Shutdown: stop the accept/reader threads, release hosts.
        shutdown.store(true, Ordering::Relaxed);
        self.release_hosts();
        // The accept thread sees the flag once accept() returns. If the
        // wake-up connect fails it stays blocked, and process exit ends it.
        let wake = self
            .connect_addr
            .parse::<SocketAddr>()
            .ok()
            .and_then(|a| TcpStream::connect_timeout(&a, Duration::from_secs(1)).ok());
        if wake.is_some() {
            let _ = accept.join();
        }
        outcome
    }

    /// Spawn one worker host that connects back to this supervisor.
    fn spawn_host(&self) -> Result<WorkerHost, SimError> {
        let sup = &self.opts.serve;
        let err = |why: String| SimError::InvalidConfig(format!("cannot spawn worker: {why}"));
        let (prog, args) = sup
            .worker_cmd
            .split_first()
            .ok_or_else(|| err("empty worker command".into()))?;
        let mut cmd = Command::new(prog);
        cmd.args(args)
            .arg("--tcp")
            .arg(&self.connect_addr)
            .arg(&self.opts.cache_path);
        if let Ledger::Journal(journal) = &self.ledger {
            // Hosts checkpoint in-flight cells exactly where sweep and
            // resume would, so a drained serve resumes mid-cell.
            cmd.arg(ckpt_dir_for(journal.path()));
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .env(
                "TLPSIM_SERVE_HB_MS",
                sup.hb_interval.as_millis().to_string(),
            );
        match &sup.fault {
            FaultPolicy::Inherit => {}
            FaultPolicy::Clear => {
                cmd.env_remove("TLPSIM_FAULT");
            }
            FaultPolicy::Spec(s) => {
                cmd.env("TLPSIM_FAULT", s);
            }
        }
        let child = cmd.spawn().map_err(|e| err(e.to_string()))?;
        let pid = child.id();
        if let Some(pf) = &sup.pid_file {
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(pf)
            {
                let _ = writeln!(f, "{pid}");
            }
        }
        Ok(WorkerHost {
            conn: None,
            child: Some(child),
            pid,
            busy: None,
            last_hb: Instant::now(),
            spawned_at: Instant::now(),
        })
    }

    /// Start the graceful drain: stop dispatching, ask busy hosts to
    /// stop their cell (SIGTERM → their interrupt flag; with
    /// checkpointing on, the cell checkpoints), release idle ones.
    fn begin_drain(&mut self) {
        self.draining = true;
        if let Ledger::Queue(_) = self.ledger {
            eprintln!(
                "tlpsim: daemon draining (queue persists at {})",
                self.opts.queue_path.display()
            );
        }
        let mut idle = Vec::new();
        for host in &self.hosts {
            if host.busy.is_some() {
                interrupt::send_signal(host.pid, interrupt::SIGTERM);
            } else if let Some(cid) = host.conn {
                idle.push(cid);
            }
        }
        for cid in idle {
            self.send_to(cid, EXIT);
        }
    }

    /// Dispatch ready tasks to idle connected hosts (≤ 1 in flight per
    /// host — the bounded queue).
    fn dispatch(&mut self) {
        let now = Instant::now();
        for hidx in 0..self.hosts.len() {
            let Some(cid) = self.hosts[hidx].conn else {
                continue;
            };
            if self.hosts[hidx].busy.is_some() {
                continue;
            }
            let Some(pos) = self.pending.iter().position(|t| t.due <= now) else {
                break;
            };
            let task = self.pending.swap_remove(pos);
            let last = task.attempt + 1 >= self.opts.serve.max_attempts;
            let header = spec_for_key(&task.key, self.opts.scale).header_line();
            if self.send_to(cid, &encode_runs(task.key.n, task.attempt, last, &header)) {
                self.stats.dispatched += 1;
                self.hosts[hidx].busy = Some(Task {
                    due: now + cell_deadline(task.key.n),
                    ..task
                });
            } else {
                // Connection died under us: requeue untouched, the Gone
                // event or health check will reap the host.
                self.pending.push(task);
            }
        }
    }

    /// Heartbeat silence and cell deadlines for connected hosts; spawned
    /// hosts that died on the doorstep or never phone home.
    fn check_health(&mut self, now: Instant) {
        let hb_timeout = self.opts.serve.hb_timeout;
        for hidx in 0..self.hosts.len() {
            let host = &mut self.hosts[hidx];
            let kill = if host.conn.is_some() {
                if now.duration_since(host.last_hb) > hb_timeout {
                    self.stats.hb_kills += 1;
                    Some("heartbeat lost (worker wedged)")
                } else if host.busy.as_ref().is_some_and(|t| now >= t.due) {
                    self.stats.timeout_kills += 1;
                    Some("cell deadline exceeded")
                } else {
                    continue;
                }
            } else if let Some(child) = host.child.as_mut() {
                let died = matches!(child.try_wait(), Ok(Some(_)));
                if !died && now.duration_since(host.spawned_at) <= hb_timeout * 4 {
                    continue;
                }
                self.stats.worker_losses += 1;
                (!died).then_some("worker never connected")
            } else {
                continue;
            };
            self.reap_host(hidx, kill);
        }
    }

    /// Periodic: `TICK` every watching client, shed slow-loris
    /// connections.
    fn tick(&mut self, now: Instant) {
        let watchers: Vec<(u64, u64)> = self
            .conns
            .iter()
            .filter_map(|(&cid, c)| match c.role {
                Role::Client { job: Some(jid) } => Some((cid, jid)),
                _ => None,
            })
            .collect();
        for (cid, jid) in watchers {
            if self
                .jobs
                .get(&jid)
                .is_some_and(|j| j.state == JobState::Open)
            {
                self.send_to(cid, &format!("TICK {jid}"));
            }
        }
        // A connection that never identified itself within the i/o
        // deadline is a slow-loris: shed it.
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                matches!(c.role, Role::Pending) && now.duration_since(c.opened) > IO_TIMEOUT
            })
            .map(|(&cid, _)| cid)
            .collect();
        for cid in idle {
            self.drop_conn(cid);
        }
    }

    /// Send `EXIT` to every connected host, then collect every host
    /// process, giving each up to 5 s to exit 0 before resorting to kill.
    fn release_hosts(&mut self) {
        let connected: Vec<u64> = self.hosts.iter().filter_map(|h| h.conn).collect();
        for cid in connected {
            self.send_to(cid, EXIT);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for hidx in 0..self.hosts.len() {
            if let Some(mut child) = self.hosts[hidx].child.take() {
                let status = reap_child(&mut child, deadline);
                self.count_exit(status);
            }
        }
    }

    fn count_exit(&mut self, status: Option<ExitStatus>) {
        if status.is_some_and(|s| s.success()) {
            self.stats.clean_exits += 1;
        } else {
            self.stats.worker_deaths += 1;
        }
    }

    /// Send one framed payload to a connection; on failure the connection
    /// is dropped (write deadline = slow-loris shed). Returns success.
    fn send_to(&mut self, cid: u64, payload: &str) -> bool {
        let Some(conn) = self.conns.get_mut(&cid) else {
            return false;
        };
        if send_frame(&mut conn.w, payload).is_ok() {
            return true;
        }
        self.drop_conn(cid);
        false
    }

    /// Forget a connection. A worker host keeps its slot (the Gone event
    /// or health check decides about respawn); a client just disappears —
    /// its job keeps running and survives for a later re-`SUBMIT`.
    fn drop_conn(&mut self, cid: u64) {
        let Some(conn) = self.conns.remove(&cid) else {
            return;
        };
        let _ = conn.w.shutdown(Shutdown::Both);
        if let Role::Worker(hidx) = conn.role {
            if self.hosts[hidx].conn == Some(cid) {
                self.hosts[hidx].conn = None;
                self.stats.worker_losses += 1;
            }
        }
    }

    /// Ensure `key` will be computed: no-op (counted as dedup) when it is
    /// already done, pending, or in flight.
    fn ensure_task(&mut self, key: CellKey) {
        let scheduled = self.results.contains_key(&key)
            || self.pending.iter().any(|t| t.key == key)
            || self
                .hosts
                .iter()
                .any(|h| h.busy.as_ref().is_some_and(|t| t.key == key));
        if scheduled {
            self.stats.cells_deduped += 1;
            return;
        }
        self.pending.push(Task {
            key,
            attempt: 0,
            due: Instant::now(),
        });
    }

    /// Queue every cell of an open job (dedup included).
    fn schedule_job(&mut self, jid: u64) {
        let Some(job) = self.jobs.get(&jid).filter(|j| j.state == JobState::Open) else {
            return;
        };
        let keys: Vec<CellKey> = SWEEP_COUNTS.iter().map(|&n| job.spec.cell_key(n)).collect();
        for key in keys {
            self.ensure_task(key);
        }
    }

    /// If every cell of an open job is done, finish it: durable `QDONE`
    /// first, then `JOBDONE` to its watchers.
    fn maybe_finish_job(&mut self, jid: u64) {
        let finished = self.jobs.get(&jid).is_some_and(|job| {
            job.state == JobState::Open
                && SWEEP_COUNTS
                    .iter()
                    .all(|&n| self.results.contains_key(&job.spec.cell_key(n)))
        });
        if !finished {
            return;
        }
        self.append(&QRec::Done { id: jid });
        self.jobs.get_mut(&jid).expect("checked above").state = JobState::Done;
        self.stats.jobs_completed += 1;
        self.notify_watchers(jid, &format!("JOBDONE {jid}"));
    }

    /// The open jobs that need the cell `key`.
    fn jobs_needing(&self, key: &CellKey) -> Vec<u64> {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Open && j.spec.cell_key(key.n) == *key)
            .map(|j| j.id)
            .collect()
    }

    /// Send a frame to every watcher of `jid`. Send failures drop those
    /// connections (watchers are clients by construction).
    fn notify_watchers(&mut self, jid: u64, payload: &str) {
        let watchers: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| matches!(c.role, Role::Client { job: Some(j) } if j == jid))
            .map(|(&cid, _)| cid)
            .collect();
        for cid in watchers {
            self.send_to(cid, payload);
        }
    }

    /// One completed cell: journal it (one-shot: write-ahead, before it
    /// counts), record it, stream `RES` to watchers, finish any job it
    /// completes.
    fn complete_cell(&mut self, key: CellKey, cell: Cell) {
        if let Ledger::Journal(journal) = &self.ledger {
            journal.record(key.n, &cell);
        }
        self.stats.cells_completed += 1;
        self.quarantined.remove(&key);
        let rec = Record::Cell {
            key: key.clone(),
            cell: cell.clone(),
        }
        .encode();
        self.results.insert(key.clone(), cell);
        let interested = self.jobs_needing(&key);
        for &jid in &interested {
            self.notify_watchers(jid, &format!("RES {jid} {rec}"));
        }
        for jid in interested {
            self.maybe_finish_job(jid);
        }
    }

    /// One failed attempt of a cell: retry with backoff, or — budget
    /// exhausted — quarantine it and fail every open job that needs it.
    fn fail_task(&mut self, task: Task, detail: &str) {
        let used = task.attempt + 1;
        if used < self.opts.serve.max_attempts {
            self.stats.retries += 1;
            self.pending.push(Task {
                due: Instant::now() + self.opts.serve.backoff(task.key.n, task.attempt),
                attempt: used,
                key: task.key,
            });
            return;
        }
        self.stats.quarantined += 1;
        let err = SimError::Quarantined {
            item: task.key.n,
            attempts: used,
            detail: detail.to_string(),
        };
        let why = err.to_string();
        let affected = self.jobs_needing(&task.key);
        self.quarantined.insert(task.key, err);
        for jid in affected {
            self.append(&QRec::Fail {
                id: jid,
                why: why.clone(),
            });
            if let Some(j) = self.jobs.get_mut(&jid) {
                j.state = JobState::Failed(why.clone());
            }
            self.stats.jobs_failed += 1;
            self.notify_watchers(jid, &format!("JOBFAIL {jid} {why}"));
        }
    }

    /// Collect host `hidx`'s process — killed at once when `kill` names
    /// a policy reason, else given a moment to finish the exit already
    /// under way — forget its connection, fail its in-flight task, and
    /// respawn it while work can still come.
    fn reap_host(&mut self, hidx: usize, kill: Option<&str>) {
        let mut detail = kill.unwrap_or("worker host lost").to_string();
        if let Some(mut child) = self.hosts[hidx].child.take() {
            let grace = if kill.is_some() {
                Duration::ZERO
            } else {
                Duration::from_secs(1)
            };
            let status = reap_child(&mut child, Instant::now() + grace);
            if kill.is_none() {
                self.count_exit(status);
                let code = status
                    .and_then(|s| s.code())
                    .map_or("killed".to_string(), |c| format!("exit {c}"));
                detail = format!("worker died mid-cell ({code})");
            }
        }
        if let Some(cid) = self.hosts[hidx].conn.take() {
            if let Some(c) = self.conns.remove(&cid) {
                let _ = c.w.shutdown(Shutdown::Both);
            }
            self.stats.worker_losses += 1;
        }
        if let Some(task) = self.hosts[hidx].busy.take() {
            if !self.draining {
                self.fail_task(task, &detail);
            }
        }
        // Foreign hosts are never replaced, and a one-shot sweep stops
        // replacing hosts once no work is left.
        let work_left = !self.pending.is_empty() || self.hosts.iter().any(|h| h.busy.is_some());
        if self.hosts[hidx].pid != 0 && !self.draining && (work_left || !self.one_shot()) {
            match self.spawn_host() {
                Ok(h) => {
                    self.hosts[hidx] = h;
                    self.stats.respawns += 1;
                }
                Err(e) => eprintln!("tlpsim: serve: respawn failed: {e}"),
            }
        }
    }

    /// A connection vanished (EOF or socket error). Clients may vanish
    /// freely: the job keeps running, and a reconnecting `SUBMIT` picks
    /// the results back up. A worker host's loss reaps the host.
    fn on_gone(&mut self, cid: u64) {
        let Some(conn) = self.conns.remove(&cid) else {
            return;
        };
        let _ = conn.w.shutdown(Shutdown::Both);
        if let Role::Worker(hidx) = conn.role {
            if self.hosts[hidx].conn == Some(cid) {
                self.reap_host(hidx, None);
            }
        }
    }

    /// One intact frame from connection `cid`.
    fn on_frame(&mut self, cid: u64, payload: &str) {
        let Some(role) = self.conns.get(&cid).map(|c| c.role) else {
            return;
        };
        match role {
            Role::Worker(hidx) => self.worker_frame(hidx, payload),
            // A worker's heartbeat squeezing in around its HELLO:
            // harmless, ignore rather than mistake it for a client verb.
            Role::Pending if payload.starts_with("HB ") => {}
            Role::Pending if payload.starts_with("HELLO ") => {
                self.hello(cid, &payload["HELLO ".len()..]);
            }
            Role::Pending | Role::Client { .. } => self.client_frame(cid, payload),
        }
    }

    /// A worker host introducing itself with `HELLO <pid> <version>`.
    fn hello(&mut self, cid: u64, rest: &str) {
        let mut it = rest.split_whitespace();
        let ids = match (it.next(), it.next(), it.next()) {
            (Some(pid), Some(ver), None) => pid.parse::<u32>().ok().zip(ver.parse::<u32>().ok()),
            _ => None,
        };
        let Some((pid, ver)) = ids else {
            self.stats.rejected_frames += 1;
            self.drop_conn(cid);
            return;
        };
        if ver != PROTOCOL_VERSION {
            eprintln!("tlpsim: serve: rejecting worker pid {pid} speaking protocol v{ver}");
            self.drop_conn(cid);
            return;
        }
        let hidx = match self
            .hosts
            .iter()
            .position(|h| h.pid == pid && h.conn.is_none())
        {
            Some(hidx) => hidx,
            None => {
                // An external worker host joining the pool: welcome, but
                // never respawned.
                self.hosts.push(WorkerHost {
                    conn: None,
                    child: None,
                    pid: 0,
                    busy: None,
                    last_hb: Instant::now(),
                    spawned_at: Instant::now(),
                });
                self.hosts.len() - 1
            }
        };
        self.hosts[hidx].conn = Some(cid);
        self.hosts[hidx].last_hb = Instant::now();
        if let Some(c) = self.conns.get_mut(&cid) {
            c.role = Role::Worker(hidx);
        }
    }

    /// One intact frame from worker host `hidx`.
    fn worker_frame(&mut self, hidx: usize, payload: &str) {
        self.hosts[hidx].last_hb = Instant::now();
        if payload.starts_with("HB ") {
            return;
        }
        if payload.starts_with("DONE ") {
            let expected = self.hosts[hidx]
                .busy
                .as_ref()
                .map(|t| (t.key.clone(), t.attempt));
            match decode_done(payload).map(|(a, rec)| (a, Record::decode(rec))) {
                Some((attempt, Ok(Record::Cell { key, cell })))
                    if expected
                        .as_ref()
                        .is_some_and(|(k, a)| *k == key && *a == attempt) =>
                {
                    self.hosts[hidx].busy = None;
                    self.complete_cell(key, cell);
                }
                Some((attempt, Ok(Record::Cell { key, .. })))
                    if expected
                        .as_ref()
                        .is_some_and(|(k, a)| *k == key && attempt < *a) =>
                {
                    // A stale frame from an earlier attempt of the
                    // *same* cell, leaked past its attempt's failure:
                    // reject it, keep waiting for the live attempt.
                    self.stats.rejected_frames += 1;
                }
                _ => {
                    // Intact frame, wrong shape or wrong cell: never
                    // trust it, and treat the host's state as unknown —
                    // the in-flight attempt fails rather than hangs to
                    // its deadline.
                    self.stats.rejected_frames += 1;
                    if let Some(task) = self.hosts[hidx].busy.take() {
                        if !self.draining {
                            self.fail_task(task, "worker returned a foreign or malformed cell");
                        }
                    }
                }
            }
            return;
        }
        if let Some((n, attempt, was_interrupted, detail)) = decode_err(payload) {
            let matches_busy = self.hosts[hidx]
                .busy
                .as_ref()
                .is_some_and(|t| t.key.n == n && t.attempt == attempt);
            if !matches_busy {
                self.stats.rejected_frames += 1;
                return;
            }
            let task = self.hosts[hidx].busy.take().expect("matched above");
            // A cooperative drain stopped the cell: nothing to retry now
            // (it checkpointed, or the open job/journal re-queues it).
            if !(was_interrupted && self.draining) {
                self.fail_task(task, &detail);
            }
            return;
        }
        self.stats.rejected_frames += 1;
    }

    /// A client verb (`SUBMIT`/`STATUS`/`CANCEL`) from `cid`.
    fn client_frame(&mut self, cid: u64, payload: &str) {
        if self.one_shot() {
            // A one-shot sweep serves its own worker hosts, no clients.
            self.stats.rejected_frames += 1;
            self.drop_conn(cid);
            return;
        }
        if payload == "STATUS" || payload.starts_with("CANCEL ") {
            if let Some(c) = self.conns.get_mut(&cid) {
                if matches!(c.role, Role::Pending) {
                    c.role = Role::Client { job: None };
                }
            }
        }
        if payload == "STATUS" {
            let open = self
                .jobs
                .values()
                .filter(|j| j.state == JobState::Open)
                .count();
            let json = self.stats.snapshot(open).to_json();
            self.send_to(cid, &format!("STATS {json}"));
            return;
        }
        if let Some(token) = payload.strip_prefix("CANCEL ") {
            let token = token.trim();
            let found = self.jobs.values().find(|j| j.token == token).map(|j| j.id);
            let reply = match found {
                Some(jid) if self.jobs[&jid].state == JobState::Open => {
                    self.append(&QRec::Cancel { id: jid });
                    self.jobs.get_mut(&jid).expect("found above").state = JobState::Cancelled;
                    self.stats.jobs_cancelled += 1;
                    self.notify_watchers(jid, &format!("JOBFAIL {jid} cancelled"));
                    format!("CANCELLED {jid}")
                }
                Some(jid) => format!("CANCELLED {jid}"),
                None => "NOJOB".to_string(),
            };
            self.send_to(cid, &reply);
            return;
        }
        if let Some(rest) = payload.strip_prefix("SUBMIT ") {
            self.submit(cid, rest);
            return;
        }
        self.stats.rejected_frames += 1;
        self.drop_conn(cid);
    }

    /// `SUBMIT <token> <header>`: admit (or re-attach to) the job, then
    /// replay what is already known — completed cells, then the terminal
    /// state if the job is already settled.
    fn submit(&mut self, cid: u64, rest: &str) {
        let Some((token, header)) = rest.split_once(' ') else {
            self.send_to(cid, "REJECT SUBMIT needs a token and a sweep header");
            return;
        };
        let spec = match SweepSpec::parse_header(header) {
            Ok(s) => s,
            Err(why) => {
                self.send_to(cid, &format!("REJECT {why}"));
                return;
            }
        };
        let scale = self.opts.scale;
        let refusal = if spec.scale != scale {
            Some(format!(
                "REJECT daemon serves scale {},{},{},{} only",
                scale.warmup, scale.budget, scale.parsec_phase, scale.seed
            ))
        } else if configs::by_name(&spec.design).is_none() {
            Some(format!("REJECT unknown design {}", spec.design))
        } else if self.draining {
            Some("REJECT daemon is draining".to_string())
        } else {
            None
        };
        if let Some(refusal) = refusal {
            self.send_to(cid, &refusal);
            return;
        }

        // Idempotent by token: a resubmit attaches to the existing job.
        let existing = self.jobs.values().find(|j| j.token == token).map(|j| j.id);
        let jid = match existing {
            Some(jid) => jid,
            None => {
                let open = self
                    .jobs
                    .values()
                    .filter(|j| j.state == JobState::Open)
                    .count();
                if open >= self.opts.queue_depth {
                    self.stats.jobs_shed += 1;
                    self.send_to(cid, &format!("SHED {open}"));
                    return;
                }
                let jid = self.next_job_id;
                self.next_job_id += 1;
                // Durable before visible: QJOB hits the disk (fsync)
                // before the client ever sees ACCEPTED.
                self.append(&QRec::Job {
                    id: jid,
                    token: token.to_string(),
                    header: spec.header_line(),
                });
                let job = Job {
                    id: jid,
                    token: token.to_string(),
                    spec,
                    state: JobState::Open,
                };
                self.jobs.insert(jid, job);
                self.stats.jobs_submitted += 1;
                self.schedule_job(jid);
                jid
            }
        };
        if let Some(c) = self.conns.get_mut(&cid) {
            c.role = Role::Client { job: Some(jid) };
        }
        if !self.send_to(cid, &format!("ACCEPTED {jid}")) {
            return;
        }
        let job_spec = self.jobs[&jid].spec.clone();
        for &n in SWEEP_COUNTS.iter() {
            let key = job_spec.cell_key(n);
            let Some(cell) = self.results.get(&key).cloned() else {
                continue;
            };
            let rec = Record::Cell { key, cell }.encode();
            if !self.send_to(cid, &format!("RES {jid} {rec}")) {
                return;
            }
        }
        self.maybe_finish_job(jid);
        let terminal = match &self.jobs[&jid].state {
            JobState::Open => return,
            JobState::Done => format!("JOBDONE {jid}"),
            JobState::Failed(why) => format!("JOBFAIL {jid} {why}"),
            JobState::Cancelled => format!("JOBFAIL {jid} cancelled"),
        };
        self.send_to(cid, &terminal);
    }
}

/// Run the daemon until a graceful drain. See the module docs for the
/// architecture.
///
/// # Errors
/// [`SimError::InvalidConfig`] when the listener cannot bind, the
/// queue/cache cannot be opened, or no worker host can ever be
/// spawned. Everything after startup is policy, not error.
pub fn run_daemon(opts: &DaemonOptions) -> Result<DaemonOutcome, SimError> {
    // Durable state first: replay the queue and the result cache.
    let (queue, qrecs, qreplay) = QueueFile::open(&opts.queue_path, opts.scale)?;
    let mut jobs: BTreeMap<u64, Job> = BTreeMap::new();
    for rec in qrecs {
        match rec {
            QRec::Job { id, token, header } => {
                // Validated at decode time; a second parse cannot fail.
                if let Ok(spec) = SweepSpec::parse_header(&header) {
                    let state = JobState::Open;
                    let job = Job {
                        id,
                        token,
                        spec,
                        state,
                    };
                    jobs.insert(id, job);
                }
            }
            QRec::Done { id } => {
                if let Some(j) = jobs.get_mut(&id) {
                    j.state = JobState::Done;
                }
            }
            QRec::Fail { id, why } => {
                if let Some(j) = jobs.get_mut(&id) {
                    j.state = JobState::Failed(why);
                }
            }
            QRec::Cancel { id } => {
                if let Some(j) = jobs.get_mut(&id) {
                    j.state = JobState::Cancelled;
                }
            }
        }
    }

    // The result cache: replay what worker hosts have already made
    // durable, then drop the handle — the daemon never writes results.
    let (cache, records, _report) = DiskCache::open(opts.scale, &opts.cache_path).map_err(|e| {
        SimError::InvalidConfig(format!(
            "cannot open cache {}: {e}",
            opts.cache_path.display()
        ))
    })?;
    drop(cache);
    let results: HashMap<CellKey, Cell> = records
        .into_iter()
        .filter_map(|rec| match rec {
            Record::Cell { key, cell } => Some((key, cell)),
            _ => None,
        })
        .collect();

    let (listener, connect_addr) = bind(&opts.addr)?;
    if let Some(af) = &opts.addr_file {
        std::fs::write(af, format!("{connect_addr}\n")).map_err(|e| {
            SimError::InvalidConfig(format!("cannot write addr file {}: {e}", af.display()))
        })?;
    }
    eprintln!(
        "tlpsim: daemon listening on {connect_addr} (queue {}, cache {}, {} replayed jobs{})",
        opts.queue_path.display(),
        opts.cache_path.display(),
        jobs.len(),
        if qreplay.truncated_at.is_some() {
            ", torn tail repaired"
        } else {
            ""
        },
    );

    let mut core = Core::new(opts, Ledger::Queue(queue), connect_addr);
    core.next_job_id = jobs.keys().next_back().map_or(1, |&id| id + 1);
    core.jobs = jobs;
    core.results = results;
    // Jobs replayed as Open re-enter scheduling (their finished cells
    // come straight from the replayed cache — zero recompute).
    let open_ids: Vec<u64> = core
        .jobs
        .values()
        .filter(|j| j.state == JobState::Open)
        .map(|j| j.id)
        .collect();
    for id in open_ids {
        core.schedule_job(id);
        core.maybe_finish_job(id);
    }
    core.run(listener, opts.serve.workers.max(1))?;
    let open_jobs = core
        .jobs
        .values()
        .filter(|j| j.state == JobState::Open)
        .count();
    Ok(DaemonOutcome {
        interrupted: core.draining,
        stats: core.stats,
        open_jobs,
    })
}

/// Supervise one sweep to completion — the core of
/// [`crate::serve::serve_sweep`]: `journal` is the ledger, the cells in
/// `done` are never dispatched, and `opts.serve.workers` hosts compute
/// through `opts.cache_path` at `opts.scale` (the journal's).
pub(crate) fn supervise_sweep(
    opts: &DaemonOptions,
    journal: &Journal,
    done: BTreeMap<usize, Cell>,
) -> Result<ServeOutcome, SimError> {
    let spec = journal.spec().clone();
    let (listener, connect_addr) = bind(&opts.addr)?;
    let mut core = Core::new(opts, Ledger::Journal(journal), connect_addr);
    core.results = done
        .into_iter()
        .map(|(n, cell)| (spec.cell_key(n), cell))
        .collect();
    for &n in SWEEP_COUNTS.iter() {
        core.ensure_task(spec.cell_key(n));
    }
    core.run(listener, opts.serve.workers)?;
    Ok(ServeOutcome {
        cells: core.results.into_iter().map(|(k, c)| (k.n, c)).collect(),
        quarantined: core
            .quarantined
            .into_iter()
            .map(|(k, e)| (k.n, e))
            .collect(),
        interrupted: core.draining,
        stats: core.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::WorkloadKind;
    use crate::mode::SimMode;
    use crate::net::send_torn;
    use crate::worker::encode_done;

    fn spec() -> SweepSpec {
        SweepSpec {
            design: "4B".into(),
            kind: WorkloadKind::Heterogeneous,
            smt: true,
            bus_dgbps: 80,
            scale: SimScale::quick(),
            mode: SimMode::Exact,
        }
    }

    #[test]
    fn scale_parses_strictly() {
        assert_eq!(
            parse_scale("200,600,1000,42").unwrap(),
            SimScale {
                warmup: 200,
                budget: 600,
                parsec_phase: 1000,
                seed: 42
            }
        );
        assert_eq!(parse_scale(" 200 , 600 , 1000 , 42 ").unwrap().budget, 600);
        for bad in [
            "",
            "200",
            "200,600,1000",
            "200,600,1000,42,9",
            "x,600,1000,42",
            "0,600,1000,42",
            "200,0,1000,42",
        ] {
            assert!(parse_scale(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn queue_records_round_trip() {
        let recs = [
            QRec::Job {
                id: 7,
                token: "tdeadbeef".into(),
                header: spec().header_line(),
            },
            QRec::Done { id: 7 },
            QRec::Fail {
                id: 9,
                why: "cell n=4 quarantined after 3 failed attempts".into(),
            },
            QRec::Cancel { id: 12 },
        ];
        for rec in recs {
            assert_eq!(QRec::decode(&rec.encode()).unwrap(), rec);
        }
        // A newline in the reason must not break line framing.
        let f = QRec::Fail {
            id: 1,
            why: "multi\nline".into(),
        };
        assert!(!f.encode().contains('\n'));
        for bad in [
            "",
            "QJOB",
            "QJOB 1",
            "QJOB 1 tok",
            "QJOB 1 tok not-a-header",
            "QJOB x tok header",
            "QDONE x",
            "QNOPE 1",
        ] {
            assert!(QRec::decode(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn queue_file_replays_and_truncates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("tlpsim-queue-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("daemon.queue");
        let _ = std::fs::remove_file(&path);
        let scale = SimScale::quick();

        let (q, recs, rep) = QueueFile::open(&path, scale).unwrap();
        assert!(recs.is_empty() && rep.replayed == 0);
        let job = QRec::Job {
            id: 1,
            token: "tabc".into(),
            header: spec().header_line(),
        };
        q.append(&job);
        q.append(&QRec::Done { id: 1 });
        drop(q);

        let (q, recs, rep) = QueueFile::open(&path, scale).unwrap();
        assert_eq!(recs, vec![job.clone(), QRec::Done { id: 1 }]);
        assert_eq!(rep.replayed, 2);
        assert_eq!(rep.truncated_at, None);
        drop(q);

        // Tear the tail: strip the last 7 bytes of the final record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let (q, recs, rep) = QueueFile::open(&path, scale).unwrap();
        assert_eq!(recs, vec![job], "torn record must be dropped");
        assert!(rep.truncated_at.is_some());
        // Appends keep working after the repair.
        q.append(&QRec::Cancel { id: 1 });
        drop(q);
        let (_q, recs, rep) = QueueFile::open(&path, scale).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(rep.truncated_at, None);

        // A queue at a different scale is refused loudly.
        let other = SimScale {
            warmup: 999,
            ..scale
        };
        assert!(matches!(
            QueueFile::open(&path, other),
            Err(SimError::InvalidConfig(_))
        ));
        let (_q, recs, _) = QueueFile::open(&path, scale).unwrap();
        assert_eq!(recs.len(), 2, "a refused open leaves the file untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_file_keeps_intact_jobs_before_a_non_utf8_tail() {
        let dir = std::env::temp_dir().join(format!("tlpsim-queue-utf8-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("daemon.queue");
        let _ = std::fs::remove_file(&path);
        let scale = SimScale::quick();
        let job = |id, token: &str| QRec::Job {
            id,
            token: token.into(),
            header: spec().header_line(),
        };

        let (q, _, _) = QueueFile::open(&path, scale).unwrap();
        q.append(&job(1, "tabc"));
        let intact = std::fs::metadata(&path).unwrap().len();
        q.append(&job(2, "jöb"));
        drop(q);
        // Tear the last QJOB inside the two-byte `ö` of its token.
        let bytes = std::fs::read(&path).unwrap();
        let o = bytes.iter().rposition(|&b| b == 0xC3).unwrap();
        std::fs::write(&path, &bytes[..=o]).unwrap();

        let (q, recs, rep) = QueueFile::open(&path, scale).unwrap();
        assert_eq!(recs, vec![job(1, "tabc")], "intact job 1 must survive");
        assert_eq!(rep.truncated_at, Some(intact));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        q.append(&QRec::Done { id: 1 });
        drop(q);
        let (_q, recs, rep) = QueueFile::open(&path, scale).unwrap();
        assert_eq!(recs, vec![job(1, "tabc"), QRec::Done { id: 1 }]);
        assert_eq!(rep.truncated_at, None, "repaired file is clean");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_for_key_round_trips_with_cell_key() {
        let s = spec();
        for n in SWEEP_COUNTS {
            let key = s.cell_key(n);
            let back = spec_for_key(&key, s.scale);
            assert_eq!(back, s);
            assert_eq!(back.cell_key(n), key);
        }
    }

    #[test]
    fn stale_attempt_frame_is_rejected_without_failing_the_live_attempt() {
        let dir = std::env::temp_dir().join(format!("tlpsim-core-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.journal");
        let journal = Journal::create(&path, spec()).unwrap();
        let opts = DaemonOptions::new("127.0.0.1:0".into(), ServeOptions::default());
        let mut core = Core::new(&opts, Ledger::Journal(&journal), "127.0.0.1:1".into());
        // A host whose predecessor attempt was failed mid-cell: it is on
        // attempt 1 of cell n=4 while one frame from attempt 0 leaked
        // past that failure.
        let task = |attempt| Task {
            key: spec().cell_key(4),
            attempt,
            due: Instant::now() + Duration::from_secs(60),
        };
        core.hosts.push(WorkerHost {
            conn: None,
            child: None,
            pid: 0,
            busy: Some(task(1)),
            last_hb: Instant::now(),
            spawned_at: Instant::now(),
        });
        let cell = Cell {
            stp: vec![1.0; 12],
            antt: vec![1.0; 12],
            power_w: vec![1.0; 12],
        };
        let done = |attempt, n| {
            let rec = Record::Cell {
                key: spec().cell_key(n),
                cell: cell.clone(),
            };
            encode_done(attempt, &rec.encode())
        };

        // The stale frame: same cell, *older attempt*. Matching on the
        // cell key alone would journal it as the live attempt's result.
        core.worker_frame(0, &done(0, 4));
        assert_eq!(
            core.stats.rejected_frames, 1,
            "stale frame must be rejected"
        );
        assert!(
            core.hosts[0].busy.is_some(),
            "live attempt must stay in flight"
        );
        assert!(core.results.is_empty(), "stale result must not be trusted");
        assert_eq!(core.stats.retries, 0, "live attempt must not be failed");

        // The live attempt's own frame is accepted, journaled first.
        core.worker_frame(0, &done(1, 4));
        assert!(core.hosts[0].busy.is_none());
        assert_eq!(core.results.len(), 1);
        assert_eq!(core.stats.rejected_frames, 1);
        let (_, _, journaled, _) = Journal::open(&path).unwrap();
        assert_eq!(journaled.keys().copied().collect::<Vec<_>>(), vec![4]);

        // A genuinely foreign cell (wrong n) still fails the in-flight
        // attempt — the host's state is unknown.
        core.hosts[0].busy = Some(task(0));
        core.worker_frame(0, &done(0, 8));
        assert_eq!(core.stats.rejected_frames, 2);
        assert!(core.hosts[0].busy.is_none());
        assert_eq!(core.stats.retries, 1);
        assert_eq!(core.pending.len(), 1, "the failed attempt is re-queued");
        drop(core);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_one_rejected_frame_before_the_connection_is_gone() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut host = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let (tx, rx) = channel();
        let reader = std::thread::spawn(move || {
            reader_loop(7, stream, &tx, &AtomicBool::new(false));
        });
        // A host that dies halfway through writing its DONE.
        send_frame(&mut host, "HELLO 1 2").unwrap();
        send_torn(&mut host, &encode_done(0, "CELL 4B 4 X 1 80 exact 1.0 2.0"));
        drop(host);
        reader.join().unwrap();
        let events: Vec<Ev> = rx.try_iter().collect();
        assert!(
            matches!(
                events.as_slice(),
                [Ev::Frame(7, hello), Ev::Bad, Ev::Gone(7)] if hello == "HELLO 1 2"
            ),
            "{events:?}"
        );
    }
}
