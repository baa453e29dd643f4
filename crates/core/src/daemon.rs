//! The long-running sweep daemon (DESIGN.md §16).
//!
//! `tlpsim serve --daemon <addr>` promotes the one-shot supervised
//! sweep of [`crate::serve`] into a crash-safe, multi-client service:
//! clients (`tlpsim submit` / `status` / `cancel`) and worker hosts
//! both connect over TCP and speak the framed line protocol of
//! [`crate::net`]. The daemon owns three durable artifacts:
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
//! The robustness layer mirrors the PR 6 supervisor, generalized
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
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tlpsim_trace::CounterSnapshot;

use crate::configs;
use crate::ctx::{Cell, CellKey};
use crate::diskcache::{lock_path_for, unframe, DiskCache, FileLock, Record};
use crate::error::SimError;
use crate::executor::lock_unpoisoned;
use crate::interrupt;
use crate::journal::SweepSpec;
use crate::net::{send_frame, FrameDecoder, FrameError};
use crate::serve::{backoff_for, FaultPolicy, ServeOptions};
use crate::worker::{decode_done, decode_err, encode_runs, Request, PROTOCOL_VERSION};
use crate::{SimScale, SWEEP_COUNTS};

/// Queue-file format version; bump on any layout change.
pub const QUEUE_VERSION: u32 = 1;

/// Daemon policy knobs. `Default`-like production values come from
/// [`from_env`](Self::from_env), which layers the `TLPSIM_SERVE_*`
/// overrides (shared with the one-shot supervisor) plus the
/// daemon-only `QUEUE_DEPTH`, `IO_TIMEOUT_MS` and `SCALE` on top.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonOptions {
    /// Listen address (`host:port`; port 0 binds an ephemeral port —
    /// pair it with `addr_file`).
    pub addr: String,
    /// The persistent job queue file.
    pub queue_path: PathBuf,
    /// The shared result cache worker hosts compute through.
    pub cache_path: PathBuf,
    /// Worker host count to spawn and supervise.
    pub workers: usize,
    /// Worker command line prefix; `--tcp <addr> <cache>` is appended.
    pub worker_cmd: Vec<String>,
    /// The single simulation scale this daemon serves (jobs at any
    /// other scale are rejected — scale is cache identity).
    pub scale: SimScale,
    /// Admission control: maximum open jobs before `SHED`.
    pub queue_depth: usize,
    /// Per-connection read/write deadline (slow-loris bound).
    pub io_timeout: Duration,
    /// Heartbeat cadence worker hosts are told to beat at; also the
    /// client `TICK` cadence.
    pub hb_interval: Duration,
    /// Silence after which a worker host is presumed wedged and killed.
    pub hb_timeout: Duration,
    /// Per-cell wall-clock budget per unit of (n + 1).
    pub cell_timeout_base: Duration,
    /// First retry backoff; attempt `k` waits `base × 2^k` + jitter.
    pub retry_base: Duration,
    /// Attempts per cell before its jobs fail (≥ 1).
    pub max_attempts: u32,
    /// Seed of the deterministic backoff jitter.
    pub seed: u64,
    /// What fault spec spawned worker hosts run under.
    pub fault: FaultPolicy,
    /// When set, every spawned worker PID is appended here (the chaos
    /// harness waits for orphans through it).
    pub pid_file: Option<PathBuf>,
    /// When set, the actually-bound address is written here once the
    /// listener is up (ephemeral-port rendezvous for tests/benches).
    pub addr_file: Option<PathBuf>,
}

/// Parse `TLPSIM_SERVE_SCALE` (`warmup,budget,parsec_phase,seed`) —
/// the pure half, testable without touching the environment.
///
/// # Errors
/// A diagnostic naming what is malformed.
pub fn parse_scale(v: &str) -> Result<SimScale, String> {
    let parts: Vec<&str> = v.split(',').map(str::trim).collect();
    let [w, b, p, s] = parts.as_slice() else {
        return Err(format!(
            "TLPSIM_SERVE_SCALE={v:?} needs exactly 4 fields: warmup,budget,parsec_phase,seed"
        ));
    };
    let num = |t: &str, what: &str| -> Result<u64, String> {
        t.parse()
            .map_err(|_| format!("TLPSIM_SERVE_SCALE: bad {what} {t:?}"))
    };
    let scale = SimScale {
        warmup: num(w, "warmup")?,
        budget: num(b, "budget")?,
        parsec_phase: num(p, "parsec phase")?,
        seed: num(s, "seed")?,
    };
    if scale.warmup == 0 || scale.budget == 0 || scale.parsec_phase == 0 {
        return Err(format!(
            "TLPSIM_SERVE_SCALE={v:?}: warmup, budget and parsec_phase must be positive"
        ));
    }
    Ok(scale)
}

/// `TLPSIM_SERVE_SCALE` from the environment (unset ⇒ `None`, meaning
/// [`SimScale::quick`]).
///
/// # Errors
/// See [`parse_scale`].
pub fn scale_from_env() -> Result<Option<SimScale>, String> {
    match std::env::var("TLPSIM_SERVE_SCALE") {
        Err(_) => Ok(None),
        Ok(v) if v.trim().is_empty() => Ok(None),
        Ok(v) => parse_scale(&v).map(Some),
    }
}

/// Parse a positive count (the pure half of `TLPSIM_SERVE_QUEUE_DEPTH`).
///
/// # Errors
/// A diagnostic naming the variable.
pub fn parse_positive(name: &str, v: &str) -> Result<u64, String> {
    v.trim()
        .parse::<u64>()
        .ok()
        .filter(|&x| x > 0)
        .ok_or_else(|| format!("{name}={v:?} is not a positive count"))
}

impl DaemonOptions {
    /// Production defaults for `addr`/`worker_cmd`, with every
    /// `TLPSIM_SERVE_*` environment override applied (shared knobs via
    /// [`ServeOptions::from_env`]; daemon-only: `QUEUE_DEPTH` — open
    /// jobs before shedding, `IO_TIMEOUT_MS` — per-connection
    /// deadline, `SCALE` — the served simulation scale).
    ///
    /// # Errors
    /// A diagnostic naming the malformed variable — the daemon must
    /// not start with a silently ignored policy override (the CLI
    /// turns this into exit 2 at startup).
    pub fn from_env(addr: String, worker_cmd: Vec<String>) -> Result<DaemonOptions, String> {
        let base = ServeOptions::from_env(Vec::new())?;
        let mut o = DaemonOptions {
            addr,
            queue_path: PathBuf::from("tlpsim-daemon.queue"),
            cache_path: PathBuf::from("tlpsim-daemon.cells"),
            workers: base.workers,
            worker_cmd,
            scale: scale_from_env()?.unwrap_or_else(SimScale::quick),
            queue_depth: 16,
            io_timeout: Duration::from_millis(5_000),
            hb_interval: base.hb_interval,
            hb_timeout: base.hb_timeout,
            cell_timeout_base: base.cell_timeout_base,
            retry_base: base.retry_base,
            max_attempts: base.max_attempts,
            seed: base.seed,
            fault: FaultPolicy::Inherit,
            pid_file: None,
            addr_file: None,
        };
        if let Ok(v) = std::env::var("TLPSIM_SERVE_QUEUE_DEPTH") {
            o.queue_depth = parse_positive("TLPSIM_SERVE_QUEUE_DEPTH", &v)? as usize;
        }
        if let Ok(v) = std::env::var("TLPSIM_SERVE_IO_TIMEOUT_MS") {
            o.io_timeout = Duration::from_millis(parse_positive("TLPSIM_SERVE_IO_TIMEOUT_MS", &v)?);
        }
        Ok(o)
    }

    /// The wall-clock deadline of a cell at thread count `n`.
    pub fn cell_deadline(&self, n: usize) -> Duration {
        self.cell_timeout_base * (n as u32 + 1)
    }

    /// The retry backoff ladder (shared with [`crate::serve`]).
    pub fn backoff(&self, n: usize, attempt: u32) -> Duration {
        backoff_for(self.retry_base, self.seed, n, attempt)
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

/// What replaying a queue file recovered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueReplay {
    /// Records replayed.
    pub replayed: usize,
    /// Intact frames that were not valid queue records.
    pub rejected: usize,
    /// Byte offset after torn-tail truncation, if that happened.
    pub truncated_at: Option<u64>,
}

/// The persistent job queue: framed, checksummed, fsync'd appends —
/// the journal discipline of [`crate::journal`] applied to job state.
#[derive(Debug)]
pub struct QueueFile {
    file: Mutex<std::fs::File>,
    lock_path: PathBuf,
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
    ) -> Result<(QueueFile, Vec<QRec>, QueueReplay), SimError> {
        let io = |e: std::io::Error| {
            SimError::InvalidConfig(format!("cannot open queue {}: {e}", path.display()))
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(io)?;
            }
        }
        let lock_path = lock_path_for(path);
        let _lock = FileLock::acquire(lock_path.clone());
        let header = queue_header(scale);

        let mut text = String::new();
        let existed = std::fs::File::open(path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .is_ok();

        let mut report = QueueReplay::default();
        let mut records = Vec::new();
        if existed && !text.is_empty() {
            let Some(first_nl) = text.find('\n') else {
                return Err(SimError::InvalidConfig(format!(
                    "queue {} has no complete header line",
                    path.display()
                )));
            };
            if text[..first_nl] != header {
                return Err(SimError::InvalidConfig(format!(
                    "queue {} belongs to a different daemon (header {:?}, expected {header:?})",
                    path.display(),
                    &text[..first_nl],
                )));
            }
            let mut valid_end = (first_nl + 1) as u64;
            let mut pos = first_nl + 1;
            let mut tail_torn = false;
            while pos < text.len() {
                let Some(nl) = text[pos..].find('\n') else {
                    tail_torn = true;
                    break;
                };
                let line = &text[pos..pos + nl];
                match unframe(line).map(QRec::decode) {
                    Ok(Ok(rec)) => {
                        records.push(rec);
                        report.replayed += 1;
                    }
                    Ok(Err(_)) => report.rejected += 1,
                    Err(_) => {
                        tail_torn = true;
                        break;
                    }
                }
                pos += nl + 1;
                valid_end = pos as u64;
            }
            if tail_torn {
                report.truncated_at = Some(valid_end);
            }
        }

        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)
            .map_err(io)?;
        if !existed || text.is_empty() {
            file.set_len(0).map_err(io)?;
            let mut f = &file;
            f.write_all(format!("{header}\n").as_bytes()).map_err(io)?;
            file.sync_data().map_err(io)?;
        } else if let Some(end) = report.truncated_at {
            file.set_len(end).map_err(io)?;
        }
        use std::io::Seek;
        let mut f = &file;
        f.seek(std::io::SeekFrom::End(0)).map_err(io)?;

        Ok((
            QueueFile {
                file: Mutex::new(file),
                lock_path,
            },
            records,
            report,
        ))
    }

    /// Durably append one record: framed `write_all` + `sync_data`
    /// under the advisory lock. After this returns, the transition
    /// survives SIGKILL — which is why `ACCEPTED` is only sent *after*
    /// this returns for the `QJOB`.
    pub fn append(&self, rec: &QRec) {
        let line = crate::diskcache::frame_payload(&rec.encode());
        let _lock = FileLock::acquire(self.lock_path.clone());
        let mut f = lock_unpoisoned(&self.file);
        use std::io::Seek;
        let _ = f.seek(std::io::SeekFrom::End(0));
        let _ = f.write_all(line.as_bytes());
        let _ = f.sync_data();
    }
}

/// Counters of everything the daemon did, published via `STATUS` as a
/// [`CounterSnapshot`] — the chaos tests assert dedup and
/// compute-once through these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Jobs accepted (QJOB appended).
    pub jobs_submitted: u64,
    /// Jobs that reached `JOBDONE`.
    pub jobs_completed: u64,
    /// Jobs that reached `JOBFAIL`.
    pub jobs_failed: u64,
    /// Jobs cancelled by clients.
    pub jobs_cancelled: u64,
    /// Submissions shed by admission control.
    pub jobs_shed: u64,
    /// Cell tasks that completed with a `DONE` frame.
    pub cells_completed: u64,
    /// Cells a job needed that were already cached, pending or in
    /// flight — work *not* scheduled twice.
    pub cells_deduped: u64,
    /// Failed attempts re-queued with backoff.
    pub retries: u64,
    /// Cells that exhausted their attempt budget.
    pub quarantined: u64,
    /// Cell dispatches to worker hosts (including retries).
    pub dispatched: u64,
    /// Worker hosts spawned beyond the initial pool.
    pub respawns: u64,
    /// Worker hosts killed for heartbeat silence.
    pub hb_kills: u64,
    /// Worker hosts killed for blowing a cell deadline.
    pub timeout_kills: u64,
    /// Worker connections lost (death, conn-drop, partial-frame).
    pub worker_losses: u64,
    /// Frames rejected by checksum/shape/attempt checks.
    pub rejected_frames: u64,
    /// Connections accepted over the daemon's lifetime.
    pub conns_opened: u64,
}

impl DaemonStats {
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
    pub stats: DaemonStats,
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

/// A cell task waiting to be dispatched.
struct PendingTask {
    key: CellKey,
    attempt: u32,
    ready: Instant,
}

/// A cell task in flight on a worker host.
struct ActiveTask {
    key: CellKey,
    attempt: u32,
    deadline: Instant,
}

/// One supervised worker host. The connection id is the *generation*:
/// frames arrive tagged with the connection they came from, and a
/// replacement host gets a new connection, so a dead predecessor's
/// leftovers can never be attributed to it (the attempt check in the
/// `DONE` frame closes the remaining same-connection race).
struct WorkerHost {
    conn: Option<u64>,
    child: Option<Child>,
    pid: u32,
    busy: Option<ActiveTask>,
    last_hb: Instant,
    spawned_at: Instant,
}

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

enum Ev {
    Open(u64, TcpStream),
    Frame(u64, String),
    Bad(u64, FrameError),
    Gone(u64),
}

fn reader_loop(id: u64, mut stream: TcpStream, tx: Sender<Ev>, shutdown: Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    loop {
        while let Some(res) = dec.next() {
            let ev = match res {
                Ok(p) => Ev::Frame(id, p),
                Err(e) => Ev::Bad(id, e),
            };
            if tx.send(ev).is_err() {
                return;
            }
        }
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                let _ = tx.send(Ev::Gone(id));
                return;
            }
            Ok(k) => dec.feed(&buf[..k]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => {
                let _ = tx.send(Ev::Gone(id));
                return;
            }
        }
    }
}

fn spawn_host(opts: &DaemonOptions, connect_addr: &str) -> Result<WorkerHost, SimError> {
    let err = |why: String| SimError::InvalidConfig(format!("daemon: cannot spawn worker: {why}"));
    let (prog, args) = opts
        .worker_cmd
        .split_first()
        .ok_or_else(|| err("empty worker command".into()))?;
    let mut cmd = Command::new(prog);
    cmd.args(args)
        .arg("--tcp")
        .arg(connect_addr)
        .arg(&opts.cache_path)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .env(
            "TLPSIM_SERVE_HB_MS",
            opts.hb_interval.as_millis().to_string(),
        );
    match &opts.fault {
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
    if let Some(pf) = &opts.pid_file {
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

/// Run the daemon until a graceful drain. See the module docs for the
/// architecture; the body is a single supervisor thread owning all
/// state, fed by one mpsc channel from the accept thread and one
/// reader thread per connection — the event-loop idiom of
/// [`crate::serve::serve_sweep`], with connections where slots were.
///
/// # Errors
/// [`SimError::InvalidConfig`] when the listener cannot bind, the
/// queue/cache cannot be opened, or no worker host can ever be
/// spawned. Everything after startup is policy, not error.
pub fn run_daemon(opts: &DaemonOptions) -> Result<DaemonOutcome, SimError> {
    let inv = |why: String| SimError::InvalidConfig(why);

    // Durable state first: replay the queue and the result cache.
    let (queue, qrecs, qreplay) = QueueFile::open(&opts.queue_path, opts.scale)?;
    let mut jobs: BTreeMap<u64, Job> = BTreeMap::new();
    for rec in qrecs {
        match rec {
            QRec::Job { id, token, header } => {
                // Validated at decode time; a second parse cannot fail.
                if let Ok(spec) = SweepSpec::parse_header(&header) {
                    jobs.insert(
                        id,
                        Job {
                            id,
                            token,
                            spec,
                            state: JobState::Open,
                        },
                    );
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
    let mut next_job_id = jobs.keys().next_back().map_or(1, |&id| id + 1);

    // The result cache: replay what worker hosts have already made
    // durable, then drop the handle — the daemon never writes results.
    let mut results: HashMap<CellKey, Cell> = HashMap::new();
    {
        let (cache, records, _report) =
            DiskCache::open(opts.scale, &opts.cache_path).map_err(|e| {
                inv(format!(
                    "cannot open cache {}: {e}",
                    opts.cache_path.display()
                ))
            })?;
        drop(cache);
        for rec in records {
            if let Record::Cell { key, cell } = rec {
                results.insert(key, cell);
            }
        }
    }

    let listener = TcpListener::bind(&opts.addr)
        .map_err(|e| inv(format!("cannot bind {}: {e}", opts.addr)))?;
    let local = listener
        .local_addr()
        .map_err(|e| inv(format!("no local addr: {e}")))?;
    // Workers connect back over loopback when the bind was a wildcard.
    let connect_addr = if local.ip().is_unspecified() {
        format!("127.0.0.1:{}", local.port())
    } else {
        local.to_string()
    };
    if let Some(af) = &opts.addr_file {
        std::fs::write(af, format!("{connect_addr}\n"))
            .map_err(|e| inv(format!("cannot write addr file {}: {e}", af.display())))?;
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

    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx, rx) = channel::<Ev>();

    // Accept thread: blocks in accept(), so a new connection is served
    // at once; the drain sets the shutdown flag and then wakes it with
    // one loopback connect.
    let accept = {
        let tx = tx.clone();
        let shutdown = Arc::clone(&shutdown);
        let io_timeout = opts.io_timeout;
        std::thread::spawn(move || {
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
                        // The write deadline is the slow-loris bound: a
                        // peer that will not drain our frames gets its
                        // connection dropped, not our event loop.
                        let _ = w.set_write_timeout(Some(io_timeout));
                        if tx.send(Ev::Open(id, w)).is_err() {
                            return;
                        }
                        let tx = tx.clone();
                        let shutdown = Arc::clone(&shutdown);
                        std::thread::spawn(move || reader_loop(id, stream, tx, shutdown));
                    }
                    // Out of descriptors and the like: back off briefly.
                    Err(_) => std::thread::sleep(Duration::from_millis(25)),
                }
            }
        })
    };

    // Worker host pool.
    let mut hosts: Vec<WorkerHost> = Vec::new();
    for _ in 0..opts.workers.max(1) {
        hosts.push(spawn_host(opts, &connect_addr)?);
    }

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut pending: Vec<PendingTask> = Vec::new();
    let mut stats = DaemonStats::default();
    let mut draining = false;
    let mut last_tick = Instant::now();

    // Jobs replayed as Open re-enter scheduling (their finished cells
    // come straight from the replayed cache — zero recompute).
    let open_ids: Vec<u64> = jobs
        .values()
        .filter(|j| j.state == JobState::Open)
        .map(|j| j.id)
        .collect();
    for id in open_ids {
        schedule_job(id, &mut jobs, &results, &hosts, &mut pending, &mut stats);
        maybe_finish_job(id, &queue, &mut jobs, &results, &mut conns, &mut stats);
    }

    loop {
        if interrupt::requested() && !draining {
            draining = true;
            eprintln!(
                "tlpsim: daemon draining (queue persists at {})",
                opts.queue_path.display()
            );
            let mut idle_conns = Vec::new();
            for host in &hosts {
                if host.busy.is_some() {
                    // Cooperative stop: the host's interrupt flag makes
                    // the in-flight cell return Interrupted.
                    interrupt::send_signal(host.pid, interrupt::SIGTERM);
                } else if let Some(cid) = host.conn {
                    idle_conns.push(cid);
                }
            }
            for cid in idle_conns {
                send_to(
                    cid,
                    &Request::Exit.encode(),
                    &mut conns,
                    &mut hosts,
                    &mut stats,
                );
            }
        }

        // Dispatch ready tasks to idle connected hosts.
        if !draining {
            let now = Instant::now();
            for hidx in 0..hosts.len() {
                if hosts[hidx].busy.is_some() {
                    continue;
                }
                let Some(cid) = hosts[hidx].conn else {
                    continue;
                };
                let Some(pos) = pending.iter().position(|t| t.ready <= now) else {
                    break;
                };
                let task = pending.swap_remove(pos);
                let last = task.attempt + 1 >= opts.max_attempts;
                let header = spec_for_key(&task.key, opts.scale).header_line();
                let payload = encode_runs(task.key.n, task.attempt, last, &header);
                if send_to(cid, &payload, &mut conns, &mut hosts, &mut stats) {
                    stats.dispatched += 1;
                    hosts[hidx].busy = Some(ActiveTask {
                        deadline: now + opts.cell_deadline(task.key.n),
                        key: task.key,
                        attempt: task.attempt,
                    });
                } else {
                    // Connection died under us: requeue untouched, the
                    // Gone event will reap the host.
                    pending.push(task);
                }
            }
        }

        if draining && !hosts.iter().any(|h| h.busy.is_some()) {
            break;
        }

        match rx.recv_timeout(Duration::from_millis(25)) {
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {}
            Ok(Ev::Open(id, w)) => {
                stats.conns_opened += 1;
                conns.insert(
                    id,
                    Conn {
                        w,
                        role: Role::Pending,
                        opened: Instant::now(),
                    },
                );
            }
            Ok(Ev::Bad(_id, _e)) => {
                // Torn/oversized frame: the decoder already resynced;
                // count it and keep the connection.
                stats.rejected_frames += 1;
            }
            Ok(Ev::Gone(id)) => {
                on_gone(
                    id,
                    opts,
                    &connect_addr,
                    &queue,
                    &mut conns,
                    &mut hosts,
                    &mut jobs,
                    &results,
                    &mut pending,
                    &mut stats,
                    draining,
                );
            }
            Ok(Ev::Frame(id, payload)) => {
                on_frame(
                    id,
                    &payload,
                    opts,
                    &queue,
                    &mut next_job_id,
                    &mut conns,
                    &mut hosts,
                    &mut jobs,
                    &mut results,
                    &mut pending,
                    &mut stats,
                    draining,
                );
            }
        }

        // Periodic: worker health, pending-connection deadlines, TICKs.
        let now = Instant::now();
        for hidx in 0..hosts.len() {
            let host = &mut hosts[hidx];
            if host.conn.is_some() {
                let hb_lost = now.duration_since(host.last_hb) > opts.hb_timeout;
                let timed_out = host.busy.as_ref().is_some_and(|t| now >= t.deadline);
                if !hb_lost && !timed_out {
                    continue;
                }
                if hb_lost {
                    stats.hb_kills += 1;
                } else {
                    stats.timeout_kills += 1;
                }
                reap_host(
                    hidx,
                    opts,
                    &connect_addr,
                    &queue,
                    &mut conns,
                    &mut hosts,
                    &mut jobs,
                    &results,
                    &mut pending,
                    &mut stats,
                    draining,
                );
            } else if let Some(child) = host.child.as_mut() {
                // Spawned but not yet connected: reap a child that died
                // on the doorstep, or one that never phones home.
                let died = matches!(child.try_wait(), Ok(Some(_)));
                let overdue = now.duration_since(host.spawned_at) > opts.hb_timeout * 4;
                if died || overdue {
                    stats.worker_losses += 1;
                    reap_host(
                        hidx,
                        opts,
                        &connect_addr,
                        &queue,
                        &mut conns,
                        &mut hosts,
                        &mut jobs,
                        &results,
                        &mut pending,
                        &mut stats,
                        draining,
                    );
                }
            }
        }
        if now.duration_since(last_tick) >= opts.hb_interval {
            last_tick = now;
            let watchers: Vec<(u64, u64)> = conns
                .iter()
                .filter_map(|(&cid, c)| match c.role {
                    Role::Client { job: Some(jid) } => Some((cid, jid)),
                    _ => None,
                })
                .collect();
            for (cid, jid) in watchers {
                if jobs.get(&jid).is_some_and(|j| j.state == JobState::Open) {
                    send_to(
                        cid,
                        &format!("TICK {jid}"),
                        &mut conns,
                        &mut hosts,
                        &mut stats,
                    );
                }
            }
            // A connection that never identified itself within the i/o
            // deadline is a slow-loris: shed it.
            let idle: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| {
                    matches!(c.role, Role::Pending)
                        && now.duration_since(c.opened) > opts.io_timeout
                })
                .map(|(&cid, _)| cid)
                .collect();
            for cid in idle {
                drop_conn(cid, &mut conns, &mut hosts, &mut stats);
            }
        }
    }

    // Drain shutdown: stop the accept/reader threads, release hosts.
    shutdown.store(true, Ordering::Relaxed);
    let connected: Vec<u64> = hosts.iter().filter_map(|h| h.conn).collect();
    for cid in connected {
        send_to(
            cid,
            &Request::Exit.encode(),
            &mut conns,
            &mut hosts,
            &mut stats,
        );
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    for host in &mut hosts {
        let Some(child) = host.child.as_mut() else {
            continue;
        };
        loop {
            match child.try_wait() {
                Ok(Some(_)) => {
                    host.child = None;
                    break;
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    host.child = None;
                    break;
                }
            }
        }
    }
    // The accept thread sees the flag once accept() returns. If the
    // wake-up connect fails it stays blocked, and process exit ends it.
    let wake = connect_addr
        .parse::<std::net::SocketAddr>()
        .ok()
        .and_then(|a| std::net::TcpStream::connect_timeout(&a, Duration::from_secs(1)).ok());
    if wake.is_some() {
        let _ = accept.join();
    }

    let open_jobs = jobs.values().filter(|j| j.state == JobState::Open).count();
    Ok(DaemonOutcome {
        interrupted: draining,
        stats,
        open_jobs,
    })
}

/// Send one framed payload to a connection; on failure the connection
/// is dropped (write deadline = slow-loris shed). Returns success.
fn send_to(
    cid: u64,
    payload: &str,
    conns: &mut HashMap<u64, Conn>,
    hosts: &mut [WorkerHost],
    stats: &mut DaemonStats,
) -> bool {
    let Some(conn) = conns.get_mut(&cid) else {
        return false;
    };
    if send_frame(&mut conn.w, payload).is_ok() {
        return true;
    }
    drop_conn(cid, conns, hosts, stats);
    false
}

/// Forget a connection. A worker host keeps its slot (the Gone event
/// or health check decides about respawn); a client just disappears —
/// its job keeps running and survives for a later re-`SUBMIT`.
fn drop_conn(
    cid: u64,
    conns: &mut HashMap<u64, Conn>,
    hosts: &mut [WorkerHost],
    stats: &mut DaemonStats,
) {
    let Some(conn) = conns.remove(&cid) else {
        return;
    };
    let _ = conn.w.shutdown(std::net::Shutdown::Both);
    if let Role::Worker(hidx) = conn.role {
        if let Some(host) = hosts.get_mut(hidx) {
            if host.conn == Some(cid) {
                host.conn = None;
                stats.worker_losses += 1;
            }
        }
    }
}

/// Ensure `key` will be computed: no-op (counted as dedup) when it is
/// already cached, pending, or in flight.
fn ensure_task(
    key: &CellKey,
    results: &HashMap<CellKey, Cell>,
    hosts: &[WorkerHost],
    pending: &mut Vec<PendingTask>,
    stats: &mut DaemonStats,
) {
    if results.contains_key(key)
        || pending.iter().any(|t| t.key == *key)
        || hosts
            .iter()
            .any(|h| h.busy.as_ref().is_some_and(|t| t.key == *key))
    {
        stats.cells_deduped += 1;
        return;
    }
    pending.push(PendingTask {
        key: key.clone(),
        attempt: 0,
        ready: Instant::now(),
    });
}

/// Queue every cell of a job (dedup included).
fn schedule_job(
    jid: u64,
    jobs: &mut BTreeMap<u64, Job>,
    results: &HashMap<CellKey, Cell>,
    hosts: &[WorkerHost],
    pending: &mut Vec<PendingTask>,
    stats: &mut DaemonStats,
) {
    let Some(job) = jobs.get(&jid) else { return };
    if job.state != JobState::Open {
        return;
    }
    let keys: Vec<CellKey> = SWEEP_COUNTS.iter().map(|&n| job.spec.cell_key(n)).collect();
    for key in &keys {
        ensure_task(key, results, hosts, pending, stats);
    }
}

/// If every cell of an open job is in `results`, finish it: durable
/// `QDONE` first, then `JOBDONE` to its watchers.
fn maybe_finish_job(
    jid: u64,
    queue: &QueueFile,
    jobs: &mut BTreeMap<u64, Job>,
    results: &HashMap<CellKey, Cell>,
    conns: &mut HashMap<u64, Conn>,
    stats: &mut DaemonStats,
) {
    let Some(job) = jobs.get(&jid) else { return };
    if job.state != JobState::Open {
        return;
    }
    if !SWEEP_COUNTS
        .iter()
        .all(|&n| results.contains_key(&job.spec.cell_key(n)))
    {
        return;
    }
    queue.append(&QRec::Done { id: jid });
    jobs.get_mut(&jid).expect("checked above").state = JobState::Done;
    stats.jobs_completed += 1;
    notify_watchers(jid, &format!("JOBDONE {jid}"), conns);
}

/// Send a terminal frame to every watcher of `jid`. Send failures
/// drop those connections; `hosts` is not needed because watchers are
/// clients by construction.
fn notify_watchers(jid: u64, payload: &str, conns: &mut HashMap<u64, Conn>) {
    let watchers: Vec<u64> = conns
        .iter()
        .filter(|(_, c)| matches!(c.role, Role::Client { job: Some(j) } if j == jid))
        .map(|(&cid, _)| cid)
        .collect();
    for cid in watchers {
        let ok = conns
            .get_mut(&cid)
            .is_some_and(|c| send_frame(&mut c.w, payload).is_ok());
        if !ok {
            if let Some(c) = conns.remove(&cid) {
                let _ = c.w.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

/// One completed cell: record it, stream `RES` to watchers, finish
/// any job it completes.
#[allow(clippy::too_many_arguments)]
fn complete_cell(
    key: CellKey,
    cell: Cell,
    queue: &QueueFile,
    jobs: &mut BTreeMap<u64, Job>,
    results: &mut HashMap<CellKey, Cell>,
    conns: &mut HashMap<u64, Conn>,
    stats: &mut DaemonStats,
) {
    stats.cells_completed += 1;
    let rec = Record::Cell {
        key: key.clone(),
        cell: cell.clone(),
    };
    let payload_tail = rec.encode();
    results.insert(key.clone(), cell);
    let interested: Vec<u64> = jobs
        .values()
        .filter(|j| j.state == JobState::Open && j.spec.cell_key(key.n) == key)
        .map(|j| j.id)
        .collect();
    for jid in &interested {
        notify_watchers(*jid, &format!("RES {jid} {payload_tail}"), conns);
    }
    for jid in interested {
        maybe_finish_job(jid, queue, jobs, results, conns, stats);
    }
}

/// One failed attempt of a cell task: retry with backoff, or — budget
/// exhausted — fail every open job that needs it.
#[allow(clippy::too_many_arguments)]
fn fail_task(
    key: CellKey,
    attempt: u32,
    detail: &str,
    opts: &DaemonOptions,
    queue: &QueueFile,
    jobs: &mut BTreeMap<u64, Job>,
    pending: &mut Vec<PendingTask>,
    conns: &mut HashMap<u64, Conn>,
    stats: &mut DaemonStats,
) {
    let used = attempt + 1;
    if used < opts.max_attempts {
        stats.retries += 1;
        pending.push(PendingTask {
            ready: Instant::now() + opts.backoff(key.n, attempt),
            key,
            attempt: attempt + 1,
        });
        return;
    }
    stats.quarantined += 1;
    let why = format!(
        "cell n={} quarantined after {used} failed attempts (last: {detail})",
        key.n
    );
    let affected: Vec<u64> = jobs
        .values()
        .filter(|j| j.state == JobState::Open && j.spec.cell_key(key.n) == key)
        .map(|j| j.id)
        .collect();
    for jid in affected {
        queue.append(&QRec::Fail {
            id: jid,
            why: why.clone(),
        });
        if let Some(j) = jobs.get_mut(&jid) {
            j.state = JobState::Failed(why.clone());
        }
        stats.jobs_failed += 1;
        notify_watchers(jid, &format!("JOBFAIL {jid} {why}"), conns);
    }
}

/// Kill and forget host `hidx`'s process+connection, fail its
/// in-flight task, respawn when appropriate.
#[allow(clippy::too_many_arguments)]
fn reap_host(
    hidx: usize,
    opts: &DaemonOptions,
    connect_addr: &str,
    queue: &QueueFile,
    conns: &mut HashMap<u64, Conn>,
    hosts: &mut [WorkerHost],
    jobs: &mut BTreeMap<u64, Job>,
    results: &HashMap<CellKey, Cell>,
    pending: &mut Vec<PendingTask>,
    stats: &mut DaemonStats,
    draining: bool,
) {
    let _ = results; // reserved: a future reap could re-check the cache
    if let Some(mut child) = hosts[hidx].child.take() {
        let _ = child.kill();
        let _ = child.wait();
    }
    if let Some(cid) = hosts[hidx].conn.take() {
        if let Some(c) = conns.remove(&cid) {
            let _ = c.w.shutdown(std::net::Shutdown::Both);
        }
        stats.worker_losses += 1;
    }
    if let Some(task) = hosts[hidx].busy.take() {
        if !draining {
            fail_task(
                task.key,
                task.attempt,
                "worker host lost (killed or died mid-cell)",
                opts,
                queue,
                jobs,
                pending,
                conns,
                stats,
            );
        }
    }
    let daemon_spawned = hosts[hidx].pid != 0;
    if daemon_spawned && !draining {
        match spawn_host(opts, connect_addr) {
            Ok(h) => {
                hosts[hidx] = h;
                stats.respawns += 1;
            }
            Err(e) => eprintln!("tlpsim: daemon: respawn failed: {e}"),
        }
    }
}

/// A connection vanished (EOF or socket error).
#[allow(clippy::too_many_arguments)]
fn on_gone(
    cid: u64,
    opts: &DaemonOptions,
    connect_addr: &str,
    queue: &QueueFile,
    conns: &mut HashMap<u64, Conn>,
    hosts: &mut [WorkerHost],
    jobs: &mut BTreeMap<u64, Job>,
    results: &HashMap<CellKey, Cell>,
    pending: &mut Vec<PendingTask>,
    stats: &mut DaemonStats,
    draining: bool,
) {
    let Some(conn) = conns.remove(&cid) else {
        return;
    };
    let _ = conn.w.shutdown(std::net::Shutdown::Both);
    match conn.role {
        Role::Worker(hidx) => {
            if hosts.get(hidx).is_some_and(|h| h.conn == Some(cid)) {
                hosts[hidx].conn = None;
                reap_host(
                    hidx,
                    opts,
                    connect_addr,
                    queue,
                    conns,
                    hosts,
                    jobs,
                    results,
                    pending,
                    stats,
                    draining,
                );
            }
        }
        Role::Client { .. } | Role::Pending => {
            // Clients may vanish freely: the job keeps running, the
            // reconnect re-`SUBMIT` picks the results back up.
        }
    }
}

/// One intact frame from connection `cid`.
#[allow(clippy::too_many_arguments)]
fn on_frame(
    cid: u64,
    payload: &str,
    opts: &DaemonOptions,
    queue: &QueueFile,
    next_job_id: &mut u64,
    conns: &mut HashMap<u64, Conn>,
    hosts: &mut Vec<WorkerHost>,
    jobs: &mut BTreeMap<u64, Job>,
    results: &mut HashMap<CellKey, Cell>,
    pending: &mut Vec<PendingTask>,
    stats: &mut DaemonStats,
    draining: bool,
) {
    let role_is_pending = matches!(conns.get(&cid).map(|c| &c.role), Some(Role::Pending));
    if role_is_pending {
        if payload.starts_with("HB ") {
            // A worker's heartbeat squeezing in around its HELLO:
            // harmless, ignore rather than mistake it for a client verb.
            return;
        }
        if let Some(rest) = payload.strip_prefix("HELLO ") {
            // A worker host introducing itself.
            let mut it = rest.split_whitespace();
            let (Some(pid), Some(ver), None) = (it.next(), it.next(), it.next()) else {
                stats.rejected_frames += 1;
                drop_conn(cid, conns, hosts, stats);
                return;
            };
            let (Ok(pid), Ok(ver)) = (pid.parse::<u32>(), ver.parse::<u32>()) else {
                stats.rejected_frames += 1;
                drop_conn(cid, conns, hosts, stats);
                return;
            };
            if ver != PROTOCOL_VERSION {
                eprintln!("tlpsim: daemon: rejecting worker pid {pid} speaking protocol v{ver}");
                drop_conn(cid, conns, hosts, stats);
                return;
            }
            let hidx = hosts
                .iter()
                .position(|h| h.pid == pid && h.conn.is_none())
                .unwrap_or_else(|| {
                    // An external worker host joining the pool: welcome,
                    // but never respawned (pid 0 marks it foreign).
                    hosts.push(WorkerHost {
                        conn: None,
                        child: None,
                        pid: 0,
                        busy: None,
                        last_hb: Instant::now(),
                        spawned_at: Instant::now(),
                    });
                    hosts.len() - 1
                });
            hosts[hidx].conn = Some(cid);
            hosts[hidx].last_hb = Instant::now();
            if let Some(c) = conns.get_mut(&cid) {
                c.role = Role::Worker(hidx);
            }
            return;
        }
        // Otherwise it must open as a client verb; fall through.
    }

    match conns.get(&cid).map(|c| &c.role) {
        Some(Role::Worker(hidx)) => {
            let hidx = *hidx;
            hosts[hidx].last_hb = Instant::now();
            if payload.starts_with("HB ") {
                return;
            }
            if payload.starts_with("DONE ") {
                let expected = hosts[hidx]
                    .busy
                    .as_ref()
                    .map(|t| (t.key.clone(), t.attempt));
                match decode_done(payload).map(|(a, rec)| (a, Record::decode(rec))) {
                    Some((attempt, Ok(Record::Cell { key, cell })))
                        if expected
                            .as_ref()
                            .is_some_and(|(k, a)| *k == key && *a == attempt) =>
                    {
                        hosts[hidx].busy = None;
                        complete_cell(key, cell, queue, jobs, results, conns, stats);
                    }
                    Some((attempt, Ok(Record::Cell { key, .. })))
                        if expected
                            .as_ref()
                            .is_some_and(|(k, a)| *k == key && attempt < *a) =>
                    {
                        // Stale frame from an earlier attempt (the
                        // serve.rs race, network edition): reject it,
                        // keep waiting for the live attempt.
                        stats.rejected_frames += 1;
                    }
                    _ => {
                        stats.rejected_frames += 1;
                        if let Some(task) = hosts[hidx].busy.take() {
                            if !draining {
                                fail_task(
                                    task.key,
                                    task.attempt,
                                    "worker returned a foreign or malformed cell",
                                    opts,
                                    queue,
                                    jobs,
                                    pending,
                                    conns,
                                    stats,
                                );
                            }
                        }
                    }
                }
                return;
            }
            if let Some((n, attempt, was_interrupted, detail)) = decode_err(payload) {
                let matches_busy = hosts[hidx]
                    .busy
                    .as_ref()
                    .is_some_and(|t| t.key.n == n && t.attempt == attempt);
                if !matches_busy {
                    stats.rejected_frames += 1;
                    return;
                }
                let task = hosts[hidx].busy.take().expect("matched above");
                if was_interrupted && draining {
                    // Cooperative drain: nothing to retry now; the task
                    // re-queues at next startup via the open job.
                } else {
                    fail_task(
                        task.key,
                        task.attempt,
                        &detail,
                        opts,
                        queue,
                        jobs,
                        pending,
                        conns,
                        stats,
                    );
                }
                return;
            }
            stats.rejected_frames += 1;
        }
        Some(Role::Client { .. } | Role::Pending) => {
            client_frame(
                cid,
                payload,
                opts,
                queue,
                next_job_id,
                conns,
                hosts,
                jobs,
                results,
                pending,
                stats,
                draining,
            );
        }
        None => {}
    }
}

/// A client verb (`SUBMIT`/`STATUS`/`CANCEL`) from `cid`.
#[allow(clippy::too_many_arguments)]
fn client_frame(
    cid: u64,
    payload: &str,
    opts: &DaemonOptions,
    queue: &QueueFile,
    next_job_id: &mut u64,
    conns: &mut HashMap<u64, Conn>,
    hosts: &mut [WorkerHost],
    jobs: &mut BTreeMap<u64, Job>,
    results: &mut HashMap<CellKey, Cell>,
    pending: &mut Vec<PendingTask>,
    stats: &mut DaemonStats,
    draining: bool,
) {
    if payload == "STATUS" {
        let open = jobs.values().filter(|j| j.state == JobState::Open).count();
        let json = stats.snapshot(open).to_json();
        if let Some(c) = conns.get_mut(&cid) {
            if matches!(c.role, Role::Pending) {
                c.role = Role::Client { job: None };
            }
        }
        send_to(cid, &format!("STATS {json}"), conns, hosts, stats);
        return;
    }
    if let Some(token) = payload.strip_prefix("CANCEL ") {
        let token = token.trim();
        if let Some(c) = conns.get_mut(&cid) {
            if matches!(c.role, Role::Pending) {
                c.role = Role::Client { job: None };
            }
        }
        let found = jobs.values().find(|j| j.token == token).map(|j| j.id);
        match found {
            Some(jid) if jobs[&jid].state == JobState::Open => {
                queue.append(&QRec::Cancel { id: jid });
                jobs.get_mut(&jid).expect("found above").state = JobState::Cancelled;
                stats.jobs_cancelled += 1;
                notify_watchers(jid, &format!("JOBFAIL {jid} cancelled"), conns);
                send_to(cid, &format!("CANCELLED {jid}"), conns, hosts, stats);
            }
            Some(jid) => {
                send_to(cid, &format!("CANCELLED {jid}"), conns, hosts, stats);
            }
            None => {
                send_to(cid, "NOJOB", conns, hosts, stats);
            }
        }
        return;
    }
    if let Some(rest) = payload.strip_prefix("SUBMIT ") {
        let Some((token, header)) = rest.split_once(' ') else {
            send_to(
                cid,
                "REJECT SUBMIT needs a token and a sweep header",
                conns,
                hosts,
                stats,
            );
            return;
        };
        let spec = match SweepSpec::parse_header(header) {
            Ok(s) => s,
            Err(why) => {
                send_to(cid, &format!("REJECT {why}"), conns, hosts, stats);
                return;
            }
        };
        if spec.scale != opts.scale {
            send_to(
                cid,
                &format!(
                    "REJECT daemon serves scale {},{},{},{} only",
                    opts.scale.warmup, opts.scale.budget, opts.scale.parsec_phase, opts.scale.seed
                ),
                conns,
                hosts,
                stats,
            );
            return;
        }
        if configs::by_name(&spec.design).is_none() {
            send_to(
                cid,
                &format!("REJECT unknown design {}", spec.design),
                conns,
                hosts,
                stats,
            );
            return;
        }
        if draining {
            send_to(cid, "REJECT daemon is draining", conns, hosts, stats);
            return;
        }

        // Idempotent by token: a resubmit attaches to the existing job.
        let existing = jobs.values().find(|j| j.token == token).map(|j| j.id);
        let jid = match existing {
            Some(jid) => jid,
            None => {
                let open = jobs.values().filter(|j| j.state == JobState::Open).count();
                if open >= opts.queue_depth {
                    stats.jobs_shed += 1;
                    send_to(cid, &format!("SHED {open}"), conns, hosts, stats);
                    return;
                }
                let jid = *next_job_id;
                *next_job_id += 1;
                // Durable before visible: QJOB hits the disk (fsync)
                // before the client ever sees ACCEPTED.
                queue.append(&QRec::Job {
                    id: jid,
                    token: token.to_string(),
                    header: spec.header_line(),
                });
                jobs.insert(
                    jid,
                    Job {
                        id: jid,
                        token: token.to_string(),
                        spec: spec.clone(),
                        state: JobState::Open,
                    },
                );
                stats.jobs_submitted += 1;
                schedule_job(jid, jobs, results, hosts, pending, stats);
                jid
            }
        };
        if let Some(c) = conns.get_mut(&cid) {
            c.role = Role::Client { job: Some(jid) };
        }
        if !send_to(cid, &format!("ACCEPTED {jid}"), conns, hosts, stats) {
            return;
        }
        // Replay what is already known: completed cells, then the
        // terminal state if the job is already settled.
        let job_spec = jobs[&jid].spec.clone();
        for &n in SWEEP_COUNTS.iter() {
            let key = job_spec.cell_key(n);
            if let Some(cell) = results.get(&key) {
                let rec = Record::Cell {
                    key,
                    cell: cell.clone(),
                };
                if !send_to(
                    cid,
                    &format!("RES {jid} {}", rec.encode()),
                    conns,
                    hosts,
                    stats,
                ) {
                    return;
                }
            }
        }
        maybe_finish_job(jid, queue, jobs, results, conns, stats);
        match &jobs[&jid].state {
            JobState::Open => {}
            JobState::Done => {
                send_to(cid, &format!("JOBDONE {jid}"), conns, hosts, stats);
            }
            JobState::Failed(why) => {
                let msg = format!("JOBFAIL {jid} {why}");
                send_to(cid, &msg, conns, hosts, stats);
            }
            JobState::Cancelled => {
                send_to(
                    cid,
                    &format!("JOBFAIL {jid} cancelled"),
                    conns,
                    hosts,
                    stats,
                );
            }
        }
        return;
    }
    stats.rejected_frames += 1;
    drop_conn(cid, conns, hosts, stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::WorkloadKind;
    use crate::mode::SimMode;

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
    fn positive_counts_parse_strictly() {
        assert_eq!(parse_positive("X", "16").unwrap(), 16);
        for bad in ["0", "-1", "x", ""] {
            let e = parse_positive("TLPSIM_SERVE_QUEUE_DEPTH", bad).expect_err(bad);
            assert!(e.contains("TLPSIM_SERVE_QUEUE_DEPTH"), "{e}");
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
}
