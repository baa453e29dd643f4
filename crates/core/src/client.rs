//! The daemon's client side: `tlpsim submit` / `status` / `cancel`.
//!
//! [`submit`] is the interesting half. It speaks the client protocol
//! of [`crate::daemon`] and is built to survive everything the chaos
//! harness throws at the wire:
//!
//! * **reconnect with capped exponential backoff** — the same
//!   [`backoff_for`] ladder the daemon uses for cell retries, seeded
//!   so runs are reproducible. The ladder spans the daemon's own
//!   kill-and-restart window: a client submitted before a SIGKILL
//!   keeps retrying until the restarted daemon answers;
//! * **idempotent resubmission** — every reconnect blindly re-sends
//!   `SUBMIT <token> <header>`; the daemon attaches it to the existing
//!   job (or the replayed one, after a restart) and replays every cell
//!   already completed. Cells are collected into a [`BTreeMap`] keyed
//!   by thread count, so duplicates from replay overwrite with
//!   identical values and the final table is byte-identical no matter
//!   how many times the connection bounced;
//! * **heartbeat-loss detection** — while waiting for results the read
//!   deadline is a multiple of the daemon's `TICK` cadence; a healthy
//!   daemon always has traffic for us, so a silent socket means the
//!   peer (or the path) is gone and we reconnect instead of hanging;
//! * **typed shed** — `SHED <depth>` becomes
//!   [`SimError::Overloaded`], and is *not* retried: the daemon is up,
//!   just saturated, and blind retry is how accept loops die.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::ctx::Cell;
use crate::diskcache::Record;
use crate::error::SimError;
use crate::interrupt;
use crate::journal::SweepSpec;
use crate::net::{FrameError, FramedConn};
use crate::serve::backoff_for;

/// Client policy knobs.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Job idempotence token; [`auto_token`] derives one from the spec
    /// so identical sweeps from different clients share a job.
    pub token: String,
    /// Connect timeout and streaming read deadline. While a job is
    /// open the daemon TICKs every heartbeat interval, so a socket
    /// silent for this long is treated as a lost peer.
    pub io_timeout: Duration,
    /// First reconnect backoff; attempt `k` waits `base × 2^k` + jitter.
    pub retry_base: Duration,
    /// Reconnect attempts before giving up on the daemon entirely.
    pub max_reconnects: u32,
}

impl ClientOptions {
    /// Defaults for `addr`, with the token derived from `spec`. The
    /// ladder (250ms base, 10 attempts, capped at 2^6) sums to over a
    /// minute of patience — wider than the daemon restart window the
    /// chaos harness exercises.
    pub fn new(addr: &str, spec: &SweepSpec) -> ClientOptions {
        ClientOptions {
            addr: addr.to_string(),
            token: auto_token(spec),
            io_timeout: Duration::from_millis(5_000),
            retry_base: Duration::from_millis(250),
            max_reconnects: 10,
        }
    }
}

/// The canonical idempotence token of a sweep: the fnv1a64 of its
/// header line. Two clients asking for the same sweep thus share one
/// job (and one set of cells) without coordinating.
pub fn auto_token(spec: &SweepSpec) -> String {
    format!(
        "t{:016x}",
        crate::diskcache::fnv1a64(spec.header_line().as_bytes())
    )
}

/// What a completed submission returns: every cell of the sweep,
/// keyed by thread count, in ascending order.
pub type SweepCells = BTreeMap<usize, Cell>;

fn reconnect_pause(opts: &ClientOptions, attempt: u32) -> Duration {
    backoff_for(opts.retry_base, 0, attempt)
}

/// Submit the sweep and (when `wait`) stream results until the job
/// settles. Reconnects through connection loss and daemon restarts;
/// see the module docs for the guarantees.
///
/// With `wait == false`, returns as soon as the daemon has durably
/// accepted the job (the map holds whatever cells were already
/// cached); re-submitting later with the same token picks it back up.
///
/// # Errors
/// * [`SimError::Overloaded`] — shed by admission control (not retried);
/// * [`SimError::InvalidConfig`] — the daemon rejected the job, the
///   job failed server-side, or the daemon never became reachable;
/// * [`SimError::Interrupted`] — SIGINT/SIGTERM while waiting (the
///   job keeps running server-side; resubmit to reattach).
pub fn submit(spec: &SweepSpec, opts: &ClientOptions, wait: bool) -> Result<SweepCells, SimError> {
    let mut cells: SweepCells = BTreeMap::new();
    let mut reconnects: u32 = 0;

    'reconnect: loop {
        if interrupt::requested() {
            return Err(SimError::Interrupted);
        }
        let mut conn = match FramedConn::connect(&opts.addr, opts.io_timeout) {
            Ok(c) => c,
            Err(e) => {
                if reconnects >= opts.max_reconnects {
                    return Err(SimError::InvalidConfig(format!(
                        "daemon at {} unreachable after {reconnects} reconnects: {e}",
                        opts.addr
                    )));
                }
                std::thread::sleep(reconnect_pause(opts, reconnects));
                reconnects += 1;
                continue 'reconnect;
            }
        };
        if conn
            .send(&format!("SUBMIT {} {}", opts.token, spec.header_line()))
            .is_err()
        {
            reconnects += 1;
            if reconnects > opts.max_reconnects {
                return Err(SimError::InvalidConfig(format!(
                    "daemon at {} lost the submission {reconnects} times",
                    opts.addr
                )));
            }
            std::thread::sleep(reconnect_pause(opts, reconnects - 1));
            continue 'reconnect;
        }

        loop {
            if interrupt::requested() {
                return Err(SimError::Interrupted);
            }
            let payload = match conn.recv() {
                Ok(p) => p,
                Err(FrameError::Corrupt(_) | FrameError::Oversized { .. }) => {
                    // The decoder resynced; the daemon will TICK again.
                    continue;
                }
                Err(FrameError::TimedOut | FrameError::Closed | FrameError::Io(_)) => {
                    // Heartbeat loss / dead peer: fall back to the ladder.
                    if reconnects >= opts.max_reconnects {
                        return Err(SimError::InvalidConfig(format!(
                            "daemon at {} went silent and stayed down ({reconnects} reconnects)",
                            opts.addr
                        )));
                    }
                    std::thread::sleep(reconnect_pause(opts, reconnects));
                    reconnects += 1;
                    continue 'reconnect;
                }
            };
            // Any intact traffic proves the daemon lives: reset the ladder.
            reconnects = 0;

            if let Some(depth) = payload.strip_prefix("SHED ") {
                return Err(SimError::Overloaded {
                    depth: depth.trim().parse().unwrap_or(0),
                });
            }
            if let Some(why) = payload.strip_prefix("REJECT ") {
                return Err(SimError::InvalidConfig(format!(
                    "daemon rejected the job: {why}"
                )));
            }
            if payload.starts_with("ACCEPTED ") {
                continue;
            }
            if payload.starts_with("TICK ") {
                if !wait {
                    // The replay burst precedes the first TICK, and
                    // terminal frames were handled above — detaching
                    // here never loses a settled outcome.
                    return Ok(cells);
                }
                continue;
            }
            if let Some(rest) = payload.strip_prefix("RES ") {
                let Some((_jid, rec)) = rest.split_once(' ') else {
                    continue;
                };
                if let Ok(Record::Cell { key, cell }) = Record::decode(rec) {
                    // Only keep cells that are *ours*: key equality
                    // against the spec guards against daemon bugs and
                    // wire corruption that survived the checksum.
                    if key == spec.cell_key(key.n) {
                        cells.insert(key.n, cell);
                    }
                }
                continue;
            }
            if payload.starts_with("JOBDONE ") {
                return Ok(cells);
            }
            if let Some(rest) = payload.strip_prefix("JOBFAIL ") {
                let why = rest.split_once(' ').map_or("job failed", |(_, w)| w);
                return Err(SimError::InvalidConfig(format!("daemon job failed: {why}")));
            }
        }
    }
}

/// Fetch the daemon's counter snapshot (the `STATS` JSON, verbatim).
///
/// # Errors
/// [`SimError::InvalidConfig`] when the daemon is unreachable or
/// answers nonsense.
pub fn status(addr: &str, io_timeout: Duration) -> Result<String, SimError> {
    let fail = |why: String| SimError::InvalidConfig(format!("status from {addr}: {why}"));
    let mut conn = FramedConn::connect(addr, io_timeout).map_err(|e| fail(e.to_string()))?;
    conn.send("STATUS").map_err(|e| fail(e.to_string()))?;
    loop {
        match conn.recv() {
            Ok(p) => {
                if let Some(json) = p.strip_prefix("STATS ") {
                    return Ok(json.to_string());
                }
                // TICKs for other roles cannot happen pre-SUBMIT, but
                // tolerate interleaved frames anyway.
            }
            Err(e) => return Err(fail(e.to_string())),
        }
    }
}

/// Cancel the job holding `token`. Returns `Ok(Some(id))` when a job
/// was found (already-settled jobs report their id too), `Ok(None)`
/// when the daemon never heard of the token.
///
/// # Errors
/// [`SimError::InvalidConfig`] when the daemon is unreachable.
pub fn cancel(addr: &str, token: &str, io_timeout: Duration) -> Result<Option<u64>, SimError> {
    let fail = |why: String| SimError::InvalidConfig(format!("cancel at {addr}: {why}"));
    let mut conn = FramedConn::connect(addr, io_timeout).map_err(|e| fail(e.to_string()))?;
    conn.send(&format!("CANCEL {token}"))
        .map_err(|e| fail(e.to_string()))?;
    loop {
        match conn.recv() {
            Ok(p) => {
                if let Some(id) = p.strip_prefix("CANCELLED ") {
                    return Ok(Some(id.trim().parse().unwrap_or(0)));
                }
                if p == "NOJOB" {
                    return Ok(None);
                }
            }
            Err(e) => return Err(fail(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::WorkloadKind;
    use crate::mode::SimMode;
    use crate::SimScale;

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
    fn auto_token_is_stable_and_spec_sensitive() {
        let a = auto_token(&spec());
        assert_eq!(a, auto_token(&spec()), "same spec, same token");
        assert!(a.starts_with('t') && a.len() == 17, "{a}");
        let mut other = spec();
        other.smt = false;
        assert_ne!(a, auto_token(&other), "different spec, different token");
        assert!(!a.contains(' '), "tokens ride in space-split frames");
    }

    #[test]
    fn reconnect_ladder_is_capped_and_grows() {
        let opts = ClientOptions::new("127.0.0.1:1", &spec());
        let p0 = reconnect_pause(&opts, 0);
        let p3 = reconnect_pause(&opts, 3);
        let p6 = reconnect_pause(&opts, 6);
        let p9 = reconnect_pause(&opts, 9);
        assert!(p0 < p3 && p3 < p6, "{p0:?} {p3:?} {p6:?}");
        // Past the cap exponent the ladder flattens (jitter aside).
        assert!(p9 <= p6 + opts.retry_base, "{p9:?} vs {p6:?}");
    }

    #[test]
    fn unreachable_daemon_fails_after_the_ladder() {
        // Port 1 on loopback refuses instantly; keep the ladder short.
        let mut opts = ClientOptions::new("127.0.0.1:1", &spec());
        opts.retry_base = Duration::from_millis(1);
        opts.max_reconnects = 2;
        opts.io_timeout = Duration::from_millis(200);
        let err = submit(&spec(), &opts, true).expect_err("no daemon there");
        let s = err.to_string();
        assert!(s.contains("unreachable"), "{s}");
    }
}
