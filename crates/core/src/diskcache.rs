//! The hardened on-disk result cache (DESIGN.md §7).
//!
//! Separate bench processes share simulation work through one
//! append-only text file (`TLPSIM_CACHE`). The seed implementation
//! trusted that file blindly; this module makes it safe to share:
//!
//! * **versioned header** — `TLPSIM-CACHE v3 <warmup> <budget>
//!   <parsec_phase> <seed>`; any mismatch (old version, different
//!   scale) truncates and starts fresh;
//! * **framed records** — every record line is
//!   `<fnv1a64-hex> <payload-len> <payload>`, so torn writes and bit
//!   rot are detected by length + checksum, never replayed;
//! * **corrupt-tail recovery** — replay stops at the first bad frame,
//!   the file is truncated back to the last good record, and the
//!   process continues (the lost cells are simply re-simulated);
//! * **strict payload decoding** — a record whose key fields do not
//!   parse is rejected (counted in the [`LoadReport`]) instead of being
//!   replayed under a bogus-but-valid key;
//! * **advisory locking** — a `<path>.lock` file serializes the
//!   open/replay/truncate sequence and individual appends across
//!   concurrent bench processes, so partial records never interleave.
//!
//! Round-trip guarantee: [`Record::encode`] output always decodes via
//! [`Record::decode`] to an equal value (property-tested in
//! `crates/core/tests/resilience.rs`).

use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use tlpsim_power::CoreKind;

use crate::ctx::{Cell, CellKey, ParsecKey, ParsecOutcome, WorkloadKind};
use crate::mode::SimMode;
use crate::SimScale;

/// On-disk format version; bump on any layout change. v3 added the
/// simulation-mode token to CELL records, so sampled and exact cells
/// can never be confused (a v2 cache simply starts fresh).
pub const CACHE_VERSION: u32 = 3;

/// FNV-1a 64-bit checksum (tiny, dependency-free, good enough to catch
/// torn writes and corruption in a line-oriented cache). The shared
/// implementation lives in `tlpsim-mem` alongside the [`FastHasher`]
/// used for hot-path hash maps; re-exported here so existing callers
/// and the on-disk format stay unchanged.
///
/// [`FastHasher`]: tlpsim_mem::FastHasher
pub use tlpsim_mem::fnv1a64;

/// One replayable cache record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Isolated-benchmark IPC profile.
    Iso {
        /// Benchmark index.
        bench: usize,
        /// Core kind the benchmark ran on.
        kind: CoreKind,
        /// Measured isolated IPC.
        ipc: f64,
    },
    /// A multi-program design-space cell.
    Cell {
        /// The cell's cache key.
        key: CellKey,
        /// Per-workload metrics.
        cell: Cell,
    },
    /// A PARSEC-like application run.
    Parsec {
        /// The run's cache key.
        key: ParsecKey,
        /// Cycle counts and active-thread histogram.
        out: ParsecOutcome,
    },
}

impl Record {
    /// Serialize to the payload text (without framing). `encode` output
    /// is guaranteed to [`decode`](Self::decode) back to an equal value.
    pub fn encode(&self) -> String {
        let nums = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        match self {
            Record::Iso { bench, kind, ipc } => {
                let k = match kind {
                    CoreKind::Big => "B",
                    CoreKind::Medium => "M",
                    CoreKind::Small => "S",
                };
                format!("ISO {bench} {k} {ipc}")
            }
            Record::Cell { key, cell } => format!(
                "CELL {} {} {} {} {} {} {} {} {}",
                key.design,
                key.n,
                if key.kind == WorkloadKind::Homogeneous {
                    "H"
                } else {
                    "X"
                },
                u8::from(key.smt),
                key.bus_dgbps,
                key.mode.token(),
                nums(&cell.stp),
                nums(&cell.antt),
                nums(&cell.power_w),
            ),
            Record::Parsec { key, out } => {
                let hist = out
                    .histogram
                    .iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(" ");
                format!(
                    "PARSEC {} {} {} {} {} {} {} {}",
                    key.design,
                    key.app,
                    key.n,
                    u8::from(key.smt),
                    key.bus_dgbps,
                    out.roi_cycles,
                    out.total_cycles,
                    hist,
                )
            }
        }
    }

    /// Strictly parse a payload back into a record. Every field must
    /// parse; malformed keys are rejected rather than defaulted (the
    /// seed's `unwrap_or(0)` turned garbage into valid-looking keys).
    pub fn decode(payload: &str) -> Result<Record, String> {
        let mut it = payload.split_whitespace();
        match it.next() {
            Some("ISO") => {
                let (Some(b), Some(k), Some(v), None) =
                    (it.next(), it.next(), it.next(), it.next())
                else {
                    return Err("ISO needs exactly 3 fields".into());
                };
                let bench = b.parse().map_err(|_| format!("bad bench index {b:?}"))?;
                let kind = match k {
                    "B" => CoreKind::Big,
                    "M" => CoreKind::Medium,
                    "S" => CoreKind::Small,
                    _ => return Err(format!("bad core kind {k:?}")),
                };
                let ipc: f64 = v.parse().map_err(|_| format!("bad ipc {v:?}"))?;
                if !ipc.is_finite() || ipc <= 0.0 {
                    return Err(format!("non-positive ipc {ipc}"));
                }
                Ok(Record::Iso { bench, kind, ipc })
            }
            Some("CELL") => {
                let (Some(d), Some(n), Some(k), Some(smt), Some(bus), Some(mode)) = (
                    it.next(),
                    it.next(),
                    it.next(),
                    it.next(),
                    it.next(),
                    it.next(),
                ) else {
                    return Err("CELL header truncated".into());
                };
                let n = n.parse().map_err(|_| format!("bad thread count {n:?}"))?;
                let kind = match k {
                    "H" => WorkloadKind::Homogeneous,
                    "X" => WorkloadKind::Heterogeneous,
                    _ => return Err(format!("bad workload kind {k:?}")),
                };
                let smt = match smt {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad smt flag {smt:?}")),
                };
                let bus_dgbps = bus.parse().map_err(|_| format!("bad bus field {bus:?}"))?;
                let mode = SimMode::parse_token(mode)?;
                let mut vals = Vec::with_capacity(36);
                for tok in it {
                    let v: f64 = tok.parse().map_err(|_| format!("bad value {tok:?}"))?;
                    vals.push(v);
                }
                if vals.len() != 36 {
                    return Err(format!("CELL carries {} values, want 36", vals.len()));
                }
                Ok(Record::Cell {
                    key: CellKey {
                        design: d.to_string(),
                        n,
                        kind,
                        smt,
                        bus_dgbps,
                        mode,
                    },
                    cell: Cell {
                        stp: vals[0..12].to_vec(),
                        antt: vals[12..24].to_vec(),
                        power_w: vals[24..36].to_vec(),
                    },
                })
            }
            Some("PARSEC") => {
                let (Some(d), Some(a), Some(n), Some(smt), Some(bus), Some(roi), Some(total)) = (
                    it.next(),
                    it.next(),
                    it.next(),
                    it.next(),
                    it.next(),
                    it.next(),
                    it.next(),
                ) else {
                    return Err("PARSEC header truncated".into());
                };
                let app = a.parse().map_err(|_| format!("bad app index {a:?}"))?;
                let n = n.parse().map_err(|_| format!("bad thread count {n:?}"))?;
                let smt = match smt {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad smt flag {smt:?}")),
                };
                let bus_dgbps = bus.parse().map_err(|_| format!("bad bus field {bus:?}"))?;
                let roi_cycles = roi.parse().map_err(|_| format!("bad roi cycles {roi:?}"))?;
                let total_cycles = total
                    .parse()
                    .map_err(|_| format!("bad total cycles {total:?}"))?;
                let mut histogram = Vec::new();
                for tok in it {
                    let v: u64 = tok.parse().map_err(|_| format!("bad histogram {tok:?}"))?;
                    histogram.push(v);
                }
                if histogram.is_empty() {
                    return Err("PARSEC histogram is empty".into());
                }
                Ok(Record::Parsec {
                    key: ParsecKey {
                        design: d.to_string(),
                        app,
                        n,
                        smt,
                        bus_dgbps,
                    },
                    out: ParsecOutcome {
                        roi_cycles,
                        total_cycles,
                        histogram,
                    },
                })
            }
            Some(tag) => Err(format!("unknown record tag {tag:?}")),
            None => Err("empty payload".into()),
        }
    }

    /// The full framed line (checksum, length, payload), newline
    /// included: the unit of torn-write detection.
    pub fn frame(&self) -> String {
        frame_payload(&self.encode())
    }
}

/// Frame an arbitrary payload as one checksummed line (newline
/// included): `<fnv1a64-hex> <len> <payload>\n`. This framing is shared
/// by the disk cache, the sweep journal, and the `tlpsim serve`
/// supervisor↔worker and daemon↔client protocols — one torn-write
/// detector for all three. Inverse of [`unframe`].
pub fn frame_payload(payload: &str) -> String {
    format!(
        "{:016x} {} {payload}\n",
        fnv1a64(payload.as_bytes()),
        payload.len()
    )
}

/// Parse one framed line (without trailing newline) back into its
/// payload, verifying length and checksum.
pub fn unframe(line: &str) -> Result<&str, String> {
    let (sum, rest) = line.split_once(' ').ok_or("missing checksum field")?;
    let (len, payload) = rest.split_once(' ').ok_or("missing length field")?;
    let sum = u64::from_str_radix(sum, 16).map_err(|_| format!("bad checksum {sum:?}"))?;
    let len: usize = len.parse().map_err(|_| format!("bad length {len:?}"))?;
    if payload.len() != len {
        return Err(format!(
            "length mismatch: frame says {len}, got {}",
            payload.len()
        ));
    }
    let actual = fnv1a64(payload.as_bytes());
    if actual != sum {
        return Err(format!(
            "checksum mismatch: frame says {sum:016x}, got {actual:016x}"
        ));
    }
    Ok(payload)
}

/// What happened while replaying an existing cache file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Records replayed successfully.
    pub replayed: usize,
    /// Frames whose checksum passed but whose payload was semantically
    /// invalid (skipped, kept on disk).
    pub rejected: usize,
    /// Byte offset the file was truncated to after a corrupt or torn
    /// tail, if that happened.
    pub truncated_at: Option<u64>,
    /// The header did not match (missing, wrong version, or different
    /// scale) and the file was started fresh.
    pub fresh: bool,
}

/// RAII advisory lock: a `create_new`-created lock file next to the
/// cache. Lost locks (crashed holder) are stolen after
/// [`STALE_LOCK`]; if the lock cannot be acquired within
/// [`LOCK_TIMEOUT`] we proceed unlocked — it is advisory, and a wedged
/// peer must not deadlock every bench process on the host. Shared with
/// the sweep journal (`crate::journal`), which appends under the same
/// discipline.
pub(crate) struct FileLock {
    path: Option<PathBuf>,
}

/// Age after which a lock file is considered abandoned.
const STALE_LOCK: Duration = Duration::from_secs(30);
/// How long to wait for a peer before proceeding unlocked.
const LOCK_TIMEOUT: Duration = Duration::from_secs(2);

impl FileLock {
    pub(crate) fn acquire(path: PathBuf) -> FileLock {
        let deadline = std::time::Instant::now() + LOCK_TIMEOUT;
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    return FileLock { path: Some(path) };
                }
                Err(_) => {
                    // Reclaim locks whose recorded holder is dead — a
                    // SIGKILLed worker never runs its Drop, and waiting
                    // out STALE_LOCK for every append would crawl.
                    if let Some(pid) = holder_pid(&path) {
                        if !process_alive(pid) {
                            eprintln!(
                                "tlpsim: reclaiming lock {} held by dead process {pid}",
                                path.display()
                            );
                            let _ = std::fs::remove_file(&path);
                            continue;
                        }
                    }
                    // Fallback: steal locks abandoned long enough ago
                    // (garbage content, or a recycled PID still alive).
                    if let Ok(meta) = std::fs::metadata(&path) {
                        let stale = meta
                            .modified()
                            .ok()
                            .and_then(|m| m.elapsed().ok())
                            .is_some_and(|age| age > STALE_LOCK);
                        if stale {
                            let _ = std::fs::remove_file(&path);
                            continue;
                        }
                    }
                    if std::time::Instant::now() >= deadline {
                        return FileLock { path: None };
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }
}

/// The PID recorded in a lock file, if its content parses as one. Our
/// own PID reads as "held by a live process" just like any peer's.
fn holder_pid(path: &Path) -> Option<u32> {
    std::fs::read_to_string(path)
        .ok()?
        .trim()
        .parse::<u32>()
        .ok()
}

/// Is a process with this PID still running? Uses `kill(pid, 0)`: 0 or
/// EPERM means alive, ESRCH means gone. Off Unix we cannot tell, so we
/// answer "alive" and leave staleness to the mtime heuristic.
#[cfg(unix)]
fn process_alive(pid: u32) -> bool {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let Ok(pid) = i32::try_from(pid) else {
        return true;
    };
    if unsafe { kill(pid, 0) } == 0 {
        return true;
    }
    const ESRCH: i32 = 3;
    std::io::Error::last_os_error().raw_os_error() != Some(ESRCH)
}

#[cfg(not(unix))]
fn process_alive(_pid: u32) -> bool {
    true
}

impl Drop for FileLock {
    fn drop(&mut self) {
        if let Some(p) = self.path.take() {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// The cross-process result cache file.
#[derive(Debug)]
pub struct DiskCache {
    file: Mutex<std::fs::File>,
    lock_path: PathBuf,
}

fn header_line(scale: SimScale) -> String {
    format!(
        "TLPSIM-CACHE v{CACHE_VERSION} {} {} {} {}",
        scale.warmup, scale.budget, scale.parsec_phase, scale.seed
    )
}

impl DiskCache {
    /// Open (or create) the cache at `path`, replaying every intact
    /// record. A corrupt or torn tail is truncated away; a header
    /// mismatch starts the file fresh. Returns the cache handle, the
    /// replayable records and a report of what was recovered.
    ///
    /// # Errors
    /// Only on unrecoverable I/O failure (e.g. the directory cannot be
    /// created or the file cannot be opened for writing).
    pub fn open(
        scale: SimScale,
        path: &Path,
    ) -> std::io::Result<(DiskCache, Vec<Record>, LoadReport)> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let lock_path = lock_path_for(path);
        let _lock = FileLock::acquire(lock_path.clone());

        let mut report = LoadReport::default();
        let mut records = Vec::new();
        let header = header_line(scale);

        let mut text = String::new();
        if let Ok(mut f) = std::fs::File::open(path) {
            // Non-UTF8 content is unrecoverable corruption: start fresh.
            if f.read_to_string(&mut text).is_err() {
                text.clear();
            }
        }

        // `valid_end` tracks the byte offset after the last good line.
        let mut valid_end: u64 = 0;
        let mut fresh = true;
        if let Some(first_nl) = text.find('\n') {
            if text[..first_nl] == header {
                fresh = false;
                valid_end = (first_nl + 1) as u64;
                let mut pos = first_nl + 1;
                let mut tail_corrupt = false;
                while pos < text.len() {
                    let Some(nl) = text[pos..].find('\n') else {
                        // Torn final write: no newline terminator.
                        tail_corrupt = true;
                        break;
                    };
                    let line = &text[pos..pos + nl];
                    match unframe(line) {
                        Ok(payload) => match Record::decode(payload) {
                            Ok(rec) => {
                                records.push(rec);
                                report.replayed += 1;
                            }
                            Err(_) => report.rejected += 1,
                        },
                        Err(_) => {
                            tail_corrupt = true;
                            break;
                        }
                    }
                    pos += nl + 1;
                    valid_end = pos as u64;
                }
                if tail_corrupt {
                    report.truncated_at = Some(valid_end);
                }
            }
        }
        report.fresh = fresh;

        // truncate(false): existing content is kept — fresh starts and
        // tail repairs truncate explicitly via set_len below.
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        if fresh {
            file.set_len(0)?;
            let mut f = &file;
            f.write_all(format!("{header}\n").as_bytes())?;
        } else if report.truncated_at.is_some() {
            file.set_len(valid_end)?;
        }
        // Position at the end for appends (O_APPEND semantics are
        // emulated by seeking under the advisory lock).
        let mut f = &file;
        f.seek(std::io::SeekFrom::End(0))?;

        Ok((
            DiskCache {
                file: Mutex::new(file),
                lock_path,
            },
            records,
            report,
        ))
    }

    /// Append one record as a framed line. Takes the advisory lock so
    /// concurrent bench processes never interleave partial records, and
    /// writes the whole line with a single `write_all`.
    pub fn append(&self, rec: &Record) {
        let line = rec.frame();
        let _lock = FileLock::acquire(self.lock_path.clone());
        let mut f = crate::executor::lock_unpoisoned(&self.file);
        // Re-seek: another process may have appended since our last write.
        let _ = f.seek(std::io::SeekFrom::End(0));
        let _ = f.write_all(line.as_bytes());
        let _ = f.flush();
    }
}

/// The advisory lock path for a cache file.
pub fn lock_path_for(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".lock");
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell() -> Record {
        Record::Cell {
            key: CellKey {
                design: "4B".into(),
                n: 7,
                kind: WorkloadKind::Heterogeneous,
                smt: true,
                bus_dgbps: 160,
                mode: SimMode::sampled_default(),
            },
            cell: Cell {
                stp: (0..12).map(|i| 0.5 + i as f64 * 0.25).collect(),
                antt: (0..12).map(|i| 1.0 + i as f64 * 0.125).collect(),
                power_w: (0..12).map(|i| 10.0 + i as f64).collect(),
            },
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn frame_and_unframe_round_trip() {
        let rec = sample_cell();
        let line = rec.frame();
        let payload = unframe(line.trim_end_matches('\n')).expect("frame is valid");
        assert_eq!(Record::decode(payload).expect("decodes"), rec);
    }

    #[test]
    fn unframe_rejects_flipped_bits() {
        let line = sample_cell().frame();
        let line = line.trim_end_matches('\n');
        // Flip one character somewhere in the payload.
        let mut bad: Vec<u8> = line.bytes().collect();
        let last = bad.len() - 1;
        bad[last] = if bad[last] == b'0' { b'1' } else { b'0' };
        let bad = String::from_utf8(bad).unwrap();
        assert!(unframe(&bad).is_err());
    }

    #[test]
    fn decode_rejects_malformed_keys() {
        // The seed's unwrap_or(0)/unwrap_or(80) would have accepted these.
        let garbled_n =
            "CELL 4B not-a-number H 1 80 exact ".to_string() + &vec!["1.0"; 36].join(" ");
        assert!(Record::decode(&garbled_n).is_err());
        let garbled_bus = "CELL 4B 4 H 1 eighty exact ".to_string() + &vec!["1.0"; 36].join(" ");
        assert!(Record::decode(&garbled_bus).is_err());
        let bad_kind = "CELL 4B 4 Q 1 80 exact ".to_string() + &vec!["1.0"; 36].join(" ");
        assert!(Record::decode(&bad_kind).is_err());
        // A pre-v3 record (no mode token) must not decode: its first
        // metric lands in the mode field and is rejected there.
        let no_mode = "CELL 4B 4 H 1 80 ".to_string() + &vec!["1.0"; 36].join(" ");
        assert!(Record::decode(&no_mode).is_err());
        let bad_mode = "CELL 4B 4 H 1 80 sampled:bogus ".to_string() + &vec!["1.0"; 36].join(" ");
        assert!(Record::decode(&bad_mode).is_err());
        let short = "CELL 4B 4 H 1 80 exact 1.0 2.0";
        assert!(Record::decode(short).is_err());
        assert!(Record::decode("PARSEC 4B x 4 1 80 5 9 1 2").is_err());
        assert!(Record::decode("ISO 3 Z 1.5").is_err());
        assert!(Record::decode("").is_err());
        assert!(Record::decode("BOGUS 1 2 3").is_err());
    }

    #[test]
    fn frame_payload_matches_record_frame() {
        let rec = sample_cell();
        assert_eq!(rec.frame(), frame_payload(&rec.encode()));
        let line = frame_payload("HELLO 1234 1");
        assert!(line.ends_with('\n'));
        assert_eq!(unframe(line.trim_end()).unwrap(), "HELLO 1234 1");
    }

    #[test]
    #[cfg(unix)]
    fn dead_holder_lock_is_reclaimed_fast() {
        let dir = std::env::temp_dir().join(format!("tlpsim-deadlock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let lp = lock_path_for(&dir.join("cache.txt"));
        // A just-reaped child's PID is as close to "dead but plausibly
        // recorded" as a test can get.
        let mut child = std::process::Command::new("true").spawn().unwrap();
        let dead_pid = child.id();
        child.wait().unwrap();
        std::fs::write(&lp, dead_pid.to_string()).unwrap();
        let t0 = std::time::Instant::now();
        let l = FileLock::acquire(lp.clone());
        // Well under STALE_LOCK/LOCK_TIMEOUT: the PID check reclaimed it.
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "reclaim took {:?}",
            t0.elapsed()
        );
        assert_eq!(
            holder_pid(&lp),
            Some(std::process::id()),
            "lock now records the reclaiming process"
        );
        drop(l);
        assert!(!lp.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg(unix)]
    fn live_holder_lock_is_not_reclaimed_by_pid_check() {
        let dir = std::env::temp_dir().join(format!("tlpsim-livelock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let lp = lock_path_for(&dir.join("cache.txt"));
        // Our own PID is definitely alive.
        std::fs::write(&lp, std::process::id().to_string()).unwrap();
        assert!(process_alive(std::process::id()));
        // Not a full acquire (that would wait out LOCK_TIMEOUT); just
        // the liveness primitive the reclaim path gates on.
        assert_eq!(holder_pid(&lp), Some(std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lock_is_exclusive_and_released() {
        let dir = std::env::temp_dir().join(format!("tlpsim-lock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("cache.txt");
        let lp = lock_path_for(&p);
        {
            let _l = FileLock::acquire(lp.clone());
            assert!(lp.exists());
        }
        assert!(!lp.exists(), "lock must be released on drop");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
