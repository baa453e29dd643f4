//! The hardened on-disk result cache (DESIGN.md §7).
//!
//! Separate bench processes share simulation work through one
//! append-only text file (`TLPSIM_CACHE`), a framed log
//! ([`crate::framedlog`]) that replays up to the first bad record,
//! truncates a torn tail and locks the file for each replay or append.
//! The cache adds two policies:
//!
//! * **versioned header** — `TLPSIM-CACHE v3 <warmup> <budget>
//!   <parsec_phase> <seed>`; any mismatch (old version, different
//!   scale) truncates and starts fresh;
//! * **strict payload decoding** — a record whose key fields do not
//!   parse is rejected (counted in the [`ReplayReport`]) instead of
//!   being replayed under a bogus-but-valid key.
//!
//! Round-trip guarantee: [`Record::encode`] output always decodes via
//! [`Record::decode`] to an equal value (property-tested in
//! `crates/core/tests/resilience.rs`).

use std::path::Path;

use tlpsim_power::CoreKind;

use crate::ctx::{Cell, CellKey, ParsecKey, ParsecOutcome, WorkloadKind};
use crate::framedlog::{Durability, FramedLog, ReplayReport};
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
}

/// The cross-process result cache file.
#[derive(Debug)]
pub struct DiskCache {
    log: FramedLog,
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
    ) -> std::io::Result<(DiskCache, Vec<Record>, ReplayReport)> {
        let header = header_line(scale);
        let mut records = Vec::new();
        let (log, report) = FramedLog::open(
            path,
            Some(&header),
            Durability::Flushed,
            |first| Ok(first == Some(header.as_str())),
            |payload| Record::decode(payload).map(|r| records.push(r)).is_ok(),
        )?;
        Ok((DiskCache { log }, records, report))
    }

    /// Append one record as a framed line. A record the disk refuses is
    /// dropped: whoever misses it simply re-simulates the cell.
    pub fn append(&self, rec: &Record) {
        let _ = self.log.append(&rec.encode());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framedlog::{frame_payload, unframe};

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
        let line = frame_payload(&rec.encode());
        let payload = unframe(line.trim_end_matches('\n')).expect("frame is valid");
        assert_eq!(Record::decode(payload).expect("decodes"), rec);
    }

    #[test]
    fn unframe_rejects_flipped_bits() {
        let line = frame_payload(&sample_cell().encode());
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
}
