//! The write-ahead sweep journal (DESIGN.md §12, level 1).
//!
//! A sweep (`tlpsim sweep`) evaluates one design at every thread count
//! of [`crate::SWEEP_COUNTS`]; a cell can take minutes, the sweep
//! hours. The journal makes the sweep crash-safe at cell granularity:
//! each completed cell is appended as one framed, checksummed record
//! and `sync_data`'d *before* the sweep counts it done, so a SIGKILL at
//! any instant loses at most the in-flight cells. `tlpsim resume`
//! replays the journal, reports every recovered cell, and re-dispatches
//! only the remainder.
//!
//! Format (line-oriented text, like the disk cache it borrows its
//! framing from):
//!
//! * header — `TLPSIM-JOURNAL v2 <design> <H|X> <smt> <bus_dgbps>
//!   <warmup> <budget> <parsec_phase> <seed> <mode>`: everything needed
//!   to re-create the sweep, so `resume` takes only the journal path
//!   (v2 added the simulation-mode token — a sampled sweep and an exact
//!   sweep are different experiments and must never share a journal);
//! * records — the disk cache's framed [`Record::Cell`] lines
//!   (`<fnv1a64> <len> <payload>`), one per completed cell, in a
//!   framed log ([`crate::framedlog`]): a crash mid-append leaves a torn last line, which
//!   replay truncates back to the last good record (the lost cell is
//!   simply re-simulated);
//! * a record whose key does not match the header (foreign design,
//!   different SMT mode...) is rejected and counted, never trusted.
//!
//! Unlike the disk cache, a header mismatch is an *error*, not a
//! fresh start: resuming someone else's journal must fail loudly.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::ctx::{Cell, CellKey, WorkloadKind};
use crate::diskcache::Record;
use crate::error::SimError;
use crate::framedlog::{Durability, FramedLog, ReplayReport};
use crate::mode::SimMode;
use crate::SimScale;

/// Journal format version; bump on any layout change. v2 added the
/// simulation-mode token to the header; a v1 journal is refused loudly
/// (its cells carry no mode and cannot be trusted under either).
pub const JOURNAL_VERSION: u32 = 2;

/// Everything that identifies one sweep: re-running these parameters
/// reproduces the journaled cells bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Design name (`"4B"`, ...).
    pub design: String,
    /// Workload class of every cell.
    pub kind: WorkloadKind,
    /// SMT enabled on the chip.
    pub smt: bool,
    /// Off-chip bandwidth in tenths of GB/s.
    pub bus_dgbps: u32,
    /// Simulation scale (warmup/budget/seed) of every cell.
    pub scale: SimScale,
    /// Simulation mode of every cell (exact or sampled-with-knobs).
    pub mode: SimMode,
}

impl SweepSpec {
    /// The cache key a cell of this sweep at thread count `n` carries.
    pub fn cell_key(&self, n: usize) -> CellKey {
        CellKey {
            design: self.design.clone(),
            n,
            kind: self.kind,
            smt: self.smt,
            bus_dgbps: self.bus_dgbps,
            mode: self.mode,
        }
    }

    /// The journal's header line (no trailing newline). Public because
    /// the serve supervisor hands the whole sweep spec to a worker host
    /// in every `RUNS` request as this one string — the same self-
    /// describing format the journal file leads with.
    pub fn header_line(&self) -> String {
        format!(
            "TLPSIM-JOURNAL v{JOURNAL_VERSION} {} {} {} {} {} {} {} {} {}",
            self.design,
            if self.kind == WorkloadKind::Homogeneous {
                "H"
            } else {
                "X"
            },
            u8::from(self.smt),
            self.bus_dgbps,
            self.scale.warmup,
            self.scale.budget,
            self.scale.parsec_phase,
            self.scale.seed,
            self.mode.token(),
        )
    }

    /// Parse a header line back into a spec (inverse of
    /// [`header_line`](Self::header_line)).
    ///
    /// # Errors
    /// A diagnostic string when the line is not a compatible header.
    pub fn parse_header(line: &str) -> Result<SweepSpec, String> {
        let mut it = line.split_whitespace();
        match it.next() {
            Some("TLPSIM-JOURNAL") => {}
            _ => return Err("not a tlpsim sweep journal".into()),
        }
        match it.next() {
            Some(v) if v == format!("v{JOURNAL_VERSION}") => {}
            Some(v) => return Err(format!("unsupported journal version {v:?}")),
            None => return Err("journal header truncated".into()),
        }
        let (
            Some(design),
            Some(k),
            Some(smt),
            Some(bus),
            Some(w),
            Some(b),
            Some(p),
            Some(s),
            Some(mode),
        ) = (
            it.next(),
            it.next(),
            it.next(),
            it.next(),
            it.next(),
            it.next(),
            it.next(),
            it.next(),
            it.next(),
        )
        else {
            return Err("journal header truncated".into());
        };
        if it.next().is_some() {
            return Err("journal header has trailing fields".into());
        }
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
        let num = |t: &str, what: &str| -> Result<u64, String> {
            t.parse().map_err(|_| format!("bad {what} {t:?}"))
        };
        Ok(SweepSpec {
            design: design.to_string(),
            kind,
            smt,
            bus_dgbps: bus.parse().map_err(|_| format!("bad bus field {bus:?}"))?,
            scale: SimScale {
                warmup: num(w, "warmup")?,
                budget: num(b, "budget")?,
                parsec_phase: num(p, "parsec phase")?,
                seed: num(s, "seed")?,
            },
            mode: SimMode::parse_token(mode)?,
        })
    }
}

/// An open sweep journal, ready to append completed cells.
#[derive(Debug)]
pub struct Journal {
    log: FramedLog,
    path: PathBuf,
    spec: SweepSpec,
}

/// The directory a sweep keeps its in-cell checkpoints in, derived from
/// the journal path so sweep, serve and resume agree without extra
/// flags.
pub fn ckpt_dir_for(journal_path: &Path) -> PathBuf {
    path_with_suffix(journal_path, ".ckpt.d")
}

/// The result cache the worker hosts of `tlpsim serve` compute through,
/// derived from the journal path like [`ckpt_dir_for`].
pub(crate) fn cells_path_for(journal_path: &Path) -> PathBuf {
    path_with_suffix(journal_path, ".cells")
}

fn path_with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

impl Journal {
    /// Start a fresh journal at `path` (truncating any previous file)
    /// and durably write the sweep header.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] on I/O failure — a sweep asked to
    /// journal must not run unjournaled.
    pub fn create(path: &Path, spec: SweepSpec) -> Result<Journal, SimError> {
        let (log, _) = FramedLog::open(
            path,
            Some(&spec.header_line()),
            Durability::Synced,
            |_| Ok(false),
            |_| true,
        )
        .map_err(|e| {
            SimError::InvalidConfig(format!("cannot create journal {}: {e}", path.display()))
        })?;
        Ok(Journal {
            log,
            path: path.to_path_buf(),
            spec,
        })
    }

    /// Open an existing journal: parse the header, replay every intact
    /// matching cell record, truncate a torn tail away, and position
    /// for appends. Returns the journal, its sweep spec, the recovered
    /// cells by thread count, and a replay report.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] when the file is missing or its
    /// header is not a compatible sweep-journal header;
    /// [`SimError::CacheCorrupt`] is never returned — corrupt records
    /// are handled by truncation, which is the journal's contract.
    #[allow(clippy::type_complexity)]
    pub fn open(
        path: &Path,
    ) -> Result<(Journal, SweepSpec, BTreeMap<usize, Cell>, ReplayReport), SimError> {
        let spec = OnceCell::new();
        let mut done = BTreeMap::new();
        let (log, report) = FramedLog::open(
            path,
            None,
            Durability::Synced,
            |first| {
                let first = first.ok_or("no complete header line")?;
                let _ = spec.set(SweepSpec::parse_header(first)?);
                Ok(true)
            },
            |payload| match Record::decode(payload) {
                Ok(Record::Cell { key, cell })
                    if spec.get().is_some_and(|s| key == s.cell_key(key.n)) =>
                {
                    done.insert(key.n, cell);
                    true
                }
                _ => false, // intact but foreign
            },
        )
        .map_err(|e| {
            SimError::InvalidConfig(format!("cannot open journal {}: {e}", path.display()))
        })?;
        let spec = spec.into_inner().expect("a replayed journal has a header");
        let journal = Journal {
            log,
            path: path.to_path_buf(),
            spec: spec.clone(),
        };
        Ok((journal, spec, done, report))
    }

    /// The spec this journal was created (or opened) with.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// The journal file's path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Durably append one completed cell: a single framed `write_all`
    /// followed by `sync_data`, under the file's lock. After this
    /// returns, the cell survives SIGKILL and power loss short of
    /// device failure — the write-ahead property `resume` relies on.
    pub fn record(&self, n: usize, cell: &Cell) {
        let rec = Record::Cell {
            key: self.spec.cell_key(n),
            cell: cell.clone(),
        };
        // The disk cache merely flushes (a lost record is re-simulated
        // from the other process's copy); the journal is the *only*
        // copy of hours of work, so it pays for the fsync.
        let _ = self.log.append(&rec.encode());
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;

    use super::*;
    use crate::framedlog::frame_payload;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tlpsim-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join("sweep.journal")
    }

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

    fn cell(n: usize) -> Cell {
        Cell {
            stp: (0..12).map(|i| n as f64 + i as f64 * 0.125).collect(),
            antt: (0..12).map(|i| 1.0 + i as f64 * 0.0625).collect(),
            power_w: (0..12).map(|i| 10.0 + i as f64).collect(),
        }
    }

    #[test]
    fn create_record_open_round_trip() {
        let p = tmp("rt");
        let j = Journal::create(&p, spec()).unwrap();
        j.record(4, &cell(4));
        j.record(8, &cell(8));
        drop(j);
        let (_j, s, done, report) = Journal::open(&p).unwrap();
        assert_eq!(s, spec());
        assert_eq!(report.replayed, 2);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.truncated_at, None);
        assert_eq!(done.len(), 2);
        assert_eq!(done[&4], cell(4));
        assert_eq!(done[&8], cell(8));
        let _ = std::fs::remove_dir_all(p.parent().unwrap());
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let p = tmp("torn");
        let j = Journal::create(&p, spec()).unwrap();
        j.record(2, &cell(2));
        j.record(6, &cell(6));
        drop(j);
        // Tear the last record: strip its final 5 bytes (newline gone).
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 5]).unwrap();
        let (j, _s, done, report) = Journal::open(&p).unwrap();
        assert_eq!(done.len(), 1, "only the intact record survives");
        assert!(done.contains_key(&2));
        assert!(report.truncated_at.is_some());
        // The journal keeps working after the repair.
        j.record(6, &cell(6));
        drop(j);
        let (_j, _s, done, report) = Journal::open(&p).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(report.truncated_at, None, "repaired file is clean");
        let _ = std::fs::remove_dir_all(p.parent().unwrap());
    }

    #[test]
    fn non_utf8_tail_is_truncated_and_appendable() {
        let p = tmp("utf8");
        let j = Journal::create(&p, spec()).unwrap();
        j.record(1, &cell(1));
        let intact = std::fs::metadata(&p).unwrap().len();
        j.record(2, &cell(2));
        drop(j);
        // One high bit set in the last record's payload: that line is
        // no longer UTF-8, and it is the only line that may be lost.
        let mut bytes = std::fs::read(&p).unwrap();
        let at = bytes.len() - 4;
        bytes[at] |= 0x80;
        std::fs::write(&p, &bytes).unwrap();
        let (j, _s, done, report) = Journal::open(&p).unwrap();
        assert_eq!(done.keys().copied().collect::<Vec<_>>(), vec![1]);
        assert_eq!(done[&1], cell(1));
        assert_eq!(report.truncated_at, Some(intact));
        assert_eq!(std::fs::metadata(&p).unwrap().len(), intact);
        j.record(2, &cell(2));
        drop(j);
        let (_j, _s, done, report) = Journal::open(&p).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(report.truncated_at, None, "repaired file is clean");
        let _ = std::fs::remove_dir_all(p.parent().unwrap());
    }

    #[test]
    fn foreign_records_are_rejected_not_trusted() {
        let p = tmp("foreign");
        let j = Journal::create(&p, spec()).unwrap();
        j.record(4, &cell(4));
        drop(j);
        // Append an intact record for a *different* sweep (no SMT).
        let mut foreign_spec = spec();
        foreign_spec.smt = false;
        let foreign = Record::Cell {
            key: foreign_spec.cell_key(8),
            cell: cell(8),
        };
        let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
        f.write_all(frame_payload(&foreign.encode()).as_bytes())
            .unwrap();
        drop(f);
        let (_j, _s, done, report) = Journal::open(&p).unwrap();
        assert_eq!(done.len(), 1, "foreign cell must not count as done");
        assert_eq!(report.rejected, 1);
        let _ = std::fs::remove_dir_all(p.parent().unwrap());
    }

    #[test]
    fn wrong_header_is_a_loud_error() {
        let p = tmp("hdr");
        std::fs::write(&p, "TLPSIM-CACHE v3 3000 8000 12000 42\n").unwrap();
        assert!(matches!(Journal::open(&p), Err(SimError::InvalidConfig(_))));
        std::fs::write(&p, "TLPSIM-JOURNAL v99 4B X 1 80 1 2 3 4 exact\n").unwrap();
        assert!(matches!(Journal::open(&p), Err(SimError::InvalidConfig(_))));
        // A pre-mode v1 journal must be refused loudly, not resumed
        // with its mode guessed.
        std::fs::write(&p, "TLPSIM-JOURNAL v1 4B X 1 80 3000 8000 12000 42\n").unwrap();
        assert!(matches!(Journal::open(&p), Err(SimError::InvalidConfig(_))));
        // A v2 header with a garbage mode token is equally refused.
        std::fs::write(
            &p,
            "TLPSIM-JOURNAL v2 4B X 1 80 3000 8000 12000 42 sampled:bogus\n",
        )
        .unwrap();
        assert!(matches!(Journal::open(&p), Err(SimError::InvalidConfig(_))));
        assert!(matches!(
            Journal::open(&p.with_extension("missing")),
            Err(SimError::InvalidConfig(_))
        ));
        assert!(
            !p.with_extension("missing").exists(),
            "open creates nothing"
        );
        let _ = std::fs::remove_dir_all(p.parent().unwrap());
    }

    #[test]
    fn header_round_trips_through_parse() {
        let s = spec();
        assert_eq!(SweepSpec::parse_header(&s.header_line()).unwrap(), s);
        let mut nosmt = s.clone();
        nosmt.smt = false;
        nosmt.kind = WorkloadKind::Homogeneous;
        assert_eq!(
            SweepSpec::parse_header(&nosmt.header_line()).unwrap(),
            nosmt
        );
        let mut sampled = s;
        sampled.mode = SimMode::sampled_default();
        assert_eq!(
            SweepSpec::parse_header(&sampled.header_line()).unwrap(),
            sampled
        );
    }

    #[test]
    fn sampled_and_exact_cells_never_mix() {
        // The loud typed refusal the mode exists for: a cell recorded
        // under one mode is foreign to a journal of the other mode,
        // even when every other key field matches.
        let p = tmp("modemix");
        let mut sampled_spec = spec();
        sampled_spec.mode = SimMode::sampled_default();
        let j = Journal::create(&p, sampled_spec.clone()).unwrap();
        j.record(4, &cell(4));
        drop(j);
        // Append an intact *exact*-mode record for the same sweep.
        let exact_rec = Record::Cell {
            key: spec().cell_key(8),
            cell: cell(8),
        };
        let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
        f.write_all(frame_payload(&exact_rec.encode()).as_bytes())
            .unwrap();
        drop(f);
        let (_j, s, done, report) = Journal::open(&p).unwrap();
        assert_eq!(s.mode, SimMode::sampled_default());
        assert_eq!(
            done.len(),
            1,
            "exact cell must not count in a sampled sweep"
        );
        assert!(done.contains_key(&4));
        assert_eq!(
            report.rejected, 1,
            "the exact record is rejected, not trusted"
        );
        let _ = std::fs::remove_dir_all(p.parent().unwrap());
    }
}
