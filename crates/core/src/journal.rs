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
//!   (`<fnv1a64> <len> <payload>`), one per completed cell;
//! * torn tail — a crash mid-append leaves a half-written last line;
//!   replay stops at the first bad frame and truncates back to the
//!   last good record (the lost cell is simply re-simulated);
//! * a record whose key does not match the header (foreign design,
//!   different SMT mode...) is rejected and counted, never trusted.
//!
//! Unlike the disk cache, a header mismatch is an *error*, not a
//! fresh start: resuming someone else's journal must fail loudly.

use std::collections::BTreeMap;
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::ctx::{Cell, CellKey, WorkloadKind};
use crate::diskcache::{lock_path_for, unframe, FileLock, Record};
use crate::error::SimError;
use crate::executor::lock_unpoisoned;
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

/// What replaying a journal recovered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Cells recovered (also the size of the returned map).
    pub recovered: usize,
    /// Intact frames whose record did not belong to this sweep.
    pub rejected: usize,
    /// Byte offset the file was truncated to after a torn tail, if
    /// that happened.
    pub truncated_at: Option<u64>,
}

/// An open sweep journal, ready to append completed cells.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<std::fs::File>,
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
        let io = |e: std::io::Error| {
            SimError::InvalidConfig(format!("cannot create journal {}: {e}", path.display()))
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(io)?;
            }
        }
        let _lock = FileLock::acquire(lock_path_for(path));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(path)
            .map_err(io)?;
        file.write_all(format!("{}\n", spec.header_line()).as_bytes())
            .map_err(io)?;
        file.sync_data().map_err(io)?;
        Ok(Journal {
            file: Mutex::new(file),
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
        let io = |e: std::io::Error| {
            SimError::InvalidConfig(format!("cannot open journal {}: {e}", path.display()))
        };
        let _lock = FileLock::acquire(lock_path_for(path));

        let mut text = String::new();
        std::fs::File::open(path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(io)?;

        let Some(first_nl) = text.find('\n') else {
            return Err(SimError::InvalidConfig(format!(
                "journal {} has no complete header line",
                path.display()
            )));
        };
        let spec = SweepSpec::parse_header(&text[..first_nl])
            .map_err(|why| SimError::InvalidConfig(format!("journal {}: {why}", path.display())))?;

        let mut report = ReplayReport::default();
        let mut done: BTreeMap<usize, Cell> = BTreeMap::new();
        let mut valid_end = (first_nl + 1) as u64;
        let mut pos = first_nl + 1;
        let mut tail_torn = false;
        while pos < text.len() {
            let Some(nl) = text[pos..].find('\n') else {
                tail_torn = true; // torn final append: no terminator
                break;
            };
            let line = &text[pos..pos + nl];
            match unframe(line).map(Record::decode) {
                Ok(Ok(Record::Cell { key, cell })) if key == spec.cell_key(key.n) => {
                    done.insert(key.n, cell);
                }
                Ok(_) => report.rejected += 1, // intact but foreign
                Err(_) => {
                    tail_torn = true;
                    break;
                }
            }
            pos += nl + 1;
            valid_end = pos as u64;
        }
        report.recovered = done.len();
        if tail_torn {
            report.truncated_at = Some(valid_end);
        }

        let file = std::fs::OpenOptions::new()
            .truncate(false)
            .write(true)
            .open(path)
            .map_err(io)?;
        if tail_torn {
            file.set_len(valid_end).map_err(io)?;
        }
        let mut f = &file;
        f.seek(std::io::SeekFrom::End(0)).map_err(io)?;

        Ok((
            Journal {
                file: Mutex::new(file),
                path: path.to_path_buf(),
                spec: spec.clone(),
            },
            spec,
            done,
            report,
        ))
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
    /// followed by `sync_data`, under the advisory file lock. After
    /// this returns, the cell survives SIGKILL and power loss short of
    /// device failure — the write-ahead property `resume` relies on.
    pub fn record(&self, n: usize, cell: &Cell) {
        let rec = Record::Cell {
            key: self.spec.cell_key(n),
            cell: cell.clone(),
        };
        let line = rec.frame();
        let _lock = FileLock::acquire(lock_path_for(&self.path));
        let mut f = lock_unpoisoned(&self.file);
        let _ = f.seek(std::io::SeekFrom::End(0));
        let _ = f.write_all(line.as_bytes());
        // The disk cache merely flushes (a lost record is re-simulated
        // from the other process's copy); the journal is the *only*
        // copy of hours of work, so it pays for the fsync.
        let _ = f.sync_data();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(report.recovered, 2);
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
        f.write_all(foreign.frame().as_bytes()).unwrap();
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
        f.write_all(exact_rec.frame().as_bytes()).unwrap();
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
