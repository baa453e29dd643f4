//! Property tests of the crash contract of the sweep journal (DESIGN.md
//! §12, level 1) and the daemon's job queue (§16): for *any* torn-write
//! truncation point, replay recovers exactly the records that were
//! fully written before the tear, repairs the file in place, and keeps
//! accepting appends. Driven by [`SplitMix64`] like the cache-index
//! property suite, so failures reproduce from the printed seed.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use tlpsim_core::ctx::{Cell, WorkloadKind};
use tlpsim_core::daemon::{QRec, QueueFile};
use tlpsim_core::journal::{Journal, SweepSpec};
use tlpsim_core::mode::SimMode;
use tlpsim_core::{SimError, SimScale};
use tlpsim_workloads::SplitMix64;

/// A unique scratch journal (or queue) that cleans up after itself.
struct TempJournal(PathBuf);

impl TempJournal {
    fn new(name: &str) -> TempJournal {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "tlpsim-jprop-{}-{}-{name}.journal",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&p);
        TempJournal(p)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn spec(rng: &mut SplitMix64) -> SweepSpec {
    SweepSpec {
        design: ["4B", "2B10s", "1B6m"][rng.below(3) as usize].to_string(),
        kind: if rng.below(2) == 0 {
            WorkloadKind::Homogeneous
        } else {
            WorkloadKind::Heterogeneous
        },
        smt: rng.below(2) == 0,
        bus_dgbps: if rng.below(2) == 0 { 80 } else { 160 },
        scale: SimScale::quick(),
        mode: if rng.below(2) == 0 {
            SimMode::Exact
        } else {
            SimMode::sampled_default()
        },
    }
}

fn rand_cell(rng: &mut SplitMix64) -> Cell {
    let metric = |rng: &mut SplitMix64| (0..12).map(|_| 0.001 + rng.next_f64() * 40.0).collect();
    Cell {
        stp: metric(rng),
        antt: metric(rng),
        power_w: metric(rng),
    }
}

#[test]
fn replay_recovers_exactly_the_intact_prefix_under_random_tears() {
    let seed = 0x00C0_FFEE_5EED_u64;
    let mut rng = SplitMix64::new(seed);

    for round in 0..12 {
        let tmp = TempJournal::new("tear");
        let s = spec(&mut rng);
        let j = Journal::create(tmp.path(), s.clone()).expect("create");

        // Write a handful of cells and remember where each record ends.
        let counts = [1usize, 2, 4, 8, 16];
        let mut ends = Vec::new();
        for &n in &counts {
            j.record(n, &rand_cell(&mut rng));
            ends.push(std::fs::metadata(tmp.path()).unwrap().len());
        }
        drop(j);
        let full = std::fs::read(tmp.path()).unwrap();
        let header_end = full.iter().position(|&b| b == b'\n').unwrap() as u64 + 1;

        // Tear at random byte offsets anywhere after the header.
        for _ in 0..25 {
            let cut = header_end + rng.next_u64() % (full.len() as u64 - header_end + 1);
            std::fs::write(tmp.path(), &full[..cut as usize]).unwrap();

            let expect: usize = ends.iter().filter(|&&e| e <= cut).count();
            let (j, rs, done, report) = Journal::open(tmp.path())
                .unwrap_or_else(|e| panic!("seed {seed:#x} round {round} cut {cut}: {e}"));
            assert_eq!(rs, s, "spec survives a tear");
            assert_eq!(
                done.len(),
                expect,
                "seed {seed:#x} round {round}: cut at {cut} of {} must keep the \
                 longest intact prefix (record ends: {ends:?})",
                full.len()
            );
            assert_eq!(report.replayed, expect);
            // A cut mid-record must be repaired back to the prefix end.
            let repaired = std::fs::metadata(tmp.path()).unwrap().len();
            assert!(
                repaired <= cut,
                "repair may only shrink the file ({repaired} > {cut})"
            );
            if ends.contains(&cut) {
                assert_eq!(report.truncated_at, None, "clean cut needs no repair");
            }

            // The repaired journal still accepts (and replays) appends.
            j.record(24, &rand_cell(&mut rng));
            drop(j);
            let (_j, _s, done2, report2) = Journal::open(tmp.path()).expect("reopen");
            assert_eq!(done2.len(), expect + 1, "append after repair lost data");
            assert_eq!(report2.truncated_at, None, "repaired file is clean");
        }
    }
}

#[test]
fn tears_inside_the_header_are_loud_errors() {
    let mut rng = SplitMix64::new(0xDEAD_BEA7);
    let tmp = TempJournal::new("header");
    let s = spec(&mut rng);
    let j = Journal::create(tmp.path(), s).expect("create");
    j.record(4, &rand_cell(&mut rng));
    drop(j);
    let full = std::fs::read(tmp.path()).unwrap();
    let header_end = full.iter().position(|&b| b == b'\n').unwrap();

    // A journal whose *header* is torn cannot be trusted at all: the
    // sweep parameters are gone, so resuming must refuse, not guess.
    for _ in 0..10 {
        let cut = rng.next_u64() as usize % (header_end + 1);
        std::fs::write(tmp.path(), &full[..cut]).unwrap();
        match Journal::open(tmp.path()) {
            Err(SimError::InvalidConfig(_)) => {}
            other => panic!("cut at {cut} inside header: expected InvalidConfig, got {other:?}"),
        }
    }
}

fn rand_qrec(rng: &mut SplitMix64, id: u64) -> QRec {
    match rng.below(4) {
        0 => QRec::Job {
            id,
            // Multi-byte tokens put UTF-8 sequences in the cut range.
            token: ["jöb", "tabc", "Ω-42", "t9"][rng.below(4) as usize].to_string(),
            header: spec(rng).header_line(),
        },
        1 => QRec::Done { id },
        2 => QRec::Fail {
            id,
            why: "cell n=4 quarantined: fuß".into(),
        },
        _ => QRec::Cancel { id },
    }
}

#[test]
fn queue_replay_recovers_exactly_the_intact_prefix_under_random_tears() {
    let seed = 0x0051_EE7E_u64;
    let mut rng = SplitMix64::new(seed);
    let scale = SimScale::quick();

    for round in 0..12 {
        let tmp = TempJournal::new("qtear");
        let (q, _, _) = QueueFile::open(tmp.path(), scale).expect("create");
        let recs: Vec<QRec> = (1..=5).map(|id| rand_qrec(&mut rng, id)).collect();
        let mut ends = Vec::new();
        for r in &recs {
            q.append(r);
            ends.push(std::fs::metadata(tmp.path()).unwrap().len());
        }
        drop(q);
        let full = std::fs::read(tmp.path()).unwrap();
        let header_end = full.iter().position(|&b| b == b'\n').unwrap() as u64 + 1;

        for _ in 0..25 {
            let cut = header_end + rng.next_u64() % (full.len() as u64 - header_end + 1);
            std::fs::write(tmp.path(), &full[..cut as usize]).unwrap();

            let expect: usize = ends.iter().filter(|&&e| e <= cut).count();
            let (q, got, report) = QueueFile::open(tmp.path(), scale)
                .unwrap_or_else(|e| panic!("seed {seed:#x} round {round} cut {cut}: {e}"));
            assert_eq!(
                got,
                recs[..expect],
                "seed {seed:#x} round {round}: cut at {cut} of {} must keep the \
                 longest intact prefix (record ends: {ends:?})",
                full.len()
            );
            assert_eq!(report.replayed, expect);
            let repaired = std::fs::metadata(tmp.path()).unwrap().len();
            let prefix_end = if expect == 0 {
                header_end
            } else {
                ends[expect - 1]
            };
            assert_eq!(repaired, prefix_end, "repair keeps exactly the prefix");
            if ends.contains(&cut) {
                assert_eq!(report.truncated_at, None, "clean cut needs no repair");
            }

            q.append(&QRec::Done { id: 99 });
            drop(q);
            let (_q, got2, report2) = QueueFile::open(tmp.path(), scale).expect("reopen");
            assert_eq!(got2.len(), expect + 1, "append after repair lost data");
            assert_eq!(report2.truncated_at, None, "repaired file is clean");
        }
    }
}
