//! Integration tests of the fault-tolerance layer (DESIGN.md §7):
//! persist→load round-trips of the hardened disk cache, recovery from
//! torn and garbled cache files, concurrent writers, panic-isolated
//! sweeps, and watchdog errors surfacing as typed [`SimError`]s.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use tlpsim_core::ctx::{Cell, CellKey, Ctx, ParsecKey, ParsecOutcome, WorkloadKind};
use tlpsim_core::diskcache::{fnv1a64, DiskCache, Record};
use tlpsim_core::executor::par_map;
use tlpsim_core::mode::SimMode;
use tlpsim_core::{SimError, SimScale};
use tlpsim_power::CoreKind;
use tlpsim_workloads::SplitMix64;

/// A unique scratch file that cleans up after itself.
struct TempCache(PathBuf);

impl TempCache {
    fn new(name: &str) -> TempCache {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "tlpsim-resilience-{}-{}-{name}.txt",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&p);
        TempCache(p)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A plausible but randomized finite metric value (mixed magnitudes so
/// the text round-trip covers subnormal-ish and large exponents).
fn rand_metric(rng: &mut SplitMix64) -> f64 {
    let mag = 10f64.powi(rng.below(13) as i32 - 6);
    (0.001 + rng.next_f64()) * mag
}

fn rand_record(rng: &mut SplitMix64) -> Record {
    match rng.below(3) {
        0 => Record::Iso {
            bench: rng.below(12) as usize,
            kind: match rng.below(3) {
                0 => CoreKind::Big,
                1 => CoreKind::Medium,
                _ => CoreKind::Small,
            },
            ipc: 0.01 + 3.0 * rng.next_f64(),
        },
        1 => Record::Cell {
            key: CellKey {
                design: format!("d{}", rng.below(9)),
                n: 1 + rng.below(24) as usize,
                kind: if rng.chance(0.5) {
                    WorkloadKind::Homogeneous
                } else {
                    WorkloadKind::Heterogeneous
                },
                smt: rng.chance(0.5),
                bus_dgbps: if rng.chance(0.5) { 80 } else { 160 },
                mode: if rng.chance(0.5) {
                    SimMode::Exact
                } else {
                    SimMode::Sampled {
                        window: 64u32 << rng.below(6),
                        stride: 65_536u32 << rng.below(4),
                        tol_ppm: 1 + rng.below(500_000) as u32,
                    }
                },
            },
            cell: Cell {
                stp: (0..12).map(|_| rand_metric(rng)).collect(),
                antt: (0..12).map(|_| rand_metric(rng)).collect(),
                power_w: (0..12).map(|_| rand_metric(rng)).collect(),
            },
        },
        _ => Record::Parsec {
            key: ParsecKey {
                design: format!("d{}", rng.below(9)),
                app: rng.below(8) as usize,
                n: 1 + rng.below(24) as usize,
                smt: rng.chance(0.5),
                bus_dgbps: 80,
            },
            out: ParsecOutcome {
                roi_cycles: 1 + rng.below(1 << 40),
                total_cycles: 1 + rng.below(1 << 40),
                histogram: (0..=24).map(|_| rng.below(1 << 30)).collect(),
            },
        },
    }
}

/// Property: any sequence of persisted records loads back equal — the
/// cache never corrupts a key or a value (exact f64 text round-trip).
#[test]
fn random_records_round_trip_through_disk() {
    let tmp = TempCache::new("roundtrip");
    let mut rng = SplitMix64::new(0xC0FFEE);
    let records: Vec<Record> = (0..200).map(|_| rand_record(&mut rng)).collect();
    {
        let (cache, replayed, report) =
            DiskCache::open(SimScale::quick(), tmp.path()).expect("open fresh");
        assert!(report.fresh);
        assert!(replayed.is_empty());
        for r in &records {
            cache.append(r);
        }
    }
    let (_cache, replayed, report) =
        DiskCache::open(SimScale::quick(), tmp.path()).expect("reopen");
    assert!(!report.fresh);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.truncated_at, None);
    assert_eq!(report.replayed, records.len());
    assert_eq!(
        replayed, records,
        "records must survive the disk byte-exact"
    );
}

/// A torn final write (no newline — the classic crash-mid-append) is
/// truncated away; every earlier record survives, and the repair is
/// persistent: the next open sees a clean file.
#[test]
fn torn_tail_is_truncated_and_repaired() {
    let tmp = TempCache::new("torn");
    let mut rng = SplitMix64::new(7);
    let records: Vec<Record> = (0..5).map(|_| rand_record(&mut rng)).collect();
    {
        let (cache, _, _) = DiskCache::open(SimScale::quick(), tmp.path()).expect("open");
        for r in &records {
            cache.append(r);
        }
    }
    let intact_len = std::fs::metadata(tmp.path()).expect("meta").len();
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(tmp.path())
            .expect("append garbage");
        f.write_all(b"deadbeef 12 half-a-reco").expect("torn write");
    }
    let (_c, replayed, report) = DiskCache::open(SimScale::quick(), tmp.path()).expect("reopen");
    assert_eq!(report.replayed, 5);
    assert_eq!(report.truncated_at, Some(intact_len));
    assert_eq!(replayed, records);
    assert_eq!(
        std::fs::metadata(tmp.path()).expect("meta").len(),
        intact_len,
        "repair must be persisted"
    );
    let (_c, _, report) = DiskCache::open(SimScale::quick(), tmp.path()).expect("third open");
    assert_eq!(report.truncated_at, None, "second open must be clean");
    assert_eq!(report.replayed, 5);
}

/// Corruption in the middle of the file (bit rot) stops replay at the
/// last intact record — nothing after the flip can be trusted, so the
/// tail is dropped rather than guessed at.
#[test]
fn mid_file_bitflip_truncates_the_tail() {
    let tmp = TempCache::new("bitflip");
    let mut rng = SplitMix64::new(11);
    let records: Vec<Record> = (0..6).map(|_| rand_record(&mut rng)).collect();
    {
        let (cache, _, _) = DiskCache::open(SimScale::quick(), tmp.path()).expect("open");
        for r in &records {
            cache.append(r);
        }
    }
    let mut bytes = std::fs::read(tmp.path()).expect("read");
    // Flip a payload byte somewhere past the header + first records.
    let pos = bytes.len() * 2 / 3;
    bytes[pos] ^= 0x20;
    std::fs::write(tmp.path(), &bytes).expect("write corrupted");

    let (_c, replayed, report) = DiskCache::open(SimScale::quick(), tmp.path()).expect("reopen");
    assert!(report.truncated_at.is_some(), "flip must be detected");
    assert!(report.replayed < records.len());
    assert_eq!(replayed[..], records[..report.replayed], "prefix intact");
}

/// A last record that is no longer UTF-8 (one high bit set) is a bad
/// line like any other: the intact prefix replays, the tail is
/// truncated, and the repaired file keeps accepting appends.
#[test]
fn non_utf8_tail_is_truncated_not_a_fresh_start() {
    let tmp = TempCache::new("utf8");
    let mut rng = SplitMix64::new(19);
    let records: Vec<Record> = (0..4).map(|_| rand_record(&mut rng)).collect();
    let mut intact_len = 0;
    {
        let (cache, _, _) = DiskCache::open(SimScale::quick(), tmp.path()).expect("open");
        for r in &records {
            intact_len = std::fs::metadata(tmp.path()).expect("meta").len();
            cache.append(r);
        }
    }
    let mut bytes = std::fs::read(tmp.path()).expect("read");
    let at = bytes.len() - 3;
    bytes[at] |= 0x80;
    std::fs::write(tmp.path(), &bytes).expect("write corrupted");

    let (cache, replayed, report) = DiskCache::open(SimScale::quick(), tmp.path()).expect("reopen");
    assert!(!report.fresh, "a bad tail must not discard the cache");
    assert_eq!(replayed, records[..3], "prefix intact");
    assert_eq!(report.truncated_at, Some(intact_len));
    assert_eq!(
        std::fs::metadata(tmp.path()).expect("meta").len(),
        intact_len,
        "repair must be persisted"
    );
    cache.append(&records[3]);
    drop(cache);
    let (_c, replayed, report) =
        DiskCache::open(SimScale::quick(), tmp.path()).expect("third open");
    assert_eq!(report.truncated_at, None, "repaired file is clean");
    assert_eq!(replayed, records);
}

/// A record whose frame checksum passes but whose payload is garbage
/// (e.g. written by a buggy older build) is rejected without killing
/// the records after it — this is the bug class the seed's
/// `unwrap_or(0)` key parsing turned into silently-wrong cache hits.
#[test]
fn semantically_invalid_record_is_rejected_not_replayed() {
    let tmp = TempCache::new("badpayload");
    let mut rng = SplitMix64::new(13);
    let good = rand_record(&mut rng);
    {
        let (cache, _, _) = DiskCache::open(SimScale::quick(), tmp.path()).expect("open");
        // Hand-frame a checksum-valid line whose payload decodes to
        // nonsense (core kind "Q" does not exist).
        let payload = "ISO 3 Q 1.5";
        let line = format!(
            "{:016x} {} {payload}\n",
            fnv1a64(payload.as_bytes()),
            payload.len()
        );
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(tmp.path())
            .expect("append");
        f.write_all(line.as_bytes()).expect("write bad payload");
        drop(f);
        cache.append(&good);
    }
    let (_c, replayed, report) = DiskCache::open(SimScale::quick(), tmp.path()).expect("reopen");
    assert_eq!(report.rejected, 1);
    assert_eq!(
        report.truncated_at, None,
        "a rejected record is not corruption"
    );
    assert_eq!(
        replayed,
        vec![good.clone()],
        "records after the bad one still replay"
    );
}

/// A cache written at one simulation scale must never be replayed into
/// a context at another scale — the header mismatch starts fresh.
#[test]
fn scale_mismatch_starts_fresh() {
    let tmp = TempCache::new("scale");
    let mut rng = SplitMix64::new(17);
    {
        let (cache, _, _) = DiskCache::open(SimScale::quick(), tmp.path()).expect("open quick");
        cache.append(&rand_record(&mut rng));
    }
    let (_c, replayed, report) =
        DiskCache::open(SimScale::standard(), tmp.path()).expect("open standard");
    assert!(report.fresh, "different scale must not reuse the file");
    assert!(replayed.is_empty());
}

/// Concurrent writers (within and across cache handles) never
/// interleave partial records: after the dust settles, every record is
/// intact and replayable.
#[test]
fn concurrent_appends_never_interleave() {
    let tmp = TempCache::new("concurrent");
    let (a, _, _) = DiskCache::open(SimScale::quick(), tmp.path()).expect("open a");
    let (b, _, _) = DiskCache::open(SimScale::quick(), tmp.path()).expect("open b");
    const THREADS: u64 = 4;
    const PER_THREAD: usize = 25;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = if t % 2 == 0 { &a } else { &b };
            s.spawn(move || {
                let mut rng = SplitMix64::new(0x1000 + t);
                for _ in 0..PER_THREAD {
                    cache.append(&rand_record(&mut rng));
                }
            });
        }
    });
    drop(a);
    drop(b);
    let (_c, _replayed, report) = DiskCache::open(SimScale::quick(), tmp.path()).expect("reopen");
    assert_eq!(report.rejected, 0);
    assert_eq!(report.truncated_at, None);
    assert_eq!(report.replayed, THREADS as usize * PER_THREAD);
}

/// End-to-end: a context pointed at a cache with a valid prefix and a
/// garbage tail recovers the prefix, keeps working, and persists new
/// results that the next context replays.
#[test]
fn ctx_recovers_from_corrupt_cache_and_keeps_persisting() {
    let tmp = TempCache::new("ctx");
    let seeded = Record::Iso {
        bench: 0,
        kind: CoreKind::Big,
        ipc: 1.234,
    };
    {
        let (cache, _, _) = DiskCache::open(SimScale::quick(), tmp.path()).expect("open");
        cache.append(&seeded);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(tmp.path())
            .expect("append");
        f.write_all(b"\x00\x01garbage tail without structure")
            .expect("garbage");
    }
    {
        let ctx = Ctx::with_disk_cache(SimScale::quick(), tmp.path());
        assert_eq!(ctx.cache_stats().iso, 1, "intact prefix must replay");
        let ipc = ctx.iso_ipc(0, CoreKind::Big).expect("replayed profile");
        assert!((ipc - 1.234).abs() < 1e-12, "replayed value must be exact");
        // New work is persisted past the repaired tail.
        ctx.iso_ipc(1, CoreKind::Small)
            .expect("fresh profile simulates");
    }
    let ctx2 = Ctx::with_disk_cache(SimScale::quick(), tmp.path());
    assert_eq!(
        ctx2.cache_stats().iso,
        2,
        "repair + append must both persist"
    );
}

/// A cache path that cannot be created degrades to an in-memory
/// context instead of failing the campaign.
#[test]
fn unwritable_cache_path_degrades_to_memory() {
    let ctx = Ctx::with_disk_cache(SimScale::quick(), "/proc/definitely/not/writable/cache.txt");
    assert_eq!(ctx.cache_stats().iso, 0);
    // Still fully functional.
    ctx.iso_ipc(0, CoreKind::Small)
        .expect("in-memory context works");
}

/// One poisoned cell in a 12-item sweep costs exactly that cell, and
/// the context stays usable afterwards (no poisoned cache locks).
#[test]
fn poisoned_cell_in_sweep_degrades_to_11_of_12() {
    let ctx = Ctx::new(SimScale::quick());
    let items: Vec<usize> = (0..12).collect();
    let out = par_map(&items, |&i| {
        if i == 7 {
            panic!("injected fault in cell {i}");
        }
        ctx.iso_ipc(0, CoreKind::Small)
    });
    let ok = out.iter().filter(|r| r.is_ok()).count();
    assert_eq!(ok, 11, "exactly the injected fault may fail");
    match &out[7] {
        Err(SimError::WorkerPanicked { item: 7, detail }) => {
            assert!(detail.contains("injected fault"));
        }
        other => panic!("expected WorkerPanicked for item 7, got {other:?}"),
    }
    // The context is not wedged by the panic.
    ctx.iso_ipc(1, CoreKind::Small)
        .expect("ctx survives a worker panic");
}

/// An impossibly tight watchdog fires as a typed, diagnosable error at
/// the context level — the stall never hangs or panics the caller.
#[test]
fn watchdog_stall_surfaces_as_typed_error() {
    let ctx = Ctx::new(SimScale::quick()).with_watchdog(1);
    match ctx.iso_ipc(0, CoreKind::Big) {
        Err(SimError::Stalled { cycle, snapshot }) => {
            assert!(cycle > 0);
            let text = snapshot.to_string();
            assert!(
                text.contains("cycle"),
                "snapshot must be human-readable: {text}"
            );
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
}
