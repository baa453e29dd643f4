//! Set-associative cache with true-LRU replacement.
//!
//! This is a tag-array-only model: it tracks presence, dirtiness and
//! recency of lines, which is all the timing study needs. Capacity and
//! conflict behaviour are exact for the configured geometry.
//!
//! The lookup path is built for the simulator's per-instruction access
//! rate (every fetch probes the I-cache, every load/store the D-cache):
//!
//! * **Reciprocal set indexing** — the paper's small-core geometries
//!   are not powers of two (6 KB → 48 sets, 48 KB → 192 sets), so the
//!   naive `line % sets` / `line / sets` pair costs two 64-bit
//!   divisions per access. [`SetIndex`] strength-reduces both to one
//!   fixed-point multiply that is bit-exact for every representable
//!   line address (see the proof at [`SetIndex::new`]).
//! * **SoA tag/stamp/dirty arrays** — the hit scan touches only the
//!   tag word of each way (2-way: 16 contiguous bytes), the victim
//!   scan only the stamps, instead of striding over 32-byte AoS way
//!   structs.
//! * **Same-line MRU short-circuit** — consecutive accesses to one
//!   line (an I-cache streaming through a 64-byte line issues ~16 of
//!   them) skip indexing and the way scan entirely; the stamp/dirty
//!   update and hit count are identical to the full path.
//!
//! Functional warming does not go through the lookup path at all:
//! [`Cache::prewarm`] writes the state a warm's reads would leave in
//! closed form, in time bounded by the cache's capacity.

use crate::addr::LineAddr;
use crate::warm::{LineRun, Schedule};

/// Geometry of a single cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Need not be a power of two (the paper's
    /// small core uses 6 KB L1 caches and a 48 KB L2).
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Access latency in core cycles (applied by the hierarchy).
    pub latency: u64,
}

impl CacheConfig {
    /// Convenience constructor.
    ///
    /// # Panics
    /// Panics if `capacity_bytes` is not a multiple of `ways * 64` or if
    /// either parameter is zero.
    pub fn new(capacity_bytes: u64, ways: u32, latency: u64) -> Self {
        assert!(capacity_bytes > 0 && ways > 0, "cache must be non-empty");
        assert_eq!(
            capacity_bytes % (ways as u64 * crate::LINE_BYTES),
            0,
            "capacity must be a whole number of sets"
        );
        CacheConfig {
            capacity_bytes,
            ways,
            latency,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (self.ways as u64 * crate::LINE_BYTES)
    }

    /// Number of lines the cache can hold.
    pub fn lines(&self) -> u64 {
        self.capacity_bytes / crate::LINE_BYTES
    }
}

/// What a lookup did to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The line was present.
    pub hit: bool,
    /// A dirty line was evicted to make room (miss path only).
    pub writeback: Option<LineAddr>,
}

/// Strength-reduced `(line % sets, line / sets)`.
#[derive(Debug, Clone, Copy)]
enum SetIndex {
    /// `sets` is a power of two: mask and shift.
    Pow2 { shift: u32 },
    /// General case: exact division by a fixed-point reciprocal,
    /// `line / sets == (line * magic) >> (64 + shift)`.
    Magic { magic: u64, shift: u32 },
}

impl SetIndex {
    /// Precompute the reciprocal for `sets`.
    ///
    /// For non-power-of-two `sets` this uses the round-up method: with
    /// `k = floor(log2 sets)` and `magic = ceil(2^(64+k) / sets)`, the
    /// error term `e = magic * sets - 2^(64+k)` satisfies
    /// `0 < e < sets`, and `(n * magic) >> (64+k)` equals `n / sets`
    /// for every `n < 2^(64+k) / e`. Since `e < sets < 2^(k+1)`, that
    /// bound exceeds `2^63`, and line addresses are byte addresses
    /// divided by 64 — at most `2^58` — so the reciprocal is exact for
    /// every representable [`LineAddr`]. `magic` itself fits in 64
    /// bits because `sets > 2^k` makes `2^(64+k) / sets < 2^64`.
    fn new(sets: u64) -> Self {
        debug_assert!(sets > 0);
        if sets.is_power_of_two() {
            SetIndex::Pow2 {
                shift: sets.trailing_zeros(),
            }
        } else {
            let k = 63 - sets.leading_zeros();
            let magic = (1u128 << (64 + k)).div_ceil(sets as u128) as u64;
            SetIndex::Magic { magic, shift: k }
        }
    }

    /// `(line % sets, line / sets)` without dividing.
    #[inline]
    fn split(self, line: u64, sets: u64) -> (u64, u64) {
        match self {
            SetIndex::Pow2 { shift } => (line & (sets - 1), line >> shift),
            SetIndex::Magic { magic, shift } => {
                let q = ((line as u128 * magic as u128) >> (64 + shift)) as u64;
                (line - q * sets, q)
            }
        }
    }
}

/// Tag sentinel for an invalid way. Real tags are `line / sets`, at
/// most `2^58`, so the sentinel cannot collide.
const EMPTY: u64 = u64::MAX;

/// A set-associative, write-back, write-allocate cache with true LRU.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: u64,
    idx: SetIndex,
    /// Per-way tag, row-major by set; [`EMPTY`] marks an invalid way.
    tags: Vec<u64>,
    /// Per-way recency stamp; larger = more recently used.
    stamps: Vec<u64>,
    /// Per-way dirty flag.
    dirty: Vec<bool>,
    /// Line of the most recent access ([`EMPTY`] = none) and the way
    /// it resolved to, for the same-line short-circuit.
    last_line: u64,
    last_way: u32,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Cache {
    /// Build an empty (all-invalid) cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        let lines = (sets * cfg.ways as u64) as usize;
        Cache {
            cfg,
            sets,
            idx: SetIndex::new(sets),
            tags: vec![EMPTY; lines],
            stamps: vec![0; lines],
            dirty: vec![false; lines],
            last_line: EMPTY,
            last_way: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Set index of `line` (exposed for the reciprocal property tests).
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> u64 {
        self.idx.split(line.0, self.sets).0
    }

    /// Tag of `line` (exposed for the reciprocal property tests).
    #[inline]
    pub fn tag_of(&self, line: LineAddr) -> u64 {
        self.idx.split(line.0, self.sets).1
    }

    /// Look up `line`, allocating it on a miss (write-allocate) and
    /// marking it dirty when `write` is true. Returns whether it hit and
    /// any dirty victim that must be written back.
    pub fn access(&mut self, line: LineAddr, write: bool) -> AccessOutcome {
        self.tick += 1;
        let tick = self.tick;

        // Same-line short-circuit: the previous access left this line
        // resident in `last_way` (any later eviction or invalidation
        // of it would have gone through `access`/`invalidate`, which
        // reset the marker). State updates mirror the full hit path.
        if line.0 == self.last_line {
            let i = self.last_way as usize;
            self.stamps[i] = tick;
            if write {
                self.dirty[i] = true;
            }
            self.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }

        let (set, tag) = self.idx.split(line.0, self.sets);
        let w = self.cfg.ways as usize;
        let base = set as usize * w;

        // Hit path: tag scan only.
        for i in base..base + w {
            if self.tags[i] == tag {
                self.stamps[i] = tick;
                if write {
                    self.dirty[i] = true;
                }
                self.hits += 1;
                self.last_line = line.0;
                self.last_way = i as u32;
                return AccessOutcome {
                    hit: true,
                    writeback: None,
                };
            }
        }

        // Miss: pick the first invalid way, else the LRU victim
        // (earliest stamp, lowest way on ties).
        let mut victim = base;
        let mut best = u64::MAX;
        for i in base..base + w {
            if self.tags[i] == EMPTY {
                victim = i;
                break;
            }
            if self.stamps[i] < best {
                best = self.stamps[i];
                victim = i;
            }
        }
        let mut writeback = None;
        if self.tags[victim] != EMPTY && self.dirty[victim] {
            // Reconstruct the victim's line address.
            writeback = Some(LineAddr(self.tags[victim] * self.sets + set));
            self.writebacks += 1;
        }
        self.tags[victim] = tag;
        self.stamps[victim] = tick;
        self.dirty[victim] = write;
        self.misses += 1;
        self.last_line = line.0;
        self.last_way = victim as u32;
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Warm the cache with clean reads of several threads' footprints,
    /// interleaved round-robin: round `i` reads line `i` of every lane
    /// (thread) that long, in lane order. Runs `feeds` rejects take up
    /// their rounds but are not read (an L1 D-cache skips code runs).
    ///
    /// The final state — tags, stamps, dirty bits, MRU marker, tick and
    /// counters — is exactly that of calling
    /// [`access(line, false)`](Self::access) on every line in that order.
    /// Until the first read of a line already read (two overlapping runs)
    /// it is written in closed form, provided the cache starts empty:
    /// each set keeps its last `ways` lines, the set's `k`-th line in way
    /// `k mod ways`, stamped with its position in the sequence. A
    /// backward walk finds those lines and stops once every set is full,
    /// so the cost is about `sets × ways` reads however long the
    /// footprints are. The reads from the first repeat on (all of them,
    /// if the cache holds lines already) go through `access`.
    /// DESIGN.md §17 has the argument.
    pub fn prewarm(&mut self, lanes: &[&[LineRun]], feeds: impl Fn(&LineRun) -> bool) {
        let seq = Schedule::new(lanes, feeds);
        let cut = if self.tags.iter().all(|&t| t == EMPTY) {
            seq.first_repeat()
        } else {
            Some((0, 0))
        };
        let (head, tail) = match cut {
            Some(key) => seq.split(key),
            None => (seq, Schedule::default()),
        };
        self.fill(&head);
        tail.for_each(|line| {
            self.access(LineAddr(line), false);
        });
    }

    /// The state reading `seq` leaves in an empty cache, given that no
    /// line of `seq` repeats.
    fn fill(&mut self, seq: &Schedule) {
        let n = seq.len();
        let sets = self.sets as usize;
        let w = self.cfg.ways as usize;
        // Reads per set: a run of `len` lines from set `s` gives every
        // set `len / sets` and the `len % sets` sets from `s` on, cyclically,
        // one more.
        let mut per_set = vec![0u64; sets];
        let mut diff = vec![0i64; sets + 1];
        let mut base = 0;
        for p in seq.runs() {
            base += p.len / self.sets;
            let start = self.idx.split(p.first, self.sets).0 as usize;
            let end = start + (p.len % self.sets) as usize;
            diff[start] += 1;
            if end <= sets {
                diff[end] -= 1;
            } else {
                diff[sets] -= 1;
                diff[0] += 1;
                diff[end - sets] -= 1;
            }
        }
        let mut extra = 0i64;
        for (c, d) in per_set.iter_mut().zip(&diff) {
            extra += d;
            *c = base + extra as u64;
        }
        // Walk backward; the first `ways` reads met per set survive.
        let mut room: Vec<u64> = per_set.iter().map(|&c| c.min(w as u64)).collect();
        let mut missing: u64 = room.iter().sum();
        let tick0 = self.tick;
        let mut pos = n;
        seq.rev_until(|line| {
            let (set, tag) = self.idx.split(line, self.sets);
            let s = set as usize;
            if room[s] > 0 {
                room[s] -= 1;
                missing -= 1;
                // This is the set's `per_set[s] - 1`-th read (0-based).
                let i = s * w + ((per_set[s] - 1) % w as u64) as usize;
                self.tags[i] = tag;
                self.stamps[i] = tick0 + pos;
                self.dirty[i] = false;
                if pos == n {
                    self.last_line = line;
                    self.last_way = i as u32;
                }
            }
            per_set[s] -= 1;
            pos -= 1;
            missing == 0
        });
        self.tick = tick0 + n;
        self.misses += n;
    }

    /// Probe without modifying LRU/allocating. Used by tests and by the
    /// hierarchy to model silent upgrades.
    pub fn contains(&self, line: LineAddr) -> bool {
        let (set, tag) = self.idx.split(line.0, self.sets);
        let w = self.cfg.ways as usize;
        let base = set as usize * w;
        self.tags[base..base + w].contains(&tag)
    }

    /// Invalidate a line if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let (set, tag) = self.idx.split(line.0, self.sets);
        let w = self.cfg.ways as usize;
        let base = set as usize * w;
        for i in base..base + w {
            if self.tags[i] == tag {
                self.tags[i] = EMPTY;
                let was_dirty = self.dirty[i];
                self.dirty[i] = false;
                if self.last_line == line.0 {
                    self.last_line = EMPTY;
                }
                return was_dirty;
            }
        }
        false
    }

    /// Number of valid lines currently resident (O(lines); for tests/stats).
    pub fn resident_lines(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != EMPTY).count() as u64
    }

    /// (hits, misses, writebacks) counters since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.writebacks)
    }

    /// Publish this cache's counters into `snap` under `prefix.*`.
    pub fn counters_into(&self, prefix: &str, snap: &mut tlpsim_trace::CounterSnapshot) {
        snap.add_u64(&format!("{prefix}.hits"), self.hits);
        snap.add_u64(&format!("{prefix}.misses"), self.misses);
        snap.add_u64(&format!("{prefix}.writebacks"), self.writebacks);
    }

    /// Credit hit/miss/writeback counts that were extrapolated rather
    /// than simulated (sampled-mode counter advance, DESIGN.md §15).
    /// Tag/LRU contents are untouched: the credited accesses are
    /// statistical, not architectural.
    pub fn credit_counters(&mut self, hits: u64, misses: u64, writebacks: u64) {
        self.hits += hits;
        self.misses += misses;
        self.writebacks += writebacks;
    }

    /// Zero the hit/miss/writeback counters, keeping cache contents.
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }

    /// Miss rate over all accesses so far (0 if no accesses).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Serialize every mutable field (tag/stamp/dirty SoA arrays, MRU
    /// marker, recency tick, counters). Geometry (`cfg`, `sets`, `idx`)
    /// is structural: the restorer rebuilds it and
    /// [`snap_restore`](Self::snap_restore) validates against it.
    pub fn snap_save(&self, w: &mut crate::SnapWriter) {
        w.marker(b"CACH");
        w.u64_slice(&self.tags);
        w.u64_slice(&self.stamps);
        w.bool_slice(&self.dirty);
        w.u64(self.last_line);
        w.u32(self.last_way);
        w.u64(self.tick);
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.writebacks);
    }

    /// Restore mutable state saved by [`snap_save`](Self::snap_save)
    /// into a structurally identical cache.
    ///
    /// # Errors
    /// [`SnapError`](crate::SnapError) on truncation or when the saved
    /// arrays do not match this cache's geometry.
    pub fn snap_restore(&mut self, r: &mut crate::SnapReader<'_>) -> Result<(), crate::SnapError> {
        r.marker(b"CACH")?;
        let tags = r.u64_vec()?;
        crate::snap_ensure(
            tags.len() == self.tags.len(),
            format!(
                "cache has {} ways, snapshot {}",
                self.tags.len(),
                tags.len()
            ),
        )?;
        let stamps = r.u64_vec()?;
        crate::snap_ensure(
            stamps.len() == self.stamps.len(),
            "cache stamp array length",
        )?;
        let dirty = r.bool_vec()?;
        crate::snap_ensure(dirty.len() == self.dirty.len(), "cache dirty array length")?;
        self.tags = tags;
        self.stamps = stamps;
        self.dirty = dirty;
        self.last_line = r.u64()?;
        self.last_way = r.u32()?;
        self.tick = r.u64()?;
        self.hits = r.u64()?;
        self.misses = r.u64()?;
        self.writebacks = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheConfig::new(512, 2, 1))
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::new(8 * 1024 * 1024, 16, 30);
        assert_eq!(c.sets(), 8192);
        assert_eq!(c.lines(), 131072);
        // Paper's odd sizes work too: 6KB 2-way => 48 sets.
        let s = CacheConfig::new(6 * 1024, 2, 2);
        assert_eq!(s.sets(), 48);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn bad_geometry_panics() {
        CacheConfig::new(100, 3, 1);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(LineAddr(0), false).hit);
        assert!(c.access(LineAddr(0), false).hit);
        assert_eq!(c.counters(), (1, 1, 0));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 4, 8 map to set 0 (4 sets).
        c.access(LineAddr(0), false);
        c.access(LineAddr(4), false);
        c.access(LineAddr(0), false); // 0 now MRU, 4 LRU
        c.access(LineAddr(8), false); // evicts 4
        assert!(c.contains(LineAddr(0)));
        assert!(!c.contains(LineAddr(4)));
        assert!(c.contains(LineAddr(8)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(LineAddr(0), true); // dirty
        c.access(LineAddr(4), false);
        let out = c.access(LineAddr(8), false); // evicts line 0 (LRU, dirty)
        assert_eq!(out.writeback, Some(LineAddr(0)));
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(LineAddr(0), false);
        c.access(LineAddr(4), false);
        let out = c.access(LineAddr(8), false);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(LineAddr(0), false);
        c.access(LineAddr(0), true); // upgrade to dirty
        c.access(LineAddr(4), false);
        let out = c.access(LineAddr(8), false);
        assert_eq!(out.writeback, Some(LineAddr(0)));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(LineAddr(0), true);
        assert!(c.invalidate(LineAddr(0)));
        assert!(!c.contains(LineAddr(0)));
        assert!(!c.invalidate(LineAddr(0)));
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = tiny(); // 8 lines
        for i in 0..100 {
            c.access(LineAddr(i), false);
        }
        assert!(c.resident_lines() <= 8);
    }

    #[test]
    fn victim_line_reconstruction_is_exact() {
        let mut c = tiny();
        // Fill set 1 with lines 1 and 5; then line 9 evicts line 1.
        c.access(LineAddr(1), true);
        c.access(LineAddr(5), true);
        let out = c.access(LineAddr(9), false);
        assert_eq!(out.writeback, Some(LineAddr(1)));
    }

    #[test]
    fn same_line_fast_path_matches_full_path() {
        let mut c = tiny();
        c.access(LineAddr(0), false);
        // Repeat hits go through the MRU short-circuit; counters and
        // dirty state must match what the full path would do.
        assert!(c.access(LineAddr(0), false).hit);
        assert!(c.access(LineAddr(0), true).hit); // marks dirty
        c.access(LineAddr(4), false);
        let out = c.access(LineAddr(8), false); // evicts line 0
        assert_eq!(out.writeback, Some(LineAddr(0)));
        assert_eq!(c.counters(), (2, 3, 1));
    }

    #[test]
    fn invalidate_clears_mru_marker() {
        let mut c = tiny();
        c.access(LineAddr(0), true);
        c.invalidate(LineAddr(0));
        // Must re-miss, not fast-path "hit" a ghost line.
        assert!(!c.access(LineAddr(0), false).hit);
    }
}
