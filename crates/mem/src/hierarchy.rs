//! The full chip memory system: per-core private L1I/L1D/L2, shared LLC
//! behind a crossbar, and DRAM behind a bandwidth-limited bus.
//!
//! The walk is performed in a single call that both updates cache state
//! (allocation, LRU, dirtiness, writebacks) and computes the completion
//! time of the access, including queueing at the DRAM banks and the
//! off-chip bus. MSHR-style merging is modeled: a second access to a
//! line that is still in flight waits for the first fill rather than
//! paying a second full miss.

use crate::addr::{Addr, LineAddr};
use crate::bus::{Bus, BusConfig};
use crate::cache::{Cache, CacheConfig};
use crate::dram::{Dram, DramConfig};
use crate::hash::FastMap;
use crate::stats::{CoreMemStats, MemCounters, MemStats};
use crate::warm::LineRun;
use crate::{CoreId, Cycle};
use tlpsim_trace::{NopSink, TraceEvent, TraceSink};

/// Kind of memory access issued by a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (goes through the L1 I-cache).
    Fetch,
    /// Data load.
    Load,
    /// Data store (write-allocate, write-back).
    Store,
}

/// Deepest level that had to be consulted to satisfy an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    /// Satisfied by the private L1 (I or D).
    L1,
    /// Satisfied by the private unified L2.
    L2,
    /// Satisfied by the shared last-level cache.
    Llc,
    /// Went to DRAM.
    Dram,
}

/// Result of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the data is available to the core.
    pub complete_at: Cycle,
    /// Deepest level consulted.
    pub level: HitLevel,
}

/// Private cache geometry for one core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivateCacheConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified private L2.
    pub l2: CacheConfig,
}

impl PrivateCacheConfig {
    /// Big core: 32 KB 4-way L1s, 256 KB 8-way L2 (Table 1).
    pub fn big() -> Self {
        PrivateCacheConfig {
            l1i: CacheConfig::new(32 * 1024, 4, 3),
            l1d: CacheConfig::new(32 * 1024, 4, 3),
            l2: CacheConfig::new(256 * 1024, 8, 12),
        }
    }

    /// Medium core: 16 KB 2-way L1s, 128 KB 4-way L2 (Table 1).
    pub fn medium() -> Self {
        PrivateCacheConfig {
            l1i: CacheConfig::new(16 * 1024, 2, 3),
            l1d: CacheConfig::new(16 * 1024, 2, 3),
            l2: CacheConfig::new(128 * 1024, 4, 10),
        }
    }

    /// Small core: 6 KB 2-way L1s, 48 KB 4-way L2 (Table 1).
    pub fn small() -> Self {
        PrivateCacheConfig {
            l1i: CacheConfig::new(6 * 1024, 2, 2),
            l1d: CacheConfig::new(6 * 1024, 2, 2),
            l2: CacheConfig::new(48 * 1024, 4, 8),
        }
    }

    /// "Large cache" variant of Section 8.1: medium/small cores with
    /// big-core cache capacities.
    pub fn with_big_caches(self) -> Self {
        let big = Self::big();
        PrivateCacheConfig {
            l1i: CacheConfig {
                latency: self.l1i.latency,
                ..big.l1i
            },
            l1d: CacheConfig {
                latency: self.l1d.latency,
                ..big.l1d
            },
            l2: CacheConfig {
                latency: self.l2.latency,
                ..big.l2
            },
        }
    }
}

/// Full chip memory-system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryConfig {
    /// Private cache geometry per core (index = core id). Heterogeneous
    /// chips simply mix entries.
    pub per_core: Vec<PrivateCacheConfig>,
    /// Shared last-level cache (8 MB, 16-way in the paper).
    pub llc: CacheConfig,
    /// One-way crossbar latency between a core's L2 and the LLC, cycles.
    pub crossbar_latency: u64,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// Off-chip bus parameters.
    pub bus: BusConfig,
    /// Core clock in GHz; converts DRAM/bus wall time into cycles.
    pub freq_ghz: f64,
}

impl MemoryConfig {
    /// The paper's shared LLC: 8 MB, 16-way.
    pub fn default_llc() -> CacheConfig {
        CacheConfig::new(8 * 1024 * 1024, 16, 30)
    }

    /// A chip of `n` big cores with default shared resources. Mostly a
    /// convenience for examples and tests.
    pub fn big_core_chip(n: usize) -> Self {
        MemoryConfig {
            per_core: vec![PrivateCacheConfig::big(); n],
            llc: Self::default_llc(),
            crossbar_latency: 5,
            dram: DramConfig::default(),
            bus: BusConfig::default(),
            freq_ghz: 2.66,
        }
    }
}

#[derive(Debug)]
struct PrivateCaches {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    /// In-flight fills: line -> cycle the data arrives at this core.
    mshr: FastMap<LineAddr, Cycle>,
    stats: CoreMemStats,
}

impl PrivateCaches {
    fn new(cfg: &PrivateCacheConfig) -> Self {
        PrivateCaches {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            mshr: FastMap::default(),
            stats: CoreMemStats::default(),
        }
    }

    fn prune_mshr(&mut self, now: Cycle) {
        if self.mshr.len() > 64 {
            self.mshr.retain(|_, &mut t| t > now);
        }
    }
}

/// The chip-wide memory system.
///
/// One instance models all private caches, the shared LLC, the crossbar,
/// DRAM and the off-chip bus for a single simulated chip.
#[derive(Debug)]
pub struct MemorySystem {
    cores: Vec<PrivateCaches>,
    llc: Cache,
    /// In-flight LLC fills: line -> cycle the data arrives at the LLC.
    llc_pending: FastMap<LineAddr, Cycle>,
    dram: Dram,
    bus: Bus,
    crossbar_latency: u64,
    /// Bumped whenever a new in-flight fill is recorded; lets callers
    /// cache [`Self::next_event`] results (see its docs).
    fills_version: u64,
    /// Arrival cycles of every recorded fill, min-first. Stale tops
    /// (`<= now`) are pruned lazily in [`Self::next_event`], which
    /// makes the query O(1) amortized instead of a walk over the
    /// MSHR/LLC-pending maps. The heap may retain times for entries
    /// the maps have already pruned — phantom events only shorten a
    /// fast-forward jump, never lengthen one (one-sided safety).
    fill_events: std::collections::BinaryHeap<std::cmp::Reverse<Cycle>>,
}

impl MemorySystem {
    /// Build the memory system for a chip.
    pub fn new(cfg: &MemoryConfig) -> Self {
        MemorySystem {
            cores: cfg.per_core.iter().map(PrivateCaches::new).collect(),
            llc: Cache::new(cfg.llc),
            llc_pending: FastMap::default(),
            dram: Dram::new(&cfg.dram, cfg.freq_ghz),
            bus: Bus::new(&cfg.bus, cfg.freq_ghz),
            crossbar_latency: cfg.crossbar_latency,
            fills_version: 0,
            fill_events: std::collections::BinaryHeap::new(),
        }
    }

    /// Number of cores this memory system serves.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Perform an access for `core` at cycle `now`.
    ///
    /// Updates all cache state (allocations, LRU, writebacks) and returns
    /// when the data is available and how deep the access had to go.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn access(
        &mut self,
        core: CoreId,
        kind: AccessKind,
        addr: Addr,
        now: Cycle,
    ) -> AccessResult {
        self.access_traced(core, kind, addr, now, &mut NopSink)
    }

    /// [`access`](Self::access) with structural event tracing: emits
    /// fill, bus and DRAM-bank occupancy events into `sink`. With the
    /// default [`NopSink`] every hook folds away at monomorphization
    /// time, so [`access`](Self::access) pays nothing for the
    /// instrumentation.
    pub fn access_traced<S: TraceSink>(
        &mut self,
        core: CoreId,
        kind: AccessKind,
        addr: Addr,
        now: Cycle,
        sink: &mut S,
    ) -> AccessResult {
        let line = addr.line();
        let is_write = kind == AccessKind::Store;

        // --- L1 ---
        // Single-borrow fast path: the overwhelmingly common case (an L1
        // hit with nothing in flight) does one bounds check on `cores`,
        // one cache probe and one counter bump, then returns without
        // ever re-borrowing `self`.
        let (l1_lat, l1_wb) = {
            let pc = &mut self.cores[core];
            let l1 = match kind {
                AccessKind::Fetch => &mut pc.l1i,
                AccessKind::Load | AccessKind::Store => &mut pc.l1d,
            };
            let l1_lat = l1.config().latency;
            let out = l1.access(line, is_write);
            let (hits, misses) = match kind {
                AccessKind::Fetch => (&mut pc.stats.l1i_hits, &mut pc.stats.l1i_misses),
                _ => (&mut pc.stats.l1d_hits, &mut pc.stats.l1d_misses),
            };
            if out.hit {
                *hits += 1;
                let mut complete = now + l1_lat;
                // Hit on a line whose fill is still in flight: wait for it.
                if let Some(&t) = pc.mshr.get(&line) {
                    complete = complete.max(t);
                }
                return AccessResult {
                    complete_at: complete,
                    level: HitLevel::L1,
                };
            }
            *misses += 1;
            (l1_lat, out.writeback)
        };
        // L1 victim writeback goes to L2 (state only; timing folded into L2 lat).
        if let Some(victim) = l1_wb {
            self.writeback_to_l2(core, victim, now);
        }

        // MSHR merge: the line is already being fetched for this core.
        if let Some(&t) = self.cores[core].mshr.get(&line) {
            if t > now {
                let complete = t.max(now + l1_lat);
                if S::ENABLED {
                    sink.event(TraceEvent::Fill {
                        core,
                        level: 2,
                        start: now,
                        end: complete,
                    });
                }
                return AccessResult {
                    complete_at: complete,
                    level: HitLevel::L2, // charged as a near hit; fill in flight
                };
            }
        }

        // --- L2 ---
        let t_l2 = now + l1_lat;
        let (l2_lat, l2_out) = {
            let l2 = &mut self.cores[core].l2;
            (l2.config().latency, l2.access(line, false))
        };
        {
            let s = &mut self.cores[core].stats;
            if l2_out.hit {
                s.l2_hits += 1
            } else {
                s.l2_misses += 1
            }
        }
        if l2_out.hit {
            if S::ENABLED {
                sink.event(TraceEvent::Fill {
                    core,
                    level: 2,
                    start: now,
                    end: t_l2 + l2_lat,
                });
            }
            return AccessResult {
                complete_at: t_l2 + l2_lat,
                level: HitLevel::L2,
            };
        }
        if let Some(victim) = l2_out.writeback {
            self.writeback_to_llc(victim, t_l2);
        }

        // --- LLC (over the crossbar) ---
        let t_llc = t_l2 + l2_lat + self.crossbar_latency;
        let llc_lat = self.llc.config().latency;
        let llc_out = self.llc.access(line, false);
        if llc_out.hit {
            // Data may still be in flight towards the LLC (cross-core merge).
            let mut data_at_llc = t_llc + llc_lat;
            if let Some(&t) = self.llc_pending.get(&line) {
                data_at_llc = data_at_llc.max(t);
            }
            let complete = data_at_llc + self.crossbar_latency;
            self.fill_mshr(core, line, complete, now);
            if S::ENABLED {
                sink.event(TraceEvent::Fill {
                    core,
                    level: 3,
                    start: now,
                    end: complete,
                });
            }
            return AccessResult {
                complete_at: complete,
                level: HitLevel::Llc,
            };
        }
        if let Some(victim) = llc_out.writeback {
            // Dirty LLC victim consumes bus bandwidth (fire and forget).
            self.bus.transfer(t_llc);
            // The victim line is gone from the chip; nothing else to update.
            let _ = victim;
        }

        // --- DRAM over the bus ---
        let t_mem = t_llc + llc_lat;
        let dram_done = self.dram.access(line, t_mem);
        let data_at_llc = self.bus.transfer(dram_done);
        if S::ENABLED {
            sink.event(TraceEvent::DramBank {
                core,
                bank: self.dram.bank_of(line) as u8,
                start: t_mem,
                end: dram_done,
            });
            sink.event(TraceEvent::Bus {
                core,
                start: dram_done,
                end: data_at_llc,
            });
        }
        self.llc_pending.insert(line, data_at_llc);
        if data_at_llc > now {
            self.fill_events.push(std::cmp::Reverse(data_at_llc));
        }
        if self.llc_pending.len() > 256 {
            self.llc_pending.retain(|_, &mut t| t > now);
        }
        let complete = data_at_llc + self.crossbar_latency;
        self.fill_mshr(core, line, complete, now);
        if S::ENABLED {
            sink.event(TraceEvent::Fill {
                core,
                level: 4,
                start: now,
                end: complete,
            });
        }
        AccessResult {
            complete_at: complete,
            level: HitLevel::Dram,
        }
    }

    fn fill_mshr(&mut self, core: CoreId, line: LineAddr, complete: Cycle, now: Cycle) {
        let pc = &mut self.cores[core];
        pc.mshr.insert(line, complete);
        pc.prune_mshr(now);
        if complete > now {
            self.fill_events.push(std::cmp::Reverse(complete));
        }
        // Pruning only drops stale (<= now) entries, which next_event
        // ignores anyway; only the insert invalidates cached results.
        self.fills_version += 1;
    }

    fn writeback_to_l2(&mut self, core: CoreId, victim: LineAddr, now: Cycle) {
        let out = self.cores[core].l2.access(victim, true);
        if let Some(v2) = out.writeback {
            self.writeback_to_llc(v2, now);
        }
    }

    fn writeback_to_llc(&mut self, victim: LineAddr, now: Cycle) {
        let out = self.llc.access(victim, true);
        if out.writeback.is_some() {
            self.bus.transfer(now);
        }
    }

    /// Functionally warm the caches with several threads' footprints:
    /// `threads[t]` is thread `t`'s core and its footprint runs.
    ///
    /// This is SimPoint-style *functional warming*: it recreates the
    /// steady-state cache contents a long-running benchmark would have,
    /// so that short measurement windows are not dominated by cold
    /// misses the paper's 750M-instruction samples never see. Capacity
    /// and replacement are enforced by the real tag arrays, so regions
    /// that do not fit stay (correctly) partially resident.
    ///
    /// The result is exactly that of interleaving the footprints
    /// round-robin — round `i` takes line `i` of every thread that long,
    /// in thread order — and passing each line to
    /// [`prewarm_line`](Self::prewarm_line). Each cache only ever sees
    /// clean reads whose outcomes nobody uses, so its final state
    /// depends on its own reads alone, and every cache is warmed by
    /// itself with [`Cache::prewarm`]: in time bounded by its capacity
    /// for the reads before a line first repeats, one lookup per read
    /// after. Timing state and the per-core statistics are untouched.
    ///
    /// # Panics
    /// Panics if a core id is out of range.
    pub fn prewarm(&mut self, threads: &[(CoreId, Vec<LineRun>)]) {
        let n = self.cores.len();
        assert!(
            threads.iter().all(|&(c, _)| c < n),
            "prewarm: core id out of range (chip has {n} cores)"
        );
        for (c, pc) in self.cores.iter_mut().enumerate() {
            let lanes: Vec<&[LineRun]> = threads
                .iter()
                .filter(|(core, _)| *core == c)
                .map(|(_, runs)| runs.as_slice())
                .collect();
            pc.l1i.prewarm(&lanes, |r| r.code);
            pc.l1d.prewarm(&lanes, |r| !r.code);
            pc.l2.prewarm(&lanes, |_| true);
        }
        let lanes: Vec<&[LineRun]> = threads.iter().map(|(_, runs)| runs.as_slice()).collect();
        self.llc.prewarm(&lanes, |_| true);
    }

    /// Functionally install `addr`'s line into `core`'s private caches
    /// and the shared LLC without advancing any timing state (no DRAM,
    /// bus or MSHR activity, no per-core statistics): one line of a
    /// [`prewarm`](Self::prewarm), which is the same for whole
    /// footprints at once.
    pub fn prewarm_line(&mut self, core: CoreId, kind: AccessKind, addr: Addr) {
        let line = addr.line();
        let pc = &mut self.cores[core];
        match kind {
            AccessKind::Fetch => {
                pc.l1i.access(line, false);
            }
            AccessKind::Load | AccessKind::Store => {
                pc.l1d.access(line, false);
            }
        }
        pc.l2.access(line, false);
        self.llc.access(line, false);
    }

    /// Reset all hit/miss/traffic counters (typically right after
    /// pre-warming) without touching cache contents.
    pub fn reset_counters(&mut self) {
        for c in &mut self.cores {
            c.stats = CoreMemStats::default();
            c.l1i.reset_counters();
            c.l1d.reset_counters();
            c.l2.reset_counters();
        }
        self.llc.reset_counters();
    }

    /// Next-event surface for the whole memory system: the earliest
    /// cycle strictly after `now` at which an in-flight fill arrives
    /// anywhere in the hierarchy (a per-core MSHR fill or an LLC fill),
    /// or `None` if nothing is in flight.
    ///
    /// Contract (see DESIGN.md §9): a component must surface every
    /// future cycle at which its state change becomes visible to a core
    /// *without* a new request. Fill arrivals qualify — a later access
    /// to the line observes the arrival time. Bus/DRAM queue positions
    /// do not: they only matter on the next request, which is itself a
    /// core-side event, so they are exposed separately via
    /// [`Bus::next_free_at`]/[`Dram::next_free_at`] (diagnostics) but
    /// deliberately excluded here — including them would cap
    /// fast-forward jumps on state no core can observe.
    ///
    /// Entries whose arrival cycle is `<= now` are stale (pruned
    /// lazily) and are ignored.
    ///
    /// The result may be cached by the caller: it only changes when a
    /// new fill is recorded — observable via [`Self::fills_version`] —
    /// or when `now` reaches the returned cycle.
    ///
    /// O(1) amortized: fill times live in a min-heap maintained at
    /// record time; each query pops the stale prefix and peeks.
    pub fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
        while let Some(&std::cmp::Reverse(t)) = self.fill_events.peek() {
            if t > now {
                return Some(t);
            }
            self.fill_events.pop();
        }
        None
    }

    /// Monotonic counter bumped whenever a new in-flight fill is
    /// recorded. A cached [`Self::next_event`] result stays valid while
    /// this is unchanged and `now` has not reached the cached cycle.
    pub fn fills_version(&self) -> u64 {
        self.fills_version
    }

    /// Shift every absolute timestamp in the memory system forward by
    /// `delta` cycles: in-flight MSHR and LLC fill arrivals, the
    /// fill-event heap, DRAM bank queues and the bus queue head
    /// (sampled-mode time translation, DESIGN.md §15). Cache tag/LRU
    /// state uses a self-contained access counter, not engine time, so
    /// caches need no shift; hit/miss/queue counters are durations and
    /// are untouched. The shift is a uniform translation: subsequent
    /// behaviour at `now + delta` is exactly what it would have been at
    /// `now`.
    pub fn shift_time(&mut self, delta: Cycle) {
        for pc in &mut self.cores {
            for t in pc.mshr.values_mut() {
                *t += delta;
            }
        }
        for t in self.llc_pending.values_mut() {
            *t += delta;
        }
        let events: Vec<Cycle> = self.fill_events.drain().map(|r| r.0 + delta).collect();
        self.fill_events
            .extend(events.into_iter().map(std::cmp::Reverse));
        self.dram.shift_time(delta);
        self.bus.shift_time(delta);
        // A shift changes every surfaced event time, so cached
        // next_event results must be revalidated.
        self.fills_version += 1;
    }

    /// Raw integer counter snapshot used as an extrapolation baseline
    /// (sampled mode, DESIGN.md §15). Unlike [`MemStats`] this carries
    /// only additive counters (no derived averages), so window deltas
    /// can be scaled and credited exactly.
    pub fn raw_counters(&self) -> MemCounters {
        let (llc_hits, llc_misses, llc_writebacks) = self.llc.counters();
        MemCounters {
            per_core: self.cores.iter().map(|c| c.stats).collect(),
            llc_hits,
            llc_misses,
            llc_writebacks,
            dram_accesses: self.dram.accesses(),
            dram_queue_cycles: self.dram.queue_cycles(),
            bus_transfers: self.bus.transfers(),
            bus_queue_cycles: self.bus.queue_cycles(),
        }
    }

    /// Credit the counter deltas accumulated since `base`, scaled by
    /// `num / den`, on top of the current counters (sampled-mode
    /// extrapolation, DESIGN.md §15): the traffic measured over a
    /// `den`-cycle detailed window is replayed analytically over a
    /// `num`-cycle extrapolated span. Timing state (queues, in-flight
    /// fills, tag arrays) is untouched — only statistics advance.
    ///
    /// # Panics
    /// When `base` has a different core count (baseline from another
    /// machine) or `den == 0`.
    pub fn credit_scaled(&mut self, base: &MemCounters, num: u64, den: u64) {
        assert!(den > 0, "scaling window must be non-empty");
        assert_eq!(
            base.per_core.len(),
            self.cores.len(),
            "extrapolation baseline is from a different machine"
        );
        let scale = |cur: u64, was: u64| -> u64 {
            (u128::from(cur - was) * u128::from(num) / u128::from(den)) as u64
        };
        let cur = self.raw_counters();
        for (c, pc) in self.cores.iter_mut().enumerate() {
            let (b, n) = (&base.per_core[c], &cur.per_core[c]);
            pc.stats.l1i_hits += scale(n.l1i_hits, b.l1i_hits);
            pc.stats.l1i_misses += scale(n.l1i_misses, b.l1i_misses);
            pc.stats.l1d_hits += scale(n.l1d_hits, b.l1d_hits);
            pc.stats.l1d_misses += scale(n.l1d_misses, b.l1d_misses);
            pc.stats.l2_hits += scale(n.l2_hits, b.l2_hits);
            pc.stats.l2_misses += scale(n.l2_misses, b.l2_misses);
        }
        self.llc.credit_counters(
            scale(cur.llc_hits, base.llc_hits),
            scale(cur.llc_misses, base.llc_misses),
            scale(cur.llc_writebacks, base.llc_writebacks),
        );
        self.dram.credit(
            scale(cur.dram_accesses, base.dram_accesses),
            scale(cur.dram_queue_cycles, base.dram_queue_cycles),
        );
        self.bus.credit(
            scale(cur.bus_transfers, base.bus_transfers),
            scale(cur.bus_queue_cycles, base.bus_queue_cycles),
        );
    }

    /// Snapshot of all statistics.
    pub fn stats(&self) -> MemStats {
        let mut out = MemStats::default();
        self.stats_into(&mut out);
        out
    }

    /// Fill `out` with a snapshot of all statistics, reusing its
    /// `per_core` allocation. Callers that poll statistics repeatedly
    /// (progress reporting, periodic sampling) should hold one
    /// [`MemStats`] and refresh it through this instead of allocating a
    /// fresh per-core `Vec` via [`Self::stats`] on every poll.
    pub fn stats_into(&self, out: &mut MemStats) {
        out.per_core.clear();
        out.per_core.extend(self.cores.iter().map(|c| c.stats));
        let (llc_hits, llc_misses, _) = self.llc.counters();
        out.llc_hits = llc_hits;
        out.llc_misses = llc_misses;
        out.dram_accesses = self.dram.accesses();
        out.bus_bytes = self.bus.bytes();
        out.bus_avg_queue_cycles = self.bus.avg_queue_cycles();
        out.dram_avg_queue_cycles = self.dram.avg_queue_cycles();
    }

    /// Direct access to the shared LLC (for tests and detailed stats).
    pub fn llc(&self) -> &Cache {
        &self.llc
    }

    /// Serialize all mutable memory-system state: every private cache,
    /// MSHR map, the LLC and its pending-fill map, DRAM bank queues,
    /// bus queue, the fills version and the fill-event heap.
    ///
    /// Hash maps iterate in arbitrary order, so their entries are
    /// written sorted by line address — the byte stream is a pure
    /// function of the simulation state, never of hasher layout. The
    /// fill-event min-heap is likewise drained to a sorted list and
    /// rebuilt on restore, which preserves its observable behaviour
    /// exactly (a binary heap's pop order depends only on contents).
    pub fn snap_save(&self, w: &mut crate::SnapWriter) {
        w.marker(b"MEMS");
        w.usize(self.cores.len());
        for pc in &self.cores {
            pc.l1i.snap_save(w);
            pc.l1d.snap_save(w);
            pc.l2.snap_save(w);
            save_fill_map(&pc.mshr, w);
            let s = &pc.stats;
            for v in [
                s.l1i_hits,
                s.l1i_misses,
                s.l1d_hits,
                s.l1d_misses,
                s.l2_hits,
                s.l2_misses,
            ] {
                w.u64(v);
            }
        }
        self.llc.snap_save(w);
        save_fill_map(&self.llc_pending, w);
        self.dram.snap_save(w);
        self.bus.snap_save(w);
        w.u64(self.crossbar_latency);
        w.u64(self.fills_version);
        let mut events: Vec<Cycle> = self.fill_events.iter().map(|r| r.0).collect();
        events.sort_unstable();
        w.u64_slice(&events);
    }

    /// Restore state saved by [`snap_save`](Self::snap_save) into a
    /// structurally identical memory system.
    ///
    /// # Errors
    /// [`crate::SnapError`] on truncation or any structural mismatch
    /// (core count, cache geometry, bank count, crossbar latency).
    pub fn snap_restore(&mut self, r: &mut crate::SnapReader<'_>) -> Result<(), crate::SnapError> {
        r.marker(b"MEMS")?;
        let n = r.usize()?;
        crate::snap_ensure(
            n == self.cores.len(),
            format!("memory system has {} cores, snapshot {n}", self.cores.len()),
        )?;
        for pc in &mut self.cores {
            pc.l1i.snap_restore(r)?;
            pc.l1d.snap_restore(r)?;
            pc.l2.snap_restore(r)?;
            restore_fill_map(&mut pc.mshr, r)?;
            pc.stats.l1i_hits = r.u64()?;
            pc.stats.l1i_misses = r.u64()?;
            pc.stats.l1d_hits = r.u64()?;
            pc.stats.l1d_misses = r.u64()?;
            pc.stats.l2_hits = r.u64()?;
            pc.stats.l2_misses = r.u64()?;
        }
        self.llc.snap_restore(r)?;
        restore_fill_map(&mut self.llc_pending, r)?;
        self.dram.snap_restore(r)?;
        self.bus.snap_restore(r)?;
        let xbar = r.u64()?;
        crate::snap_ensure(
            xbar == self.crossbar_latency,
            format!(
                "crossbar latency: structure {}, snapshot {xbar}",
                self.crossbar_latency
            ),
        )?;
        self.fills_version = r.u64()?;
        let events = r.u64_vec()?;
        self.fill_events = events.into_iter().map(std::cmp::Reverse).collect();
        Ok(())
    }
}

/// Write a line→cycle fill map as sorted `(line, cycle)` pairs.
fn save_fill_map(map: &FastMap<LineAddr, Cycle>, w: &mut crate::SnapWriter) {
    let mut entries: Vec<(u64, Cycle)> = map.iter().map(|(l, &t)| (l.0, t)).collect();
    entries.sort_unstable();
    w.usize(entries.len());
    for (line, t) in entries {
        w.u64(line);
        w.u64(t);
    }
}

/// Read a fill map written by [`save_fill_map`].
fn restore_fill_map(
    map: &mut FastMap<LineAddr, Cycle>,
    r: &mut crate::SnapReader<'_>,
) -> Result<(), crate::SnapError> {
    let n = r.bounded_len()?;
    map.clear();
    for _ in 0..n {
        let line = r.u64()?;
        let t = r.u64()?;
        map.insert(LineAddr(line), t);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_chip() -> MemorySystem {
        MemorySystem::new(&MemoryConfig::big_core_chip(2))
    }

    #[test]
    fn cold_miss_goes_to_dram() {
        let mut m = small_chip();
        let r = m.access(0, AccessKind::Load, Addr(0x10000), 0);
        assert_eq!(r.level, HitLevel::Dram);
        // l1(3) + l2(12) + xbar(5) + llc(30) + dram(120) + bus(21) + xbar(5)
        assert!(r.complete_at >= 150, "got {}", r.complete_at);
    }

    #[test]
    fn second_access_hits_l1_but_waits_for_fill() {
        let mut m = small_chip();
        let r1 = m.access(0, AccessKind::Load, Addr(0x10000), 0);
        let r2 = m.access(0, AccessKind::Load, Addr(0x10008), 5);
        assert_eq!(r2.level, HitLevel::L1);
        // The L1 "hit" cannot complete before the fill arrives.
        assert_eq!(r2.complete_at, r1.complete_at);
        // Long after the fill, it's a plain L1 hit.
        let r3 = m.access(0, AccessKind::Load, Addr(0x10000), 100_000);
        assert_eq!(r3.complete_at, 100_000 + 3);
    }

    #[test]
    fn next_event_tracks_inflight_fills() {
        let mut m = small_chip();
        // Idle system: nothing in flight, no events.
        assert_eq!(m.next_event(0), None);
        let r1 = m.access(0, AccessKind::Load, Addr(0x10000), 0);
        // The fill arrival is the earliest (only) future event. Fills
        // may land in a cache a few cycles before the core-visible
        // completion (return crossbar hop), so the event may lead
        // `complete_at` — never trail it (one-sided safety).
        let e0 = m.next_event(0).expect("fill in flight");
        assert!(
            e0 > 0 && e0 <= r1.complete_at,
            "event {e0} vs {}",
            r1.complete_at
        );
        // A second, later miss from the other core: earliest still wins.
        let r2 = m.access(1, AccessKind::Load, Addr(0x50000), 10);
        assert!(r2.complete_at > r1.complete_at);
        assert_eq!(m.next_event(0), Some(e0));
        // Once `now` passes an arrival, it stops being an event.
        let e1 = m.next_event(r1.complete_at).expect("second fill in flight");
        assert!(e1 > r1.complete_at && e1 <= r2.complete_at);
        assert_eq!(m.next_event(r2.complete_at), None);
        // Queue-drain diagnostics are exposed but never folded in.
        assert!(m.bus.next_free_at() > 0);
        assert!(m.dram.next_free_at() > 0);
    }

    #[test]
    fn cross_core_llc_sharing() {
        let mut m = small_chip();
        m.access(0, AccessKind::Load, Addr(0x20000), 0);
        // Much later, core 1 reads the same line: LLC hit, no DRAM.
        let before = m.stats().dram_accesses;
        let r = m.access(1, AccessKind::Load, Addr(0x20000), 50_000);
        assert_eq!(r.level, HitLevel::Llc);
        assert_eq!(m.stats().dram_accesses, before);
    }

    #[test]
    fn fetch_uses_icache() {
        let mut m = small_chip();
        m.access(0, AccessKind::Fetch, Addr(0x30000), 0);
        let s = m.stats();
        assert_eq!(s.per_core[0].l1i_misses, 1);
        assert_eq!(s.per_core[0].l1d_misses, 0);
    }

    #[test]
    fn stores_write_allocate_and_writeback_consumes_bus() {
        // Stream stores through a tiny working set larger than all caches;
        // eventually dirty lines must be written back over the bus.
        let mut m = small_chip();
        let mut now = 0;
        // 16MB of store traffic > 8MB LLC
        for i in 0..(16 * 1024 * 1024 / 64) {
            let r = m.access(0, AccessKind::Store, Addr(i * 64), now);
            now = r.complete_at;
        }
        let s = m.stats();
        // bus bytes must exceed pure fill traffic (writebacks included)
        assert!(s.bus_bytes > s.dram_accesses * 64, "writebacks missing");
    }

    #[test]
    fn bandwidth_pressure_grows_queueing() {
        // Two cores streaming disjoint data should contend on the bus.
        let mut m = small_chip();
        for i in 0..2_000u64 {
            m.access(0, AccessKind::Load, Addr(0x100_0000 + i * 64), i * 4);
            m.access(1, AccessKind::Load, Addr(0x900_0000 + i * 64), i * 4);
        }
        assert!(m.stats().bus_avg_queue_cycles > 1.0);
    }

    #[test]
    fn heterogeneous_private_caches() {
        let cfg = MemoryConfig {
            per_core: vec![PrivateCacheConfig::big(), PrivateCacheConfig::small()],
            llc: MemoryConfig::default_llc(),
            crossbar_latency: 5,
            dram: DramConfig::default(),
            bus: BusConfig::default(),
            freq_ghz: 2.66,
        };
        let mut m = MemorySystem::new(&cfg);
        // A 16KB working set fits in the big core's 32KB L1 but not the
        // small core's 6KB L1.
        let lines = 16 * 1024 / 64;
        for pass in 0..4u64 {
            for i in 0..lines {
                let t = pass * 100_000 + i * 10;
                m.access(0, AccessKind::Load, Addr(i * 64), t);
                m.access(1, AccessKind::Load, Addr(0x800_0000 + i * 64), t);
            }
        }
        let s = m.stats();
        let big_mr = s.per_core[0].l1d_misses as f64
            / (s.per_core[0].l1d_hits + s.per_core[0].l1d_misses) as f64;
        let small_mr = s.per_core[1].l1d_misses as f64
            / (s.per_core[1].l1d_hits + s.per_core[1].l1d_misses) as f64;
        assert!(
            small_mr > big_mr * 2.0,
            "small core should thrash: big {big_mr:.3} small {small_mr:.3}"
        );
    }

    #[test]
    fn llc_capacity_contention_between_cores() {
        // Core 0 repeatedly touches a 4MB set; alone it should settle into
        // LLC hits. When core 1 streams 16MB through the LLC, core 0's
        // lines get evicted.
        let cfg = MemoryConfig::big_core_chip(2);
        let mut alone = MemorySystem::new(&cfg);
        let hot_lines = 4 * 1024 * 1024 / 64;
        let mut t = 0;
        for pass in 0..3u64 {
            for i in 0..hot_lines {
                let r = alone.access(0, AccessKind::Load, Addr(i * 64), t);
                t = r.complete_at;
                let _ = pass;
            }
        }
        let alone_dram = alone.stats().dram_accesses;

        let mut shared = MemorySystem::new(&cfg);
        let mut t = 0;
        for pass in 0..3u64 {
            for i in 0..hot_lines {
                let r = shared.access(0, AccessKind::Load, Addr(i * 64), t);
                // streaming co-runner
                shared.access(
                    1,
                    AccessKind::Load,
                    Addr(0x4000_0000 + (pass * hot_lines + i) * 64 * 4),
                    t,
                );
                t = r.complete_at;
            }
        }
        let shared_dram_core0: u64 = shared.stats().per_core[0].l2_misses;
        let alone_l2miss = alone.stats().per_core[0].l2_misses;
        // Same L2 behaviour but more of those misses now miss in LLC too.
        assert_eq!(shared_dram_core0, alone_l2miss);
        assert!(shared.stats().dram_accesses > alone_dram);
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        // Drive some traffic, snapshot, restore into a fresh structure,
        // then verify that *future* behaviour is identical: every
        // subsequent access completes at the same cycle with the same
        // hit level, and the statistics agree exactly.
        let mut m = small_chip();
        let mut now = 0;
        for i in 0..300u64 {
            let r = m.access(
                (i % 2) as usize,
                if i % 3 == 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
                Addr(0x4_0000 + (i % 97) * 64),
                now,
            );
            now = r.complete_at.min(now + 7);
        }
        let mut w = crate::SnapWriter::new();
        m.snap_save(&mut w);
        let bytes = w.finish();

        let mut m2 = small_chip();
        let mut r = crate::SnapReader::new(&bytes);
        m2.snap_restore(&mut r).expect("restores");
        r.expect_end().expect("stream fully consumed");

        assert_eq!(m.stats(), m2.stats());
        assert_eq!(m.fills_version(), m2.fills_version());
        for i in 0..200u64 {
            let a = m.access(0, AccessKind::Load, Addr(0x9_0000 + i * 64), now + i);
            let b = m2.access(0, AccessKind::Load, Addr(0x9_0000 + i * 64), now + i);
            assert_eq!(a, b, "divergence at post-restore access {i}");
        }
        assert_eq!(m.next_event(now), m2.next_event(now));
    }

    #[test]
    fn snapshot_restore_rejects_wrong_structure() {
        let mut m = small_chip();
        m.access(0, AccessKind::Load, Addr(0x1000), 0);
        let mut w = crate::SnapWriter::new();
        m.snap_save(&mut w);
        let bytes = w.finish();
        // Wrong core count.
        let mut other = MemorySystem::new(&MemoryConfig::big_core_chip(3));
        let mut r = crate::SnapReader::new(&bytes);
        assert!(other.snap_restore(&mut r).is_err());
        // Wrong cache geometry (small vs big private caches).
        let cfg = MemoryConfig {
            per_core: vec![PrivateCacheConfig::small(); 2],
            llc: MemoryConfig::default_llc(),
            crossbar_latency: 5,
            dram: DramConfig::default(),
            bus: BusConfig::default(),
            freq_ghz: 2.66,
        };
        let mut wrong_geom = MemorySystem::new(&cfg);
        let mut r = crate::SnapReader::new(&bytes);
        assert!(wrong_geom.snap_restore(&mut r).is_err());
        // Truncated stream.
        let mut same = small_chip();
        let mut r = crate::SnapReader::new(&bytes[..bytes.len() / 2]);
        assert!(same.snap_restore(&mut r).is_err());
    }
}
