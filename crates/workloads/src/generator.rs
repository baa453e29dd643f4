//! The instruction-stream generator: turns a [`BenchmarkProfile`] into
//! an unbounded, deterministic sequence of [`Instr`]s.

use tlpsim_mem::{Addr, LineRun, LINE_BYTES};

use crate::instr::{Instr, InstrKind};
use crate::profile::BenchmarkProfile;
use crate::rng::SplitMix64;

/// Size of the per-thread private address space (1 GiB). Programs in a
/// multi-program workload are placed in disjoint spaces so they only
/// interact through shared-resource contention, exactly as separate
/// processes would.
pub const THREAD_SPACE_BYTES: u64 = 1 << 30;

/// An unbounded instruction stream for one software thread.
///
/// The stream is deterministic in `(profile, space_id, seed)`. It
/// implements [`Iterator`] and never ends; consumers take as many
/// instructions as their simulation budget requires.
#[derive(Debug, Clone)]
pub struct InstrStream {
    profile: BenchmarkProfile,
    rng: SplitMix64,
    /// Base address of this thread's private data region.
    data_base: u64,
    /// Base address of this thread's code region.
    code_base: u64,
    /// Optional shared region (multi-threaded apps): `(base, bytes)`.
    shared: Option<(u64, u64)>,
    /// Probability a memory access targets the shared region.
    shared_frac: f64,
    /// Current streaming pointer offset.
    stream_pos: u64,
    /// Current program counter offset within the code region.
    pc: u64,
    /// Dynamic instruction count so far.
    seq: u64,
}

impl InstrStream {
    /// Create the stream for `space_id` (a unique index per software
    /// thread in the simulated system) with the given seed.
    pub fn new(profile: &BenchmarkProfile, space_id: u64, seed: u64) -> Self {
        debug_assert!(profile.validate().is_ok());
        let base = space_id * THREAD_SPACE_BYTES;
        // Per-thread set coloring: physical page allocation staggers
        // where each process lands in the caches. Without this, spaces
        // exactly 1 GiB apart alias onto identical cache sets and
        // co-running threads thrash a fraction of each cache while the
        // rest sits idle (65 lines = an odd multiple of the line size,
        // co-prime to every power-of-two set count).
        let color = (space_id % 61) * 65 * 64;
        InstrStream {
            profile: profile.clone(),
            rng: SplitMix64::new(seed ^ space_id.wrapping_mul(0xA076_1D64_78BD_642F)),
            data_base: base + (64 << 20) + color, // data 64MB into the space
            code_base: base + color,
            shared: None,
            shared_frac: 0.0,
            stream_pos: 0,
            pc: 0,
            seq: 0,
        }
    }

    /// Give the stream access to a shared data region (multi-threaded
    /// applications). A fraction `frac` of memory accesses will target
    /// uniformly random lines of the region.
    pub fn with_shared_region(mut self, base: u64, bytes: u64, frac: f64) -> Self {
        assert!(bytes > 0 && (0.0..=1.0).contains(&frac));
        self.shared = Some((base, bytes));
        self.shared_frac = frac;
        self
    }

    /// The profile this stream draws from.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// Dynamic instructions generated so far.
    pub fn generated(&self) -> u64 {
        self.seq
    }

    /// Serialize the stream's mutable cursor (RNG state, streaming
    /// pointer, PC, dynamic instruction count). The profile, address
    /// bases and shared-region setup are structural — deterministic
    /// from the cell construction — and are not serialized; a restored
    /// stream continues producing the exact instruction sequence the
    /// saved one would have.
    pub fn snap_save(&self, w: &mut tlpsim_mem::SnapWriter) {
        w.marker(b"STRM");
        w.u64(self.rng.raw_state());
        w.u64(self.stream_pos);
        w.u64(self.pc);
        w.u64(self.seq);
    }

    /// Restore the cursor saved by [`snap_save`](Self::snap_save).
    ///
    /// # Errors
    /// [`tlpsim_mem::SnapError`] on truncation or marker mismatch.
    pub fn snap_restore(
        &mut self,
        r: &mut tlpsim_mem::SnapReader<'_>,
    ) -> Result<(), tlpsim_mem::SnapError> {
        r.marker(b"STRM")?;
        self.rng = SplitMix64::from_raw_state(r.u64()?);
        self.stream_pos = r.u64()?;
        self.pc = r.u64()?;
        self.seq = r.u64()?;
        Ok(())
    }

    fn draw_kind(&mut self) -> InstrKind {
        // Branchless cumulative-threshold walk. The outcome is random,
        // so a compare-and-return cascade mispredicts on almost every
        // instruction; summing the indicator `x >= acc_i` instead picks
        // the same kind (the thresholds are non-decreasing, so the
        // indicators are a monotone prefix and their count is the first
        // index with `x < acc`) with straight-line code. The
        // accumulation order matches the old cascade exactly, so every
        // float compare sees bit-identical values and the generated
        // stream is unchanged.
        const KINDS: [InstrKind; 7] = [
            InstrKind::IntAlu,
            InstrKind::IntMul,
            InstrKind::IntDiv,
            InstrKind::FpAlu,
            InstrKind::Load,
            InstrKind::Store,
            InstrKind::Branch,
        ];
        let m = &self.profile.mix;
        let x = self.rng.next_f64();
        let mut acc = m.int_alu;
        let mut k = usize::from(x >= acc);
        acc += m.int_mul;
        k += usize::from(x >= acc);
        acc += m.int_div;
        k += usize::from(x >= acc);
        acc += m.fp_alu;
        k += usize::from(x >= acc);
        acc += m.load;
        k += usize::from(x >= acc);
        acc += m.store;
        k += usize::from(x >= acc);
        KINDS[k]
    }

    fn draw_dep(&mut self) -> u16 {
        let d = &self.profile.dep;
        // Both arms consume exactly one `below` draw, so selecting the
        // bound (a conditional move) instead of branching keeps the RNG
        // stream and the result identical while avoiding a
        // data-dependent branch.
        let max = if self.rng.chance(d.near_frac) {
            d.near_max
        } else {
            d.far_max
        };
        let dist = 1 + self.rng.below(max as u64);
        // Clamp to the instructions that actually exist.
        dist.min(self.seq) as u16
    }

    fn draw_addr(&mut self) -> Addr {
        // Shared region first (multi-threaded apps only). Popularity is
        // power-law skewed (u^3): a small set of hot shared lines absorbs
        // most accesses — reuse exists at any simulation scale — while
        // the long tail still pressures the LLC and memory bus.
        if self.shared_frac > 0.0 && self.rng.chance(self.shared_frac) {
            if let Some((base, bytes)) = self.shared {
                let u = self.rng.next_f64();
                let idx = ((bytes / 8) as f64 * u * u * u) as u64;
                return Addr(base + idx * 8);
            }
        }
        let m = &self.profile.mem;
        let x = self.rng.next_f64();
        if x < m.hot_frac {
            Addr(self.data_base + self.rng.below(m.hot_bytes / 8) * 8)
        } else if x < m.hot_frac + m.stream_frac {
            self.stream_pos = (self.stream_pos + m.stream_stride) % m.cold_bytes;
            Addr(self.data_base + m.hot_bytes + self.stream_pos)
        } else {
            Addr(self.data_base + m.hot_bytes + self.rng.below(m.cold_bytes / 8) * 8)
        }
    }

    /// Lines to functionally pre-warm before timed simulation, as runs
    /// in warming order: the tail of the cold/streaming region (capped —
    /// regions larger than any cache can only ever be partially
    /// resident), the head of the shared region, the code footprint,
    /// and finally the hot set (last, so LRU keeps it closest).
    pub fn prewarm_runs(&self) -> Vec<LineRun> {
        /// Regions beyond this can't be fully cache-resident anyway.
        const COLD_CAP: u64 = 12 * 1024 * 1024;
        // The bytes `start + 64k` below `start + bytes`, as lines.
        let run = |code, start: u64, bytes: u64| LineRun {
            code,
            first: Addr(start).line(),
            len: bytes.div_ceil(LINE_BYTES),
        };
        let m = &self.profile.mem;
        let cold = m.cold_bytes.min(COLD_CAP);
        let mut v = vec![run(
            false,
            self.data_base + m.hot_bytes + (m.cold_bytes - cold),
            cold,
        )];
        // Shared region (hot head: the power-law skew favours low
        // addresses, so warm from the start).
        if let Some((base, bytes)) = self.shared {
            v.push(run(false, base, bytes.min(COLD_CAP)));
        }
        v.push(run(true, self.code_base, self.profile.code_bytes));
        v.push(run(false, self.data_base, m.hot_bytes));
        v
    }

    /// [`prewarm_runs`](Self::prewarm_runs) expanded line by line:
    /// `(is_code, line base address)` pairs in warming order.
    pub fn prewarm_addrs(&self) -> Vec<(bool, Addr)> {
        self.prewarm_runs()
            .into_iter()
            .flat_map(|r| r.lines().map(move |l| (r.code, l.base())))
            .collect()
    }

    fn advance_pc(&mut self) -> Addr {
        let fetch = Addr(self.code_base + self.pc);
        if self.rng.chance(self.profile.code_jump_prob) {
            // Jump to a random (aligned) location in the code footprint.
            self.pc = self.rng.below(self.profile.code_bytes / 16) * 16;
        } else {
            // `pc < code_bytes` always holds, so the sequential wrap is
            // a single compare instead of a 64-bit remainder.
            self.pc += 4;
            if self.pc >= self.profile.code_bytes {
                self.pc -= self.profile.code_bytes;
            }
        }
        fetch
    }
}

impl Iterator for InstrStream {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        let kind = self.draw_kind();
        let fetch_addr = self.advance_pc();
        let src1_dist = self.draw_dep();
        let src2_dist = if self.rng.chance(self.profile.dep.two_src_frac) {
            self.draw_dep()
        } else {
            0
        };
        let addr = if kind.is_mem() {
            self.draw_addr()
        } else {
            Addr(0)
        };
        let mispredicted =
            kind == InstrKind::Branch && self.rng.chance(self.profile.mispredict_rate);
        self.seq += 1;
        Some(Instr {
            kind,
            src1_dist,
            src2_dist,
            addr,
            fetch_addr,
            mispredicted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{DepProfile, InstrMix, MemProfile};
    use tlpsim_mem::LineAddr;

    fn profile() -> BenchmarkProfile {
        BenchmarkProfile {
            name: "gen_test",
            mix: InstrMix::typical_int(),
            dep: DepProfile::high_ilp(),
            mem: MemProfile::cache_friendly(),
            mispredict_rate: 0.05,
            code_bytes: 16 * 1024,
            code_jump_prob: 0.05,
        }
    }

    #[test]
    fn deterministic() {
        let a: Vec<_> = InstrStream::new(&profile(), 0, 1).take(1000).collect();
        let b: Vec<_> = InstrStream::new(&profile(), 0, 1).take(1000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_spaces_have_disjoint_addresses() {
        let a: Vec<_> = InstrStream::new(&profile(), 0, 1).take(5000).collect();
        let b: Vec<_> = InstrStream::new(&profile(), 1, 1).take(5000).collect();
        let max_a = a.iter().map(|i| i.addr.0).max().unwrap();
        let min_b = b
            .iter()
            .filter(|i| i.kind.is_mem())
            .map(|i| i.addr.0)
            .min()
            .unwrap();
        assert!(max_a < THREAD_SPACE_BYTES);
        assert!(min_b >= THREAD_SPACE_BYTES);
    }

    #[test]
    fn mix_is_respected() {
        let n = 200_000;
        let stream = InstrStream::new(&profile(), 0, 3);
        let mut loads = 0u32;
        let mut branches = 0u32;
        for i in stream.take(n) {
            match i.kind {
                InstrKind::Load => loads += 1,
                InstrKind::Branch => branches += 1,
                _ => {}
            }
        }
        let lf = loads as f64 / n as f64;
        let bf = branches as f64 / n as f64;
        assert!((lf - 0.25).abs() < 0.01, "load frac {lf}");
        assert!((bf - 0.20).abs() < 0.01, "branch frac {bf}");
    }

    #[test]
    fn deps_never_point_before_stream_start() {
        for i in InstrStream::new(&profile(), 0, 4).take(100) {
            assert!(u64::from(i.src1_dist) <= 100);
        }
        // the very first instruction cannot depend on anything
        let first = InstrStream::new(&profile(), 0, 4).next().unwrap();
        assert_eq!(first.src1_dist, 0);
        assert_eq!(first.src2_dist, 0);
    }

    #[test]
    fn mispredict_rate_is_approximate() {
        let mut mis = 0u32;
        let mut total = 0u32;
        for i in InstrStream::new(&profile(), 0, 5).take(200_000) {
            if i.kind == InstrKind::Branch {
                total += 1;
                if i.mispredicted {
                    mis += 1;
                }
            }
        }
        let rate = mis as f64 / total as f64;
        assert!((rate - 0.05).abs() < 0.01, "mispredict rate {rate}");
    }

    #[test]
    fn hot_set_addresses_stay_hot() {
        let p = profile();
        let hot = p.mem.hot_bytes;
        let mut in_hot = 0u32;
        let mut mem = 0u32;
        for i in InstrStream::new(&p, 0, 6).take(100_000) {
            if i.kind.is_mem() {
                mem += 1;
                if i.addr.0 - (64 << 20) < hot {
                    in_hot += 1;
                }
            }
        }
        let frac = in_hot as f64 / mem as f64;
        assert!((frac - 0.97).abs() < 0.02, "hot frac {frac}");
    }

    #[test]
    fn snapshot_round_trip_continues_the_stream() {
        let p = profile();
        let mut a = InstrStream::new(&p, 0, 9).with_shared_region(0x4000_0000_0000, 1 << 20, 0.3);
        for _ in 0..12_345 {
            a.next().unwrap();
        }
        let mut w = tlpsim_mem::SnapWriter::new();
        a.snap_save(&mut w);
        let bytes = w.finish();
        // Restore into a structurally-identical but freshly built stream.
        let mut b = InstrStream::new(&p, 0, 9).with_shared_region(0x4000_0000_0000, 1 << 20, 0.3);
        let mut r = tlpsim_mem::SnapReader::new(&bytes);
        b.snap_restore(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(b.generated(), a.generated());
        for i in 0..10_000u64 {
            assert_eq!(a.next(), b.next(), "instr {i} diverged after restore");
        }
        // Truncated snapshots are errors, not panics.
        let mut c = InstrStream::new(&p, 0, 9);
        assert!(c
            .snap_restore(&mut tlpsim_mem::SnapReader::new(&bytes[..bytes.len() - 1]))
            .is_err());
    }

    #[test]
    fn prewarm_runs_cover_the_byte_walk_line_for_line() {
        // The footprint as a 64-byte stride over each region: cold tail,
        // shared head, code, hot set.
        fn byte_walk(s: &InstrStream) -> Vec<(bool, LineAddr)> {
            const CAP: u64 = 12 * 1024 * 1024;
            let m = &s.profile.mem;
            let cold = m.cold_bytes.min(CAP);
            let mut regions = vec![(
                false,
                s.data_base + m.hot_bytes + (m.cold_bytes - cold),
                cold,
            )];
            if let Some((base, bytes)) = s.shared {
                regions.push((false, base, bytes.min(CAP)));
            }
            regions.push((true, s.code_base, s.profile.code_bytes));
            regions.push((false, s.data_base, m.hot_bytes));
            regions
                .into_iter()
                .flat_map(|(code, start, bytes)| {
                    (start..start + bytes)
                        .step_by(64)
                        .map(move |a| (code, Addr(a).line()))
                })
                .collect()
        }
        let mut odd = profile();
        odd.mem.hot_bytes = 1000; // the cold tail starts mid-line
        odd.code_bytes = 100;
        let mut big = profile();
        big.mem.cold_bytes = 20 * 1024 * 1024; // capped tail
        for (p, space) in [(profile(), 0), (odd, 3), (big, 7)] {
            let plain = InstrStream::new(&p, space, 1);
            let shared = plain
                .clone()
                .with_shared_region(0x7000_0000_0010, 5000, 0.2);
            for s in [plain, shared] {
                let lines: Vec<(bool, LineAddr)> = s
                    .prewarm_runs()
                    .into_iter()
                    .flat_map(|r| r.lines().map(move |l| (r.code, l)))
                    .collect();
                assert_eq!(lines, byte_walk(&s));
                let addrs: Vec<(bool, LineAddr)> = s
                    .prewarm_addrs()
                    .into_iter()
                    .map(|(c, a)| (c, a.line()))
                    .collect();
                assert_eq!(addrs, lines);
            }
        }
    }

    #[test]
    fn shared_region_accesses_appear() {
        let p = profile();
        let s = InstrStream::new(&p, 0, 7).with_shared_region(0x4000_0000_0000, 1 << 20, 0.5);
        let mut shared = 0u32;
        let mut mem = 0u32;
        for i in s.take(50_000) {
            if i.kind.is_mem() {
                mem += 1;
                if i.addr.0 >= 0x4000_0000_0000 {
                    shared += 1;
                }
            }
        }
        let frac = shared as f64 / mem as f64;
        assert!((frac - 0.5).abs() < 0.05, "shared frac {frac}");
    }
}
