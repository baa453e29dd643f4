//! The experiment context: memoized simulation of design-space cells.
//!
//! A *cell* is one point of the design space: a (design, thread count,
//! workload class, SMT mode, bus bandwidth) tuple evaluated over the 12
//! workloads of that class (12 homogeneous workloads = 12 benchmarks;
//! 12 heterogeneous workloads = the balanced-random mixes of Section
//! 3.2). The context caches cells, isolated-benchmark profiles and
//! PARSEC-like application runs so that the many figures built from the
//! same underlying simulations (Figs. 3, 5-10, 13-15) pay for them
//! once, and it runs independent simulations on a host thread pool.
//!
//! Everything on the simulation path returns [`Result`]: a stalled,
//! misconfigured or budget-exhausted cell is a [`SimError`] value the
//! caller can log and skip, never a panic (DESIGN.md §7).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use tlpsim_power::{CoreKind, PowerModel};
use tlpsim_sched::{assign_threads, Placement, ThreadTraits};
use tlpsim_uarch::{
    ChipConfig, ChipCpi, CoreConfig, Cycle, MultiCore, RunResult, RunStatus, ThreadProgram,
    TraceSink, DEFAULT_WATCHDOG_CYCLES,
};
use tlpsim_workloads::{mix, parsec, spec, InstrStream, ParsecApp, Segment};

use crate::configs::Design;
use crate::diskcache::{fnv1a64, DiskCache, Record};
use crate::error::SimError;
use crate::executor::lock_unpoisoned as lock;
use crate::metrics;
use crate::mode::SimMode;
use crate::SimScale;
use crate::{interrupt, snapshot};

pub use crate::executor::par_map;

/// Which of the paper's two multi-program workload classes a cell uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Multiple copies of the same benchmark.
    Homogeneous,
    /// Balanced-random mixes of different benchmarks.
    Heterogeneous,
}

/// Cache key for a multi-program cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Design name (`"4B"`, ...).
    pub design: String,
    /// Active thread count.
    pub n: usize,
    /// Workload class.
    pub kind: WorkloadKind,
    /// SMT enabled on this chip.
    pub smt: bool,
    /// Off-chip bandwidth in tenths of GB/s (80 or 160).
    pub bus_dgbps: u32,
    /// Simulation mode the cell was produced under. Sampled cells carry
    /// a measured error bound, exact cells none — they must never be
    /// confused, so the mode is part of the key everywhere the cell is
    /// stored (in memory, on disk, in sweep journals).
    pub mode: SimMode,
}

/// Results of one cell: per-workload metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// STP per workload (12 entries).
    pub stp: Vec<f64>,
    /// ANTT per workload.
    pub antt: Vec<f64>,
    /// Average chip power per workload (power gating on), watts.
    pub power_w: Vec<f64>,
}

impl Cell {
    /// Harmonic-mean STP across workloads (the paper's average for
    /// rate metrics). `NaN` on degenerate data (a populated cell
    /// always carries 12 positive STPs, so this only fires on
    /// hand-built cells).
    pub fn mean_stp(&self) -> f64 {
        metrics::harmonic_mean(&self.stp).unwrap_or(f64::NAN)
    }

    /// Arithmetic-mean ANTT across workloads (`NaN` if empty).
    pub fn mean_antt(&self) -> f64 {
        metrics::arithmetic_mean(&self.antt).unwrap_or(f64::NAN)
    }

    /// Arithmetic-mean chip power across workloads, watts (`NaN` if
    /// empty).
    pub fn mean_power(&self) -> f64 {
        metrics::arithmetic_mean(&self.power_w).unwrap_or(f64::NAN)
    }
}

/// Result of one PARSEC-like application run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsecOutcome {
    /// Cycles spent in the region of interest (between the first and
    /// last barrier release).
    pub roi_cycles: u64,
    /// Whole-program cycles (serial init/finalize included).
    pub total_cycles: u64,
    /// Active-thread histogram over the ROI (`[k]` = cycles with `k`
    /// runnable threads).
    pub histogram: Vec<u64>,
}

/// Cache key for a PARSEC run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParsecKey {
    /// Design name.
    pub design: String,
    /// Application index into [`parsec::all`].
    pub app: usize,
    /// Thread count.
    pub n: usize,
    /// SMT enabled.
    pub smt: bool,
    /// Off-chip bandwidth in tenths of GB/s.
    pub bus_dgbps: u32,
}

/// Counts of memoized results (diagnostics; also exercised by the
/// cache-recovery tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Isolated-profile entries.
    pub iso: usize,
    /// Multi-program cells.
    pub cells: usize,
    /// PARSEC runs.
    pub parsec: usize,
}

/// In-cell checkpoint policy (DESIGN.md §12, level 2): where engine
/// snapshots live and how often they are taken.
#[derive(Debug, Clone)]
struct CkptPolicy {
    /// Directory holding one `<hash>.ckpt` file per in-flight mix run.
    dir: PathBuf,
    /// Checkpoint cadence in chip cycles.
    every: Cycle,
}

/// The memoizing experiment context. Cheap to share by reference
/// across host threads; all caches are internally synchronized.
#[derive(Debug)]
pub struct Ctx {
    /// Simulation scale used for every run.
    pub scale: SimScale,
    /// Simulation mode for multi-program cells (exact by default).
    mode: SimMode,
    /// Watchdog window passed to every engine run.
    watchdog_cycles: Cycle,
    iso: Mutex<HashMap<(usize, CoreKind), f64>>,
    cells: Mutex<HashMap<CellKey, Arc<Cell>>>,
    parsec_runs: Mutex<HashMap<ParsecKey, Arc<ParsecOutcome>>>,
    disk: Option<DiskCache>,
    ckpt: Option<CkptPolicy>,
}

impl Ctx {
    /// Create a context at the given scale.
    pub fn new(scale: SimScale) -> Self {
        Ctx {
            scale,
            mode: SimMode::Exact,
            watchdog_cycles: DEFAULT_WATCHDOG_CYCLES,
            iso: Mutex::new(HashMap::new()),
            cells: Mutex::new(HashMap::new()),
            parsec_runs: Mutex::new(HashMap::new()),
            disk: None,
            ckpt: None,
        }
    }

    /// Create a context backed by an append-only result cache on disk,
    /// so separate processes (e.g. the per-figure bench targets) share
    /// simulation work. The file is only reused when its versioned
    /// header matches `scale`; on mismatch it is truncated. Corrupt or
    /// torn tails are truncated away and replay continues; records with
    /// malformed keys are rejected. I/O failure degrades to an
    /// in-memory context (with a note on stderr), never an abort.
    pub fn with_disk_cache<P: AsRef<std::path::Path>>(scale: SimScale, path: P) -> Self {
        let mut ctx = Self::new(scale);
        let path = path.as_ref();
        match DiskCache::open(scale, path) {
            Ok((disk, records, report)) => {
                for rec in records {
                    ctx.apply_record(rec);
                }
                if report.rejected > 0 {
                    eprintln!(
                        "tlpsim: cache {}: rejected {} malformed record(s)",
                        path.display(),
                        report.rejected
                    );
                }
                if let Some(at) = report.truncated_at {
                    eprintln!(
                        "tlpsim: cache {}: corrupt tail truncated at byte {at}; {} record(s) recovered",
                        path.display(),
                        report.replayed
                    );
                }
                ctx.disk = Some(disk);
            }
            Err(e) => {
                eprintln!(
                    "tlpsim: cache {} unavailable ({e}); continuing without disk cache",
                    path.display()
                );
            }
        }
        ctx
    }

    /// Override the engine watchdog window (cycles without a commit
    /// before a run aborts as [`SimError::Stalled`]).
    pub fn with_watchdog(mut self, cycles: Cycle) -> Self {
        self.watchdog_cycles = cycles.max(1);
        self
    }

    /// Select the simulation mode for multi-program cells. In
    /// [`SimMode::Sampled`] the detailed engine extrapolates through
    /// detected steady state (DESIGN.md §15), every produced cell is
    /// keyed by the mode (so sampled and exact results never mix in any
    /// cache or journal), and in-cell checkpointing is disabled for
    /// sampled runs (a sampled cell is cheap enough to re-simulate).
    /// Isolated profiling ([`iso_ipc`](Self::iso_ipc)) and PARSEC runs
    /// always stay exact: the former is the shared STP/ANTT
    /// normalization baseline, the latter's segmented threads refuse
    /// extrapolation anyway.
    pub fn with_mode(mut self, mode: SimMode) -> Self {
        self.mode = mode;
        self
    }

    /// The mode multi-program cells run under.
    pub fn mode(&self) -> SimMode {
        self.mode
    }

    /// Enable in-cell checkpointing: every multi-program mix run saves
    /// its full engine state to `dir` every `every_cycles` chip cycles
    /// (atomically — see [`crate::snapshot`]), restores a valid
    /// checkpoint on re-entry, and checkpoints-and-stops when an
    /// interrupt is [`crate::interrupt::requested`]. Restored runs are
    /// bit-identical to uninterrupted ones; an unreadable or foreign
    /// checkpoint just recomputes from scratch.
    pub fn with_checkpoints<P: Into<PathBuf>>(mut self, dir: P, every_cycles: Cycle) -> Self {
        self.ckpt = Some(CkptPolicy {
            dir: dir.into(),
            every: every_cycles.max(1),
        });
        self
    }

    /// Install one replayed cache record.
    fn apply_record(&mut self, rec: Record) {
        match rec {
            Record::Iso { bench, kind, ipc } => {
                lock(&self.iso).insert((bench, kind), ipc);
            }
            Record::Cell { key, cell } => {
                lock(&self.cells).insert(key, Arc::new(cell));
            }
            Record::Parsec { key, out } => {
                lock(&self.parsec_runs).insert(key, Arc::new(out));
            }
        }
    }

    fn persist(&self, rec: &Record) {
        if let Some(disk) = &self.disk {
            disk.append(rec);
        }
    }

    /// How many results are memoized right now.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            iso: lock(&self.iso).len(),
            cells: lock(&self.cells).len(),
            parsec: lock(&self.parsec_runs).len(),
        }
    }

    /// Build and configure an engine instance.
    fn new_sim(&self, chip: &ChipConfig) -> MultiCore {
        let mut sim = MultiCore::new(chip);
        sim.set_watchdog(self.watchdog_cycles);
        sim
    }

    /// [`new_sim`](Self::new_sim) with an explicit trace sink (the
    /// sampled path needs [`ChipCpi`] accounting for its phase
    /// detector).
    fn new_sim_with<S: TraceSink>(&self, chip: &ChipConfig, sink: S) -> MultiCore<S> {
        let mut sim = MultiCore::with_sink(chip, sink);
        sim.set_watchdog(self.watchdog_cycles);
        sim
    }

    /// Add, pin and prewarm one multi-program mix's threads — the part
    /// of mix setup that is identical across exact and sampled runs.
    fn populate_mix<S: TraceSink>(
        &self,
        sim: &mut MultiCore<S>,
        mixv: &[usize],
        placements: &[Placement],
        wl_seed: u64,
    ) {
        let profiles = spec::all();
        for (i, &b) in mixv.iter().enumerate() {
            let stream = InstrStream::new(
                &profiles[b],
                i as u64,
                self.scale.seed ^ (wl_seed << 20) ^ 0x9E37,
            );
            let t = sim.add_thread(ThreadProgram::multiprogram_with_warmup(
                stream,
                self.scale.warmup,
                self.scale.budget,
            ));
            sim.pin(t, placements[i].core, placements[i].slot);
        }
        sim.prewarm();
    }

    // ---------- isolated profiling (the paper's offline analysis) ----------

    /// IPC of benchmark `bench` running alone on one core of `kind`
    /// (memoized). This is the paper's offline isolated profiling, used
    /// both for scheduling and for STP/ANTT normalization.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] for an out-of-range benchmark index
    /// or a zero-IPC profile; engine failures are passed through.
    pub fn iso_ipc(&self, bench: usize, kind: CoreKind) -> Result<f64, SimError> {
        if let Some(&v) = lock(&self.iso).get(&(bench, kind)) {
            return Ok(v);
        }
        let profiles = spec::all();
        let Some(profile) = profiles.get(bench) else {
            return Err(SimError::InvalidConfig(format!(
                "benchmark index {bench} out of range (have {})",
                profiles.len()
            )));
        };
        let core = match kind {
            CoreKind::Big => CoreConfig::big(),
            CoreKind::Medium => CoreConfig::medium(),
            CoreKind::Small => CoreConfig::small(),
        };
        let chip = ChipConfig::homogeneous(1, core, 2.66);
        let mut sim = self.new_sim(&chip);
        let t = sim.add_thread(ThreadProgram::multiprogram_with_warmup(
            InstrStream::new(profile, 0, self.scale.seed),
            self.scale.warmup,
            self.scale.budget,
        ));
        sim.pin(t, 0, 0);
        sim.prewarm();
        let run = sim.run()?;
        let ipc = run.threads[0].ipc(self.scale.budget);
        if !ipc.is_finite() || ipc <= 0.0 {
            return Err(SimError::InvalidConfig(format!(
                "benchmark {bench} produced zero IPC on {kind:?}"
            )));
        }
        lock(&self.iso).insert((bench, kind), ipc);
        self.persist(&Record::Iso { bench, kind, ipc });
        Ok(ipc)
    }

    /// Scheduling traits of a benchmark (offline-analysis products).
    ///
    /// # Errors
    /// Propagates [`iso_ipc`](Self::iso_ipc) failures.
    pub fn traits_of(&self, bench: usize) -> Result<ThreadTraits, SimError> {
        let profiles = spec::all();
        let Some(profile) = profiles.get(bench) else {
            return Err(SimError::InvalidConfig(format!(
                "benchmark index {bench} out of range (have {})",
                profiles.len()
            )));
        };
        Ok(ThreadTraits {
            big_core_benefit: self.iso_ipc(bench, CoreKind::Big)?
                / self.iso_ipc(bench, CoreKind::Small)?,
            memory_intensity: profile.memory_intensity(),
        })
    }

    // ---------- multi-program cells ----------

    /// Simulate (or fetch) the cell for `design` at `n` threads.
    ///
    /// # Errors
    /// See [`mp_cell_bus`](Self::mp_cell_bus).
    pub fn mp_cell(
        &self,
        design: &Design,
        n: usize,
        kind: WorkloadKind,
        smt: bool,
    ) -> Result<Arc<Cell>, SimError> {
        self.mp_cell_bus(design, n, kind, smt, 8.0)
    }

    /// [`mp_cell`](Self::mp_cell) with explicit bus bandwidth (GB/s).
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] for a zero thread count or bogus
    /// bandwidth; stalls and budget exhaustion from any of the 12
    /// workload simulations are passed through (the cell is all-or-
    /// nothing — partial cells are never cached).
    pub fn mp_cell_bus(
        &self,
        design: &Design,
        n: usize,
        kind: WorkloadKind,
        smt: bool,
        bus_gbps: f64,
    ) -> Result<Arc<Cell>, SimError> {
        if n == 0 {
            return Err(SimError::InvalidConfig(
                "cannot simulate a 0-thread cell".into(),
            ));
        }
        if !bus_gbps.is_finite() || bus_gbps <= 0.0 {
            return Err(SimError::InvalidConfig(format!(
                "non-positive bus bandwidth {bus_gbps}"
            )));
        }
        let key = CellKey {
            design: design.name.clone(),
            n,
            kind,
            smt,
            bus_dgbps: (bus_gbps * 10.0) as u32,
            mode: self.mode,
        };
        if let Some(c) = lock(&self.cells).get(&key) {
            return Ok(Arc::clone(c));
        }
        let mixes: Vec<Vec<usize>> = match kind {
            WorkloadKind::Homogeneous => (0..12).map(|b| mix::homogeneous_mix(b, n)).collect(),
            WorkloadKind::Heterogeneous => mix::heterogeneous_mixes(12, n, self.scale.seed),
        };
        let mut stp = Vec::with_capacity(12);
        let mut antt = Vec::with_capacity(12);
        let mut power = Vec::with_capacity(12);
        for (w, m) in mixes.iter().enumerate() {
            let (s, a, p) = self.run_mix(design, m, smt, bus_gbps, w as u64)?;
            stp.push(s);
            antt.push(a);
            power.push(p);
        }
        let cell = Arc::new(Cell {
            stp,
            antt,
            power_w: power,
        });
        self.persist(&Record::Cell {
            key: key.clone(),
            cell: (*cell).clone(),
        });
        lock(&self.cells).insert(key, Arc::clone(&cell));
        Ok(cell)
    }

    /// Simulate one multi-program mix; returns `(stp, antt, power_w)`.
    fn run_mix(
        &self,
        design: &Design,
        mixv: &[usize],
        smt: bool,
        bus_gbps: f64,
        wl_seed: u64,
    ) -> Result<(f64, f64, f64), SimError> {
        let chip = design.chip(smt, bus_gbps);
        let traits: Vec<ThreadTraits> = mixv
            .iter()
            .map(|&b| self.traits_of(b))
            .collect::<Result<_, _>>()?;
        let placements = assign_threads(&chip, &traits, smt);

        let run = match self.mode.sample_config() {
            None => {
                let mut sim = self.new_sim(&chip);
                self.populate_mix(&mut sim, mixv, &placements, wl_seed);
                // The tag pins every input that shapes this run, so a
                // restored checkpoint can never be applied to a
                // different simulation.
                let tag = format!(
                    "{}|{:?}|{}|{:x}|{}|{:?}",
                    design.name,
                    mixv,
                    smt,
                    bus_gbps.to_bits(),
                    wl_seed,
                    self.scale
                );
                self.finish_run(sim, &tag)?
            }
            Some(cfg) => {
                // Sampled mode: the policy reads chip-level CPI-stack
                // totals for its rate vectors, and the run skips in-cell
                // checkpointing (strides make it cheap to redo).
                let mut sim = self.new_sim_with(&chip, ChipCpi::new());
                self.populate_mix(&mut sim, mixv, &placements, wl_seed);
                if interrupt::requested() {
                    return Err(SimError::Interrupted);
                }
                let (run, _stats) = tlpsim_sample::run_sampled(&mut sim, cfg, 1 << 40)?;
                run
            }
        };
        let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(mixv.len());
        for (t, &b) in run.threads.iter().zip(mixv) {
            pairs.push((t.ipc(self.scale.budget), self.iso_ipc(b, CoreKind::Big)?));
        }
        let report = PowerModel::with_power_gating().report(&chip, &run);
        Ok((
            metrics::stp(&pairs)?,
            metrics::antt(&pairs)?,
            report.avg_power_w,
        ))
    }

    /// Drive a prepared simulation to completion under the crash-safety
    /// policy (DESIGN.md §12, level 2).
    ///
    /// Without checkpointing this is `sim.run()` behind an interrupt
    /// check. With a [`CkptPolicy`] the run is sliced at the checkpoint
    /// cadence: a valid prior checkpoint is restored first (slicing and
    /// restoring are invisible to the result — the §9 contract, proven
    /// by the `snapshot`/`golden` test suites), the engine state is
    /// written atomically at every slice boundary, and a requested
    /// interrupt checkpoints once more and returns
    /// [`SimError::Interrupted`] so `tlpsim resume` can pick the run
    /// back up mid-cell. The checkpoint file is removed on completion.
    fn finish_run(&self, mut sim: MultiCore, tag: &str) -> Result<RunResult, SimError> {
        let Some(ckpt) = &self.ckpt else {
            if interrupt::requested() {
                return Err(SimError::Interrupted);
            }
            return Ok(sim.run()?);
        };
        if let Err(e) = std::fs::create_dir_all(&ckpt.dir) {
            return Err(SimError::InvalidConfig(format!(
                "cannot create checkpoint directory {}: {e}",
                ckpt.dir.display()
            )));
        }
        let path = ckpt
            .dir
            .join(format!("{:016x}.ckpt", fnv1a64(tag.as_bytes())));
        if let Some(bytes) = snapshot::read_validated(&path) {
            // A checkpoint that fails structural validation (engine
            // format drift) is ignored; the cell just recomputes.
            let _ = sim.restore_state(&bytes);
        }
        let save = |sim: &MultiCore| {
            if let Err(e) = snapshot::write_atomic(&path, &sim.save_state()) {
                eprintln!(
                    "tlpsim: checkpoint {} not written ({e}); continuing",
                    path.display()
                );
            }
        };
        loop {
            if interrupt::requested() {
                save(&sim);
                return Err(SimError::Interrupted);
            }
            let stop = sim.now().saturating_add(ckpt.every);
            match sim.run_slice(1 << 40, stop) {
                Ok(RunStatus::Done(r)) => {
                    let _ = std::fs::remove_file(&path);
                    return Ok(r);
                }
                Ok(RunStatus::Paused) => save(&sim),
                Err(e) => {
                    // Deterministic failure: a restore would only
                    // reproduce it, so drop the checkpoint.
                    let _ = std::fs::remove_file(&path);
                    return Err(e.into());
                }
            }
        }
    }

    // ---------- PARSEC-like applications ----------

    /// Simulate (or fetch) one PARSEC-like application run.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] for an unknown app index, a zero
    /// thread count, or an app without barriers; engine stalls and
    /// budget exhaustion are passed through.
    pub fn parsec_run(
        &self,
        design: &Design,
        app_idx: usize,
        n_threads: usize,
        smt: bool,
        bus_gbps: f64,
    ) -> Result<Arc<ParsecOutcome>, SimError> {
        if n_threads == 0 {
            return Err(SimError::InvalidConfig(
                "cannot run an app with 0 threads".into(),
            ));
        }
        let key = ParsecKey {
            design: design.name.clone(),
            app: app_idx,
            n: n_threads,
            smt,
            bus_dgbps: (bus_gbps * 10.0) as u32,
        };
        if let Some(r) = lock(&self.parsec_runs).get(&key) {
            return Ok(Arc::clone(r));
        }
        let apps = parsec::all();
        let Some(app) = apps.get(app_idx) else {
            return Err(SimError::InvalidConfig(format!(
                "app index {app_idx} out of range (have {})",
                apps.len()
            )));
        };
        let outcome = self.run_parsec_app(design, app, n_threads, smt, bus_gbps)?;
        self.persist(&Record::Parsec {
            key: key.clone(),
            out: outcome.clone(),
        });
        let arc = Arc::new(outcome);
        lock(&self.parsec_runs).insert(key, Arc::clone(&arc));
        Ok(arc)
    }

    fn run_parsec_app(
        &self,
        design: &Design,
        app: &ParsecApp,
        n_threads: usize,
        smt: bool,
        bus_gbps: f64,
    ) -> Result<ParsecOutcome, SimError> {
        let chip = design.chip(smt, bus_gbps);
        let w = app.instantiate(n_threads, self.scale.parsec_phase, self.scale.seed);
        // Pinned scheduling (Section 5): equal traits keep thread 0 on
        // the biggest core, so serial phases run there.
        let traits = vec![
            ThreadTraits {
                big_core_benefit: 1.0,
                memory_intensity: app.profile.memory_intensity(),
            };
            n_threads
        ];
        let placements = assign_threads(&chip, &traits, smt);
        let Some(max_barrier) = w
            .threads
            .iter()
            .flatten()
            .filter_map(|s| match s {
                Segment::Barrier { id } => Some(*id),
                _ => None,
            })
            .max()
        else {
            return Err(SimError::InvalidConfig(format!(
                "app {} instantiated without barriers",
                app.name
            )));
        };

        let shared_base = 0x7000_0000_0000u64;
        let mut sim = self.new_sim(&chip);
        for (i, segs) in w.threads.iter().enumerate() {
            let stream = InstrStream::new(&w.profile, i as u64, self.scale.seed ^ 0xA44_5EED)
                .with_shared_region(shared_base, w.shared_bytes, w.shared_frac);
            let t = sim.add_thread(ThreadProgram::segmented(stream, segs.clone()));
            sim.pin(t, placements[i].core, placements[i].slot);
        }
        sim.set_roi_barriers(0, max_barrier);
        sim.prewarm();
        let run = sim.run()?;
        Ok(ParsecOutcome {
            roi_cycles: run.active_histogram.iter().sum(),
            total_cycles: run.cycles,
            histogram: run.active_histogram,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;

    fn quick_ctx() -> Ctx {
        Ctx::new(SimScale::quick())
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, |&x| Ok(x * 2));
        let vals: Vec<u64> = out.into_iter().map(|r| r.expect("no failures")).collect();
        assert_eq!(vals, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn iso_profiles_are_cached_and_ordered() {
        let ctx = quick_ctx();
        let hmmer = 0; // index of hmmer_like
        let mcf = 9; // index of mcf_like
        let big = ctx.iso_ipc(hmmer, CoreKind::Big).expect("runs");
        let small = ctx.iso_ipc(hmmer, CoreKind::Small).expect("runs");
        assert!(big > small, "hmmer: big {big} <= small {small}");
        // Memoization: identical on second call.
        assert_eq!(ctx.iso_ipc(hmmer, CoreKind::Big).expect("cached"), big);
        // mcf benefits less from the big core than hmmer.
        let t_h = ctx.traits_of(hmmer).expect("runs");
        let t_m = ctx.traits_of(mcf).expect("runs");
        assert!(t_h.big_core_benefit > t_m.big_core_benefit);
        assert!(t_m.memory_intensity > t_h.memory_intensity);
    }

    #[test]
    fn cell_runs_and_caches() {
        let ctx = quick_ctx();
        let d = configs::by_name("4B").unwrap();
        let c = ctx
            .mp_cell(&d, 2, WorkloadKind::Homogeneous, true)
            .expect("cell simulates");
        assert_eq!(c.stp.len(), 12);
        assert!(c.mean_stp() > 0.5, "2-thread 4B STP {}", c.mean_stp());
        assert!(c.mean_antt() >= 1.0, "ANTT below 1: {}", c.mean_antt());
        assert!(
            c.mean_power() > 7.0,
            "power below uncore: {}",
            c.mean_power()
        );
        let again = ctx
            .mp_cell(&d, 2, WorkloadKind::Homogeneous, true)
            .expect("cached");
        assert!(Arc::ptr_eq(&c, &again), "cell must be cached");
        assert_eq!(ctx.cache_stats().cells, 1);
    }

    #[test]
    fn invalid_cells_are_typed_errors_not_panics() {
        let ctx = quick_ctx();
        let d = configs::by_name("4B").unwrap();
        assert!(matches!(
            ctx.mp_cell(&d, 0, WorkloadKind::Homogeneous, true),
            Err(SimError::InvalidConfig(_))
        ));
        assert!(matches!(
            ctx.mp_cell_bus(&d, 2, WorkloadKind::Homogeneous, true, 0.0),
            Err(SimError::InvalidConfig(_))
        ));
        assert!(matches!(
            ctx.parsec_run(&d, 9999, 4, true, 8.0),
            Err(SimError::InvalidConfig(_))
        ));
        assert!(matches!(
            ctx.parsec_run(&d, 0, 0, true, 8.0),
            Err(SimError::InvalidConfig(_))
        ));
        assert!(matches!(
            ctx.iso_ipc(9999, CoreKind::Big),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn stp_grows_with_thread_count() {
        let ctx = quick_ctx();
        let d = configs::by_name("4B").unwrap();
        let s1 = ctx
            .mp_cell(&d, 1, WorkloadKind::Heterogeneous, true)
            .expect("runs")
            .mean_stp();
        let s4 = ctx
            .mp_cell(&d, 4, WorkloadKind::Heterogeneous, true)
            .expect("runs")
            .mean_stp();
        assert!(s4 > s1 * 1.5, "STP: 1thr {s1} vs 4thr {s4}");
    }

    #[test]
    fn checkpointed_cell_matches_plain_and_cleans_up() {
        let d = configs::by_name("4B").unwrap();
        let plain = quick_ctx()
            .mp_cell(&d, 2, WorkloadKind::Heterogeneous, true)
            .expect("plain cell");
        let dir = std::env::temp_dir().join(format!("tlpsim-ckpt-ctx-{}", std::process::id()));
        // Tiny cadence so the run is sliced (and checkpointed) many
        // times — the result must not notice.
        let ctx = Ctx::new(SimScale::quick()).with_checkpoints(dir.clone(), 500);
        let ck = ctx
            .mp_cell(&d, 2, WorkloadKind::Heterogeneous, true)
            .expect("checkpointed cell");
        assert_eq!(*plain, *ck, "checkpoint slicing changed the result");
        let leftover = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert_eq!(leftover, 0, "completed runs must remove their checkpoints");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exact_mode_is_the_default_and_bit_identical() {
        // `with_mode(Exact)` must be a perfect no-op: the TLPSIM_EXACT=1
        // escape hatch promises bit-identical results to a build that
        // never heard of sampling.
        let d = configs::by_name("4B").unwrap();
        let plain = quick_ctx()
            .mp_cell(&d, 2, WorkloadKind::Heterogeneous, true)
            .expect("plain cell");
        let explicit = Ctx::new(SimScale::quick())
            .with_mode(SimMode::Exact)
            .mp_cell(&d, 2, WorkloadKind::Heterogeneous, true)
            .expect("explicit-exact cell");
        assert_eq!(*plain, *explicit, "explicit exact mode changed the result");
    }

    #[test]
    fn sampled_and_exact_cells_never_share_a_cache_entry() {
        let d = configs::by_name("4B").unwrap();
        let dir = std::env::temp_dir().join(format!("tlpsim-modecache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.txt");

        // An exact context computes and persists a cell.
        let exact_ctx = Ctx::with_disk_cache(SimScale::quick(), &path);
        let exact = exact_ctx
            .mp_cell(&d, 2, WorkloadKind::Homogeneous, true)
            .expect("exact cell");
        drop(exact_ctx);

        // A sampled context sharing the same cache file replays that
        // record but must NOT serve it for its own (sampled-mode) key:
        // the lookup misses and the cell is re-simulated under sampling.
        let sampled_ctx =
            Ctx::with_disk_cache(SimScale::quick(), &path).with_mode(SimMode::sampled_default());
        assert_eq!(sampled_ctx.cache_stats().cells, 1, "exact record replays");
        let sampled = sampled_ctx
            .mp_cell(&d, 2, WorkloadKind::Homogeneous, true)
            .expect("sampled cell");
        assert_eq!(
            sampled_ctx.cache_stats().cells,
            2,
            "sampled cell must occupy its own key, not reuse the exact one"
        );
        // The sampled numbers are an approximation of the same cell:
        // sane, and in the exact result's neighborhood (the tight ≤2%
        // CPI bound is enforced by the tlpsim-sample accuracy suite).
        assert!(sampled.mean_stp() > 0.0 && sampled.mean_antt() >= 1.0);
        let rel = (sampled.mean_stp() - exact.mean_stp()).abs() / exact.mean_stp();
        assert!(
            rel <= 0.10,
            "sampled STP {} strayed {rel:.3} from exact {}",
            sampled.mean_stp(),
            exact.mean_stp()
        );
        drop(sampled_ctx);

        // A fresh exact context still finds the original exact cell.
        let again = Ctx::with_disk_cache(SimScale::quick(), &path);
        assert_eq!(again.cache_stats().cells, 2);
        let hit = again
            .mp_cell(&d, 2, WorkloadKind::Homogeneous, true)
            .expect("cached exact cell");
        assert_eq!(*hit, *exact, "exact cell must replay bit-identically");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parsec_outcome_sane() {
        let ctx = quick_ctx();
        let d = configs::by_name("4B").unwrap();
        let r = ctx.parsec_run(&d, 0, 4, true, 8.0).expect("runs");
        assert!(r.roi_cycles > 0);
        assert!(r.total_cycles >= r.roi_cycles);
        let again = ctx.parsec_run(&d, 0, 4, true, 8.0).expect("cached");
        assert!(Arc::ptr_eq(&r, &again));
    }
}
