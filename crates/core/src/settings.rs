//! Every `TLPSIM_*` environment variable, parsed and checked once
//! (DESIGN.md §6).
//!
//! `KNOBS` names every variable the workspace reads.
//! [`Settings::load`] reads the process environment, and
//! [`Settings::parse`] applies one rule to each `TLPSIM_*` variable:
//!
//! * surrounding whitespace is ignored, and an empty value means unset;
//! * a malformed value is an error that names the variable and quotes
//!   the value;
//! * a `TLPSIM_*` name outside `KNOBS` is an error, so a misspelled
//!   knob is never dropped without a word.
//!
//! `tlpsim` builds [`Settings`] once per process, before it dispatches
//! any command (the worker host included), and exits 2 on an error; the
//! bench targets do the same. The value grammars stay with their types:
//! [`FaultSpec::parse`], [`SampleConfig::parse`], [`parse_scale`] and
//! [`TraceConfig::parse`].
//!
//! Three names are only accepted here, because they are read where they
//! act: `TLPSIM_NO_SKIP` and `TLPSIM_PHASE_PROF` in `tlpsim-uarch`,
//! which sits below this crate, and `TLPSIM_PRINT_GOLDEN` in the golden
//! tests. The executor reads `TLPSIM_THREADS` again each time a sweep
//! starts, through [`threads`].

use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use tlpsim_sample::SampleConfig;
use tlpsim_trace::DEFAULT_RING_CAP;
use tlpsim_uarch::{Cycle, DEFAULT_WATCHDOG_CYCLES};

use crate::daemon::{parse_scale, DEFAULT_QUEUE_DEPTH};
use crate::mode::{self, SimMode};
use crate::serve::ServeOptions;
use crate::worker::FaultSpec;
use crate::SimScale;

/// Every `TLPSIM_*` variable the workspace reads. The last three are
/// read outside this module (see the module docs).
const KNOBS: [&str; 17] = [
    "TLPSIM_THREADS",
    "TLPSIM_CACHE",
    "TLPSIM_TRACE",
    "TLPSIM_CKPT_CYCLES",
    "TLPSIM_WATCHDOG_CYCLES",
    "TLPSIM_SAMPLE",
    "TLPSIM_EXACT",
    "TLPSIM_FAULT",
    "TLPSIM_SCALE",
    "TLPSIM_SERVE_SCALE",
    "TLPSIM_SERVE_QUEUE_DEPTH",
    "TLPSIM_SERVE_HB_MS",
    "TLPSIM_SERVE_HB_TIMEOUT_MS",
    "TLPSIM_SERVE_RETRY_MS",
    "TLPSIM_NO_SKIP",
    "TLPSIM_PHASE_PROF",
    "TLPSIM_PRINT_GOLDEN",
];

/// The typed value of each knob the CLI, the worker host and the bench
/// targets use. `Default` holds the values with no variable set.
#[derive(Debug, Clone, PartialEq)]
pub struct Settings {
    /// `TLPSIM_CACHE`: the on-disk result cache. Unset, the CLI keeps
    /// results in memory and the bench targets use
    /// `target/tlpsim-cache.txt`.
    pub cache: Option<PathBuf>,
    /// `TLPSIM_TRACE`: where `tlpsim trace` writes its Chrome trace,
    /// and the event-ring capacity.
    pub trace: TraceConfig,
    /// `TLPSIM_CKPT_CYCLES`: the in-cell checkpoint cadence in cycles;
    /// unset, cells are not checkpointed.
    pub ckpt_cycles: Option<u64>,
    /// `TLPSIM_WATCHDOG_CYCLES`: cycles without a commit before a run
    /// is declared stalled.
    pub watchdog_cycles: Cycle,
    /// `TLPSIM_SAMPLE`: turns sampled mode on, with these knobs.
    pub sample: Option<SampleConfig>,
    /// `TLPSIM_EXACT=1`: exact mode, whatever asks for sampling.
    pub exact: bool,
    /// `TLPSIM_FAULT`: the faults worker hosts inject.
    pub fault: FaultSpec,
    /// `TLPSIM_SCALE` (`quick` or `standard`): the bench targets' scale.
    pub scale: SimScale,
    /// `TLPSIM_SERVE_SCALE` (`warmup,budget,parsec,seed`): the scale a
    /// daemon serves and a submit client asks for.
    pub serve_scale: SimScale,
    /// `TLPSIM_SERVE_QUEUE_DEPTH`: open jobs a daemon admits before it
    /// sheds new ones.
    pub queue_depth: usize,
    /// `TLPSIM_SERVE_HB_MS`: the worker heartbeat cadence.
    pub hb_interval: Duration,
    /// `TLPSIM_SERVE_HB_TIMEOUT_MS`: heartbeat silence after which a
    /// worker is killed.
    pub hb_timeout: Duration,
    /// `TLPSIM_SERVE_RETRY_MS`: the first retry backoff.
    pub retry_base: Duration,
}

impl Default for Settings {
    fn default() -> Settings {
        let serve = ServeOptions::default();
        Settings {
            cache: None,
            trace: TraceConfig {
                path: "tlpsim-trace.json".into(),
                cap: DEFAULT_RING_CAP,
            },
            ckpt_cycles: None,
            watchdog_cycles: DEFAULT_WATCHDOG_CYCLES,
            sample: None,
            exact: false,
            fault: FaultSpec::none(),
            scale: SimScale::quick(),
            serve_scale: SimScale::quick(),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            hb_interval: serve.hb_interval,
            hb_timeout: serve.hb_timeout,
            retry_base: serve.retry_base,
        }
    }
}

impl Settings {
    /// Read and check every `TLPSIM_*` variable of the process
    /// environment.
    ///
    /// # Errors
    /// See [`parse`](Self::parse); a value that is not UTF-8 is an
    /// error too.
    pub fn load() -> Result<Settings, String> {
        let mut vars = Vec::new();
        for (name, value) in std::env::vars_os() {
            let name = name.to_string_lossy().into_owned();
            if name.starts_with("TLPSIM_") {
                let value = value
                    .into_string()
                    .map_err(|_| format!("{name} is not valid UTF-8"))?;
                vars.push((name, value));
            }
        }
        Settings::parse(vars.iter().map(|(k, v)| (k.as_str(), v.as_str())))
    }

    /// Parse `(name, value)` pairs by the one rule of the module docs.
    /// Names without the `TLPSIM_` prefix are ignored.
    ///
    /// # Errors
    /// A diagnostic naming the first unknown `TLPSIM_*` name or
    /// malformed value.
    pub fn parse<'a>(
        vars: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<Settings, String> {
        let mut s = Settings::default();
        for (name, raw) in vars {
            if !name.starts_with("TLPSIM_") {
                continue;
            }
            if !KNOBS.contains(&name) {
                return Err(format!(
                    "unknown variable {name}; known: {}",
                    KNOBS.join(", ")
                ));
            }
            apply(name, raw, |v| s.set(name, v))?;
        }
        Ok(s)
    }

    /// Store the trimmed, non-empty value `v` of knob `name`.
    fn set(&mut self, name: &str, v: &str) -> Result<(), String> {
        match name {
            "TLPSIM_THREADS" => {
                positive::<usize>(v)?;
            }
            "TLPSIM_CACHE" => self.cache = Some(PathBuf::from(v)),
            "TLPSIM_TRACE" => self.trace = TraceConfig::parse(v)?,
            "TLPSIM_CKPT_CYCLES" => self.ckpt_cycles = Some(positive(v)?),
            "TLPSIM_WATCHDOG_CYCLES" => self.watchdog_cycles = positive(v)?,
            "TLPSIM_SAMPLE" => {
                self.sample = Some(SampleConfig::parse(v).map_err(|e| e.to_string())?);
            }
            "TLPSIM_EXACT" => {
                self.exact = match v {
                    "0" => false,
                    "1" => true,
                    _ => return Err("must be 0 or 1".into()),
                };
            }
            "TLPSIM_FAULT" => self.fault = FaultSpec::parse(v)?,
            "TLPSIM_SCALE" => {
                self.scale = match v {
                    "quick" => SimScale::quick(),
                    "standard" => SimScale::standard(),
                    _ => return Err("not a scale; use `quick` or `standard`".into()),
                };
            }
            "TLPSIM_SERVE_SCALE" => self.serve_scale = parse_scale(v)?,
            "TLPSIM_SERVE_QUEUE_DEPTH" => self.queue_depth = positive(v)?,
            "TLPSIM_SERVE_HB_MS" => self.hb_interval = millis(v)?,
            "TLPSIM_SERVE_HB_TIMEOUT_MS" => self.hb_timeout = millis(v)?,
            "TLPSIM_SERVE_RETRY_MS" => self.retry_base = millis(v)?,
            // Read where they act (see the module docs).
            _ => {}
        }
        Ok(())
    }

    /// The simulation mode of a command: `--sampled` (`cli_sampled`)
    /// and `TLPSIM_SAMPLE` turn sampling on, and `TLPSIM_EXACT=1`
    /// vetoes both ([`mode::resolve_from`]).
    pub fn mode(&self, cli_sampled: bool) -> SimMode {
        mode::resolve_from(self.sample, self.exact, cli_sampled)
    }
}

/// `TLPSIM_THREADS` as the process environment holds it now, by the
/// rule of [`Settings::parse`]. The executor calls this each time a
/// sweep starts, because callers may set the variable between sweeps.
///
/// # Errors
/// The diagnostic [`Settings::parse`] gives for the same value.
pub fn threads() -> Result<Option<usize>, String> {
    match std::env::var_os("TLPSIM_THREADS") {
        Some(raw) => apply("TLPSIM_THREADS", &raw.to_string_lossy(), positive),
        None => Ok(None),
    }
}

/// The one rule for one value: `Ok(None)` when it is empty after
/// trimming, else `parse` of the trimmed value, with an error that
/// names the variable and quotes the raw value.
fn apply<T>(
    name: &str,
    raw: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let v = raw.trim();
    if v.is_empty() {
        return Ok(None);
    }
    parse(v)
        .map(Some)
        .map_err(|why| format!("{name}={raw:?}: {why}"))
}

/// A positive integer.
fn positive<T: FromStr + Default + PartialOrd>(v: &str) -> Result<T, String> {
    v.parse::<T>()
        .ok()
        .filter(|n| *n > T::default())
        .ok_or_else(|| "not a positive integer".into())
}

/// A positive count of milliseconds.
fn millis(v: &str) -> Result<Duration, String> {
    positive(v).map(Duration::from_millis)
}

/// `TLPSIM_TRACE`: where `tlpsim trace` writes the Chrome trace JSON,
/// and the capacity of its event ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Output path for the Chrome trace-event JSON.
    pub path: String,
    /// Ring capacity in events.
    pub cap: usize,
}

impl TraceConfig {
    /// Parse `<path>[:<cap>]`. The split is on the last colon, and
    /// only when the suffix is numeric (digits and signs), so a path
    /// that contains colons keeps working. A numeric suffix that is
    /// not a positive count is an error, not part of the path.
    ///
    /// # Errors
    /// A diagnostic quoting the bad capacity.
    pub fn parse(v: &str) -> Result<TraceConfig, String> {
        if let Some((path, cap)) = v.rsplit_once(':') {
            let (path, cap) = (path.trim(), cap.trim());
            let numeric = !cap.is_empty()
                && cap
                    .chars()
                    .all(|c| c.is_ascii_digit() || c == '+' || c == '-');
            if numeric && !path.is_empty() {
                let cap = positive(cap)
                    .map_err(|_| format!("cap {cap:?} is not a positive event count"))?;
                return Ok(TraceConfig {
                    path: path.into(),
                    cap,
                });
            }
        }
        Ok(TraceConfig {
            path: v.into(),
            cap: DEFAULT_RING_CAP,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> Result<Settings, String> {
        Settings::parse(vars.iter().copied())
    }

    #[test]
    fn nothing_set_is_the_default() {
        assert_eq!(parse(&[]), Ok(Settings::default()));
        assert_eq!(
            parse(&[("HOME", "/root"), ("PATH", "")]),
            Ok(Settings::default())
        );
    }

    #[test]
    fn empty_or_blank_means_unset_for_every_knob() {
        for name in KNOBS {
            for v in ["", "  ", "\t\n"] {
                assert_eq!(parse(&[(name, v)]), Ok(Settings::default()), "{name}={v:?}");
            }
        }
    }

    #[test]
    fn each_parsed_knob_rejects_garbage_by_name_and_value() {
        let read_elsewhere = ["TLPSIM_NO_SKIP", "TLPSIM_PHASE_PROF", "TLPSIM_PRINT_GOLDEN"];
        for name in KNOBS.iter().filter(|n| !read_elsewhere.contains(n)) {
            // TLPSIM_CACHE takes any path; its only bad value is a
            // malformed name, checked below.
            if *name == "TLPSIM_CACHE" {
                continue;
            }
            let bad = if *name == "TLPSIM_TRACE" {
                "t.json:0"
            } else {
                "0x!"
            };
            let e = parse(&[(name, bad)]).expect_err(name);
            assert!(e.starts_with(&format!("{name}=")), "{e}");
            assert!(e.contains(bad), "diagnostic must quote the value: {e}");
        }
    }

    #[test]
    fn unknown_and_retired_names_are_errors() {
        for name in [
            "TLPSIM_SAMPLES",
            "TLPSIM_SERVE_ATTEMPT",
            "TLPSIM_SERVE_ATTEMPTS",
            "TLPSIM_SERVE_CELL_TIMEOUT_MS",
            "TLPSIM_SERVE_IO_TIMEOUT_MS",
        ] {
            for v in ["5", ""] {
                let e = parse(&[(name, v)]).expect_err(name);
                assert!(e.contains(name), "{e}");
            }
        }
    }

    #[test]
    fn counts_and_durations_trim_and_stay_positive() {
        let s = parse(&[
            ("TLPSIM_WATCHDOG_CYCLES", " 5000 "),
            ("TLPSIM_CKPT_CYCLES", "250000\n"),
            ("TLPSIM_SERVE_QUEUE_DEPTH", "1"),
            ("TLPSIM_SERVE_HB_MS", "120"),
            ("TLPSIM_SERVE_HB_TIMEOUT_MS", "2000"),
            ("TLPSIM_SERVE_RETRY_MS", "50"),
            ("TLPSIM_THREADS", " 3"),
        ])
        .unwrap();
        assert_eq!(s.watchdog_cycles, 5_000);
        assert_eq!(s.ckpt_cycles, Some(250_000));
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.hb_interval, Duration::from_millis(120));
        assert_eq!(s.hb_timeout, Duration::from_millis(2_000));
        assert_eq!(s.retry_base, Duration::from_millis(50));
        for name in [
            "TLPSIM_WATCHDOG_CYCLES",
            "TLPSIM_CKPT_CYCLES",
            "TLPSIM_SERVE_HB_MS",
        ] {
            for bad in ["0", "-5", "many", "1e6", "100k", "18446744073709551616"] {
                let e = parse(&[(name, bad)]).expect_err(bad);
                assert!(e.contains(name) && e.contains(bad), "{e}");
            }
        }
    }

    #[test]
    fn mode_precedence_follows_the_settings() {
        let mode = |vars: &[(&str, &str)], cli: bool| parse(vars).unwrap().mode(cli);
        let spec = ("TLPSIM_SAMPLE", "window:512,stride:8192");
        assert_eq!(mode(&[], false), SimMode::Exact);
        assert_eq!(mode(&[], true), SimMode::sampled_default());
        assert_eq!(
            mode(&[spec], false),
            SimMode::Sampled {
                window: 512,
                stride: 8192,
                tol_ppm: SampleConfig::default().tol_ppm,
            }
        );
        // TLPSIM_EXACT=1 vetoes both the flag and the spec.
        assert_eq!(mode(&[spec, ("TLPSIM_EXACT", " 1")], true), SimMode::Exact);
        assert_eq!(
            mode(&[("TLPSIM_EXACT", "0")], true),
            SimMode::sampled_default()
        );
        // A malformed spec is an error even under TLPSIM_EXACT=1.
        assert!(parse(&[("TLPSIM_SAMPLE", "window:x"), ("TLPSIM_EXACT", "1")]).is_err());
        assert!(parse(&[("TLPSIM_EXACT", "yes")]).is_err());
    }

    #[test]
    fn scales_fault_and_cache_parse_through_their_grammars() {
        let s = parse(&[
            ("TLPSIM_SCALE", " standard\n"),
            ("TLPSIM_SERVE_SCALE", "200,600,1000,42"),
            ("TLPSIM_FAULT", "crash:0.1,seed:7"),
            ("TLPSIM_CACHE", " /tmp/c.txt "),
        ])
        .unwrap();
        assert_eq!(s.scale, SimScale::standard());
        assert_eq!(s.serve_scale.budget, 600);
        assert_eq!((s.fault.crash, s.fault.seed), (0.1, 7));
        assert_eq!(s.cache, Some(PathBuf::from("/tmp/c.txt")));
        let quick = parse(&[("TLPSIM_SCALE", "quick")]).unwrap();
        assert_eq!(quick.scale, SimScale::quick());
        let e = parse(&[("TLPSIM_SCALE", "standrad")]).unwrap_err();
        assert!(e.contains("\"standrad\""), "{e}");
    }

    #[test]
    fn trace_paths_and_caps() {
        let t = |v: &str| TraceConfig::parse(v);
        assert_eq!(t("trace.json").unwrap().cap, DEFAULT_RING_CAP);
        let c = t("/tmp/t.json:4096").unwrap();
        assert_eq!((c.path.as_str(), c.cap), ("/tmp/t.json", 4096));
        // A colon in the path with a non-numeric suffix is all path.
        let c = t("C:/traces/out.json").unwrap();
        assert_eq!(
            (c.path.as_str(), c.cap),
            ("C:/traces/out.json", DEFAULT_RING_CAP)
        );
        // A numeric suffix that is not a positive count is an error,
        // not a file named "t.json:0".
        for bad in ["t.json:0", "t.json:-5", "t.json:99999999999999999999999"] {
            assert!(t(bad).is_err(), "accepted {bad:?}");
        }
        let s = parse(&[("TLPSIM_TRACE", "trace.json:65536")]).unwrap();
        assert_eq!((s.trace.path.as_str(), s.trace.cap), ("trace.json", 65_536));
    }
}
