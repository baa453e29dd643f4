//! Observability layer for the tlpsim simulator (DESIGN.md §11).
//!
//! Three coupled facilities, all zero-overhead when disabled:
//!
//! * **CPI-stack cycle accounting** ([`CpiStacks`], [`CpiComponent`]):
//!   every non-commit cycle of each hardware thread is attributed to
//!   exactly one component, with the identity
//!   `sum(components) == measured cycles` enforced by the
//!   `cpi_accounting` integration suite.
//! * **Structural event tracing** ([`EventRing`], [`TraceEvent`]): a
//!   bounded overwrite-oldest ring of pipeline and memory-system
//!   events, exported as Chrome trace-event JSON
//!   ([`write_chrome_trace`]) loadable in `chrome://tracing` /
//!   Perfetto. Activated via `TLPSIM_TRACE=<path>[:<cap>]`
//!   ([`TraceConfig::from_env`]).
//! * **A unified counter registry** ([`CounterSnapshot`]): one
//!   string-keyed snapshot type that every stats struct exports into,
//!   so benches and the disk cache aggregate one shape instead of
//!   walking bespoke structs.
//!
//! The crate has zero dependencies and sits below `tlpsim-mem` and
//! `tlpsim-uarch` in the workspace graph. The simulator threads a
//! generic [`TraceSink`] parameter through its hot loops; the default
//! [`NopSink`] has `ENABLED == false` and empty inlined methods, so
//! every hook site guarded by `if S::ENABLED` is dead-code-eliminated
//! and the disabled path is bit- and speed-identical to an
//! uninstrumented build (verified by the golden-digest suite and the
//! `trace_overhead` bench guard).

mod chrome;
mod cpi;
mod event;
mod registry;
mod sink;

pub use chrome::{chrome_trace_json, write_chrome_trace};
pub use cpi::{ChipCpi, CpiComponent, CpiStacks, StackKey, N_COMPONENTS};
pub use event::{EventRing, TraceEvent, DEFAULT_RING_CAP};
pub use registry::{CounterSnapshot, CounterValue};
pub use sink::{NopSink, SampleSink, TraceSink, Tracer};

/// Parsed `TLPSIM_TRACE=<path>[:<cap>]` activation surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Output path for the Chrome trace-event JSON.
    pub path: String,
    /// Ring capacity in events.
    pub cap: usize,
}

impl TraceConfig {
    /// Parse a `TLPSIM_TRACE` value: a path, optionally suffixed with
    /// `:<cap>` where `<cap>` is a positive event-count capacity. The
    /// split is on the *last* colon, and only when the suffix parses
    /// as a positive integer — so plain paths containing colons keep
    /// working.
    pub fn parse(value: &str) -> Option<TraceConfig> {
        let value = value.trim();
        if value.is_empty() {
            return None;
        }
        if let Some((path, cap)) = value.rsplit_once(':') {
            if let Ok(cap) = cap.trim().parse::<usize>() {
                if cap > 0 && !path.trim().is_empty() {
                    return Some(TraceConfig {
                        path: path.trim().to_string(),
                        cap,
                    });
                }
            }
        }
        Some(TraceConfig {
            path: value.to_string(),
            cap: DEFAULT_RING_CAP,
        })
    }

    /// Read the activation surface from the `TLPSIM_TRACE` environment
    /// variable. `None` means tracing stays disabled.
    pub fn from_env() -> Option<TraceConfig> {
        std::env::var("TLPSIM_TRACE")
            .ok()
            .as_deref()
            .and_then(Self::parse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_plain_path() {
        let c = TraceConfig::parse("trace.json").unwrap();
        assert_eq!(c.path, "trace.json");
        assert_eq!(c.cap, DEFAULT_RING_CAP);
    }

    #[test]
    fn parse_path_with_cap() {
        let c = TraceConfig::parse("/tmp/t.json:4096").unwrap();
        assert_eq!(c.path, "/tmp/t.json");
        assert_eq!(c.cap, 4096);
    }

    #[test]
    fn parse_colon_in_path_without_numeric_suffix() {
        // A Windows-style or URL-ish path whose suffix is not a number
        // is treated as a whole path.
        let c = TraceConfig::parse("C:/traces/out.json").unwrap();
        assert_eq!(c.path, "C:/traces/out.json");
        assert_eq!(c.cap, DEFAULT_RING_CAP);
    }

    #[test]
    fn parse_rejects_empty_and_zero_cap() {
        assert_eq!(TraceConfig::parse(""), None);
        assert_eq!(TraceConfig::parse("   "), None);
        // cap 0 is not a valid capacity: the whole string is the path.
        let c = TraceConfig::parse("t.json:0").unwrap();
        assert_eq!(c.path, "t.json:0");
        assert_eq!(c.cap, DEFAULT_RING_CAP);
    }
}
