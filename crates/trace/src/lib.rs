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
//!   Perfetto.
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
//! and the disabled path is bit-identical to an uninstrumented build
//! (verified by the golden-digest suite).

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
