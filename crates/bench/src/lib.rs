//! Shared plumbing for the per-figure benchmark harness.
//!
//! Every `benches/figNN_*.rs` target is a plain `fn main()`
//! (`harness = false`) that regenerates one table or figure of the
//! paper and prints the same rows/series the paper plots. Absolute
//! numbers differ from the paper's testbed (this is a scaled synthetic
//! reproduction; see DESIGN.md), but the shape — who wins, by roughly
//! what factor, where the crossovers fall — is the reproduction target
//! and is recorded in EXPERIMENTS.md.
//!
//! Scale is controlled by the `TLPSIM_SCALE` environment variable:
//! `standard` (large windows) or `quick` (the default and the
//! EXPERIMENTS.md scale). Like every `TLPSIM_*` variable it is checked
//! by [`Settings`], and a malformed value or an unknown `TLPSIM_*` name
//! stops the target before it simulates anything.

use tlpsim_core::ctx::Ctx;
use tlpsim_core::settings::Settings;

/// The settings of a bench target. Any malformed value or unknown
/// `TLPSIM_*` name exits with status 2, so a typo never regenerates the
/// figures at the wrong scale.
pub fn settings() -> Settings {
    Settings::load().unwrap_or_else(|e| {
        eprintln!("tlpsim-bench: {e}");
        std::process::exit(2);
    })
}

/// Build the experiment context: scale from `TLPSIM_SCALE`, disk-backed
/// result cache at `TLPSIM_CACHE` (default `target/tlpsim-cache.txt`)
/// so the per-figure bench processes share simulation work.
pub fn ctx() -> Ctx {
    let s = settings();
    let path = s.cache.unwrap_or_else(|| "target/tlpsim-cache.txt".into());
    Ctx::with_disk_cache(s.scale, path)
}

/// Print the standard harness header for figure `name`.
pub fn header(name: &str, what: &str) {
    println!("=== {name}: {what} ===");
    println!(
        "(scaled synthetic reproduction; shapes comparable to the paper, absolutes are not)\n"
    );
}
