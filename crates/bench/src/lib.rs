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
//! EXPERIMENTS.md scale). Any other value stops the target before it
//! simulates anything.

use tlpsim_core::ctx::Ctx;
use tlpsim_core::SimScale;

/// Parse a `TLPSIM_SCALE` value, ignoring surrounding whitespace:
/// unset, empty or `quick` selects [`SimScale::quick`], `standard` the
/// larger measurement windows, and anything else is an error that
/// names the value. The default is quick because the full figure set
/// is thousands of simulated chips and reference hosts may have one or
/// two CPUs.
fn parse_scale(value: Option<&str>) -> Result<SimScale, String> {
    match value.map(str::trim) {
        None | Some("" | "quick") => Ok(SimScale::quick()),
        Some("standard") => Ok(SimScale::standard()),
        Some(other) => Err(format!(
            "TLPSIM_SCALE={other:?} is not a scale; use `quick` or `standard`"
        )),
    }
}

/// Read the simulation scale from `TLPSIM_SCALE`: unset, empty or
/// `quick`, or `standard`. Any other value exits with status 2, so a
/// typo never regenerates the figures at the wrong scale.
pub fn scale_from_env() -> SimScale {
    let value = std::env::var_os("TLPSIM_SCALE").map(|v| v.to_string_lossy().into_owned());
    parse_scale(value.as_deref()).unwrap_or_else(|e| {
        eprintln!("tlpsim-bench: {e}");
        std::process::exit(2);
    })
}

/// Build the experiment context: scale from `TLPSIM_SCALE`, disk-backed
/// result cache at `TLPSIM_CACHE` (default `target/tlpsim-cache.txt`)
/// so the per-figure bench processes share simulation work.
pub fn ctx() -> Ctx {
    let path =
        std::env::var("TLPSIM_CACHE").unwrap_or_else(|_| "target/tlpsim-cache.txt".to_string());
    Ctx::with_disk_cache(scale_from_env(), path)
}

/// Print the standard harness header for figure `name`.
pub fn header(name: &str, what: &str) {
    println!("=== {name}: {what} ===");
    println!(
        "(scaled synthetic reproduction; shapes comparable to the paper, absolutes are not)\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_quick() {
        assert_eq!(parse_scale(None), Ok(SimScale::quick()));
        assert_eq!(parse_scale(Some("quick")), Ok(SimScale::quick()));
        assert_eq!(parse_scale(Some("standard")), Ok(SimScale::standard()));
        assert_eq!(parse_scale(Some("")), Ok(SimScale::quick()));
        assert_eq!(parse_scale(Some(" standard\n")), Ok(SimScale::standard()));
        let e = parse_scale(Some("standrad")).unwrap_err();
        assert!(e.contains("\"standrad\""), "{e}");
    }
}
