//! Simulation mode: exact (cycle-by-cycle detailed) or sampled
//! (interval-model extrapolation, DESIGN.md §15).
//!
//! The mode is part of every result's identity. A sampled cell carries
//! a measured ≤2% CPI error bound; an exact cell carries none. Mixing
//! them silently — a sampled sweep consuming exact cached cells, or
//! worse, an exact analysis trusting sampled numbers — would corrupt
//! both, so [`SimMode`] is baked into the disk-cache record keys
//! ([`crate::diskcache`]), the sweep-journal header
//! ([`crate::journal::SweepSpec`]) and the in-memory cell keys
//! ([`crate::ctx::CellKey`]). Foreign-mode records are *rejected with a
//! diagnostic*, never trusted.
//!
//! The CLI resolves the mode once per command ([`resolve_from`], from
//! its [`Settings`](crate::settings::Settings)): `--sampled` or
//! `TLPSIM_SAMPLE` opt in, `TLPSIM_EXACT=1` vetoes both (the escape
//! hatch for bit-identical reproduction runs).

use tlpsim_sample::SampleConfig;

/// How a context simulates its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimMode {
    /// Fully detailed cycle-level simulation (the default; bit-identical
    /// to every release before sampled mode existed).
    #[default]
    Exact,
    /// Interval-model sampled simulation: detailed windows, analytic
    /// strides through detected steady state (`tlpsim-sample`). The
    /// knobs are part of the mode — two sampled runs with different
    /// windows are different experiments.
    Sampled {
        /// Detailed measurement window, cycles.
        window: u32,
        /// Maximum analytic stride per extrapolation, cycles.
        stride: u32,
        /// Steady-state tolerance, parts-per-million.
        tol_ppm: u32,
    },
}

impl SimMode {
    /// Sampled mode with the library-default knobs.
    pub fn sampled_default() -> SimMode {
        SimMode::from(SampleConfig::default())
    }

    /// The sampling knobs, or `None` in exact mode.
    pub fn sample_config(&self) -> Option<SampleConfig> {
        match *self {
            SimMode::Exact => None,
            SimMode::Sampled {
                window,
                stride,
                tol_ppm,
            } => Some(SampleConfig {
                window,
                stride,
                tol_ppm,
            }),
        }
    }

    /// The single-word on-disk token: `exact` or
    /// `sampled:w<window>:s<stride>:t<tol_ppm>`. Whitespace-free so it
    /// embeds in the space-separated cache records and journal header.
    /// Inverse of [`parse_token`](Self::parse_token).
    pub fn token(&self) -> String {
        match *self {
            SimMode::Exact => "exact".to_string(),
            SimMode::Sampled {
                window,
                stride,
                tol_ppm,
            } => format!("sampled:w{window}:s{stride}:t{tol_ppm}"),
        }
    }

    /// Strictly parse a [`token`](Self::token) back. Anything else —
    /// including a sampled token whose knobs fail
    /// [`SampleConfig::validate`] — is an error string naming the
    /// problem, so a tampered or foreign record is rejected, never
    /// replayed under a plausible-looking mode.
    pub fn parse_token(tok: &str) -> Result<SimMode, String> {
        if tok == "exact" {
            return Ok(SimMode::Exact);
        }
        let Some(rest) = tok.strip_prefix("sampled:") else {
            return Err(format!("bad mode token {tok:?}"));
        };
        let mut it = rest.split(':');
        let (Some(w), Some(s), Some(t), None) = (it.next(), it.next(), it.next(), it.next()) else {
            return Err(format!("bad sampled mode token {tok:?}"));
        };
        let field = |p: &str, tag: char, what: &str| -> Result<u32, String> {
            p.strip_prefix(tag)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad {what} in mode token {tok:?}"))
        };
        let cfg = SampleConfig {
            window: field(w, 'w', "window")?,
            stride: field(s, 's', "stride")?,
            tol_ppm: field(t, 't', "tolerance")?,
        };
        cfg.validate()
            .map_err(|why| format!("mode token {tok:?}: {why}"))?;
        Ok(SimMode::from(cfg))
    }
}

impl From<SampleConfig> for SimMode {
    fn from(cfg: SampleConfig) -> SimMode {
        SimMode::Sampled {
            window: cfg.window,
            stride: cfg.stride,
            tol_ppm: cfg.tol_ppm,
        }
    }
}

/// Resolve the simulation mode from its three inputs:
///
/// * `sample` — the `TLPSIM_SAMPLE` knobs, if set: turns sampling on
///   *and* carries the knobs;
/// * `exact` — `TLPSIM_EXACT=1`: forces exact mode no matter what else
///   asks for sampling;
/// * `cli_sampled` — the `--sampled` flag: turns sampling on with
///   default knobs (or the `TLPSIM_SAMPLE` knobs when both are given).
pub fn resolve_from(sample: Option<SampleConfig>, exact: bool, cli_sampled: bool) -> SimMode {
    match sample {
        _ if exact => SimMode::Exact,
        Some(cfg) => SimMode::from(cfg),
        None if cli_sampled => SimMode::sampled_default(),
        None => SimMode::Exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip() {
        for mode in [
            SimMode::Exact,
            SimMode::sampled_default(),
            SimMode::Sampled {
                window: 512,
                stride: 8192,
                tol_ppm: 1_000,
            },
        ] {
            assert_eq!(SimMode::parse_token(&mode.token()).unwrap(), mode);
            assert!(!mode.token().contains(char::is_whitespace));
        }
    }

    #[test]
    fn parse_token_rejects_garbage() {
        for bad in [
            "",
            "Exact",
            "detailed",
            "sampled",
            "sampled:",
            "sampled:w2048",
            "sampled:w2048:s65536",
            "sampled:w2048:s65536:t20000:x1",
            "sampled:wX:s65536:t20000",
            "sampled:s65536:w2048:t20000", // wrong field order
            "sampled:w63:s65536:t20000",   // window below minimum
            "sampled:w2048:s1024:t20000",  // stride < window
            "sampled:w2048:s65536:t0",     // zero tolerance
        ] {
            assert!(
                SimMode::parse_token(bad).is_err(),
                "token {bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn resolution_precedence() {
        let knobs = SampleConfig {
            window: 512,
            stride: 8192,
            tol_ppm: SampleConfig::default().tol_ppm,
        };
        // Nothing asked: exact.
        assert_eq!(resolve_from(None, false, false), SimMode::Exact);
        // --sampled alone: default knobs.
        assert_eq!(resolve_from(None, false, true), SimMode::sampled_default());
        // TLPSIM_SAMPLE alone, or with the flag: sampling with its knobs.
        assert_eq!(
            resolve_from(Some(knobs), false, false),
            SimMode::from(knobs)
        );
        assert_eq!(resolve_from(Some(knobs), false, true), SimMode::from(knobs));
        // TLPSIM_EXACT=1 vetoes both the flag and the spec — the
        // bit-identity escape hatch.
        assert_eq!(resolve_from(Some(knobs), true, true), SimMode::Exact);
    }
}
