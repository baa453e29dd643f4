//! Checked-in reference outputs, one text file per simulation seed.
//!
//! Every float is stored as the hex of its IEEE-754 bits, so a
//! comparison is bit for bit. Lines:
//!
//! ```text
//! cell <design> <n> stp <12 hex> antt <12 hex> power <12 hex>
//! app <index> roi <cycles> total <cycles> hist <cycles...>
//! served <n> stp <12 hex> antt <12 hex> power <12 hex>
//! ```
//!
//! `cell` lines are the exact quick-scale cells of `figures` (and the
//! baseline of `sampled`), `app` lines the 4B 8-thread PARSEC-like
//! runs, `served` lines the tiny-scale 4B sweep the daemon must return.
//! `#` starts a comment.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use tlpsim_core::ctx::{Cell, ParsecOutcome};

/// All reference outputs of one simulation seed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Refs {
    pub cells: BTreeMap<(String, usize), Cell>,
    pub apps: BTreeMap<usize, ParsecOutcome>,
    pub served: BTreeMap<usize, Cell>,
}

fn hex_list(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{:016x}", x.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

fn cell_fields(c: &Cell) -> String {
    format!(
        "stp {} antt {} power {}",
        hex_list(&c.stp),
        hex_list(&c.antt),
        hex_list(&c.power_w)
    )
}

/// Parse `stp .. antt .. power ..` into a [`Cell`].
fn parse_cell(words: &[&str]) -> Result<Cell, String> {
    let mut cell = Cell {
        stp: Vec::new(),
        antt: Vec::new(),
        power_w: Vec::new(),
    };
    let mut cur: Option<&mut Vec<f64>> = None;
    for w in words {
        match *w {
            "stp" => cur = Some(&mut cell.stp),
            "antt" => cur = Some(&mut cell.antt),
            "power" => cur = Some(&mut cell.power_w),
            hex => {
                let bits = u64::from_str_radix(hex, 16).map_err(|e| format!("{hex:?}: {e}"))?;
                cur.as_mut()
                    .ok_or_else(|| format!("value {hex:?} before a field name"))?
                    .push(f64::from_bits(bits));
            }
        }
    }
    Ok(cell)
}

fn parse_u64(w: &str) -> Result<u64, String> {
    w.parse().map_err(|e| format!("{w:?}: {e}"))
}

impl Refs {
    /// Render as the checked-in text format.
    pub fn render(&self, header: &str) -> String {
        let mut s = String::new();
        for line in header.lines() {
            let _ = writeln!(s, "# {line}");
        }
        for ((design, n), c) in &self.cells {
            let _ = writeln!(
                s,
                "# {design} n={n}: mean STP {:.6} ANTT {:.6} power {:.3} W",
                c.mean_stp(),
                c.mean_antt(),
                c.mean_power()
            );
            let _ = writeln!(s, "cell {design} {n} {}", cell_fields(c));
        }
        for (app, o) in &self.apps {
            let hist: Vec<String> = o.histogram.iter().map(u64::to_string).collect();
            let _ = writeln!(
                s,
                "app {app} roi {} total {} hist {}",
                o.roi_cycles,
                o.total_cycles,
                hist.join(" ")
            );
        }
        for (n, c) in &self.served {
            let _ = writeln!(s, "served {n} {}", cell_fields(c));
        }
        s
    }

    pub fn parse(text: &str) -> Result<Refs, String> {
        let mut refs = Refs::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let w: Vec<&str> = line.split_whitespace().collect();
            let bad = |why: String| format!("line {}: {why}", i + 1);
            match w.as_slice() {
                ["cell", design, n, rest @ ..] => {
                    let n = parse_u64(n).map_err(bad)? as usize;
                    let cell = parse_cell(rest).map_err(bad)?;
                    refs.cells.insert((design.to_string(), n), cell);
                }
                ["served", n, rest @ ..] => {
                    let n = parse_u64(n).map_err(bad)? as usize;
                    refs.served.insert(n, parse_cell(rest).map_err(bad)?);
                }
                ["app", idx, "roi", roi, "total", total, "hist", hist @ ..] => {
                    let idx = parse_u64(idx).map_err(bad)? as usize;
                    let histogram = hist
                        .iter()
                        .map(|h| parse_u64(h))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(bad)?;
                    refs.apps.insert(
                        idx,
                        ParsecOutcome {
                            roi_cycles: parse_u64(roi).map_err(bad)?,
                            total_cycles: parse_u64(total).map_err(bad)?,
                            histogram,
                        },
                    );
                }
                _ => return Err(bad(format!("unrecognised record {line:?}"))),
            }
        }
        Ok(refs)
    }

    pub fn load(path: &Path) -> Result<Refs, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Refs::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip_is_bit_exact() {
        let mut refs = Refs::default();
        let cell = Cell {
            stp: vec![1.0 / 3.0, f64::MIN_POSITIVE],
            antt: vec![2.5, 1e300],
            power_w: vec![12.25, 0.1],
        };
        refs.cells.insert(("4B".into(), 8), cell.clone());
        refs.served.insert(24, cell);
        refs.apps.insert(
            3,
            ParsecOutcome {
                roi_cycles: 10,
                total_cycles: 12,
                histogram: vec![0, 4, 6],
            },
        );
        let text = refs.render("header\nsecond line");
        assert_eq!(Refs::parse(&text).unwrap(), refs);
        assert!(Refs::parse("cell 4B x").is_err());
    }
}
