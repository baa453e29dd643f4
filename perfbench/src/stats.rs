//! Small numeric and process helpers shared by the workloads.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] of `xs`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, read from
/// `/proc/<pid>/status`; `None` when the process is gone or the field
/// is unavailable.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Value of the flat numeric field `"key":<number>` in a one-level
/// JSON object such as the daemon's `STATS` snapshot.
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_numbers_parse() {
        let j = r#"{"daemon.cells.completed":9,"daemon.cells.deduped":900,"x":1.5}"#;
        assert_eq!(json_number(j, "daemon.cells.completed"), Some(9.0));
        assert_eq!(json_number(j, "daemon.cells.deduped"), Some(900.0));
        assert_eq!(json_number(j, "x"), Some(1.5));
        assert_eq!(json_number(j, "missing"), None);
    }
}
