//! The unified counter registry.
//!
//! Every stats-bearing struct in the simulator exports into one
//! string-keyed [`CounterSnapshot`] via a `counters_into` method, so
//! figure benches, the sweep executor, and the disk cache aggregate a
//! single shape instead of walking bespoke struct hierarchies. Keys
//! are dot-separated hierarchical names (`core3.issued`,
//! `mem.llc.misses`, `cpi.core0.slot1.dram`).

use std::collections::BTreeMap;

/// A counter's value: monotonic integral counts or derived ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CounterValue {
    /// An integral event count.
    Int(u64),
    /// A derived floating-point figure (rates, averages).
    Float(f64),
}

/// An ordered, string-keyed snapshot of counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterSnapshot {
    counters: BTreeMap<String, CounterValue>,
}

impl CounterSnapshot {
    /// Empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `v` to the integer counter `key` (creating it at 0).
    /// Adding an integer to a float counter promotes the addend.
    pub fn add_u64(&mut self, key: &str, v: u64) {
        match self.counters.get_mut(key) {
            Some(CounterValue::Int(cur)) => *cur += v,
            Some(CounterValue::Float(cur)) => *cur += v as f64,
            None => {
                self.counters.insert(key.to_string(), CounterValue::Int(v));
            }
        }
    }

    /// Set the float counter `key` (floats are derived figures:
    /// last-writer-wins rather than summed).
    pub fn set_f64(&mut self, key: &str, v: f64) {
        self.counters
            .insert(key.to_string(), CounterValue::Float(v));
    }

    /// Look up a counter.
    pub fn get(&self, key: &str) -> Option<CounterValue> {
        self.counters.get(key).copied()
    }

    /// Look up an integer counter (None for floats or missing keys).
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.counters.get(key) {
            Some(CounterValue::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// Number of counters held.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True when no counters are held.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Iterate `(key, value)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, CounterValue)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merge another snapshot into this one: integer counters sum,
    /// float counters take the other side's value.
    pub fn merge(&mut self, other: &CounterSnapshot) {
        for (k, v) in other.iter() {
            match v {
                CounterValue::Int(i) => self.add_u64(k, i),
                CounterValue::Float(f) => self.set_f64(k, f),
            }
        }
    }

    /// Render as a flat JSON object (keys sorted; floats rendered via
    /// Rust's shortest-roundtrip formatting, NaN/inf as null).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.counters.len() * 24 + 2);
        out.push('{');
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":"));
            match v {
                CounterValue::Int(x) => out.push_str(&x.to_string()),
                CounterValue::Float(x) if x.is_finite() => out.push_str(&format!("{x}")),
                CounterValue::Float(_) => out.push_str("null"),
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut s = CounterSnapshot::new();
        s.add_u64("core0.issued", 10);
        s.add_u64("core0.issued", 5);
        s.set_f64("mem.llc.miss_rate", 0.25);
        assert_eq!(s.get_u64("core0.issued"), Some(15));
        assert_eq!(s.get("mem.llc.miss_rate"), Some(CounterValue::Float(0.25)));
        assert_eq!(s.get_u64("mem.llc.miss_rate"), None);
        assert_eq!(s.get("missing"), None);
    }

    #[test]
    fn merge_sums_ints_and_overwrites_floats() {
        let mut a = CounterSnapshot::new();
        a.add_u64("n", 3);
        a.set_f64("rate", 0.5);
        let mut b = CounterSnapshot::new();
        b.add_u64("n", 4);
        b.add_u64("only_b", 1);
        b.set_f64("rate", 0.75);
        a.merge(&b);
        assert_eq!(a.get_u64("n"), Some(7));
        assert_eq!(a.get_u64("only_b"), Some(1));
        assert_eq!(a.get("rate"), Some(CounterValue::Float(0.75)));
    }

    #[test]
    fn json_is_sorted_and_flat() {
        let mut s = CounterSnapshot::new();
        s.add_u64("b", 2);
        s.add_u64("a", 1);
        s.set_f64("c", 1.5);
        assert_eq!(s.to_json(), "{\"a\":1,\"b\":2,\"c\":1.5}");
    }

    #[test]
    fn json_handles_nonfinite_and_empty() {
        let mut s = CounterSnapshot::new();
        assert_eq!(s.to_json(), "{}");
        s.set_f64("bad", f64::NAN);
        assert_eq!(s.to_json(), "{\"bad\":null}");
    }
}
