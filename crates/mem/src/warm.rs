//! Footprints for functional cache warming, and the access order a
//! warm imposes on each cache.
//!
//! A thread's prewarm footprint is a short list of [`LineRun`]s:
//! consecutive lines of its cold tail, shared region, code and hot set.
//! A warm interleaves the threads round-robin, one line per thread per
//! round, in thread order; round `i` reads line `i` of every footprint
//! that is that long. Each cache sees the subsequence that reaches it:
//! an L1 only its core's code (or data) runs, an L2 its core's runs, the
//! LLC every run. A [`Schedule`] is that subsequence kept as runs placed
//! at their rounds, so a cache can count, split and walk it (either way)
//! without expanding it line by line. [`Cache::prewarm`] turns it into
//! cache state; DESIGN.md §17 has the argument that this is exact.
//!
//! [`Cache::prewarm`]: crate::Cache::prewarm

use crate::addr::LineAddr;

/// `len` consecutive cache lines from `first`: one piece of a thread's
/// prewarm footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRun {
    /// Fetched through the L1 I-cache (code) rather than loaded through
    /// the L1 D-cache (data).
    pub code: bool,
    /// First line of the run.
    pub first: LineAddr,
    /// Number of lines.
    pub len: u64,
}

impl LineRun {
    /// The run's lines, in the order a warm reads them.
    pub fn lines(self) -> impl Iterator<Item = LineAddr> {
        (self.first.0..self.first.0 + self.len).map(LineAddr)
    }
}

/// Position of an access in a warm: `(round, lane)`. Tuple order is
/// access order.
pub(crate) type Key = (u64, usize);

/// A run placed in one cache's warm: its `k`-th line is read in round
/// `round + k`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placed {
    pub round: u64,
    pub first: u64,
    pub len: u64,
}

/// The access sequence one cache sees during a warm: per lane (thread),
/// the placed runs that reach the cache, in round order.
#[derive(Debug, Default)]
pub(crate) struct Schedule {
    lanes: Vec<Vec<Placed>>,
}

/// `len` rounds in which the same lanes read, each from one run: the
/// lane reading `firsts[j]` in the band's first round reads
/// `firsts[j] + r` `r` rounds later. `firsts` is in lane order.
struct Band {
    len: u64,
    firsts: Vec<u64>,
}

impl Schedule {
    /// Place each lane's runs at their rounds and keep those `feeds`
    /// accepts; the others still take up their rounds.
    pub fn new(lanes: &[&[LineRun]], feeds: impl Fn(&LineRun) -> bool) -> Self {
        let lanes = lanes
            .iter()
            .map(|runs| {
                let mut round = 0;
                let mut placed = Vec::new();
                for r in runs.iter() {
                    if r.len > 0 && feeds(r) {
                        placed.push(Placed {
                            round,
                            first: r.first.0,
                            len: r.len,
                        });
                    }
                    round += r.len;
                }
                placed
            })
            .collect();
        Schedule { lanes }
    }

    /// Number of accesses.
    pub fn len(&self) -> u64 {
        self.runs().map(|p| p.len).sum()
    }

    /// Every placed run, lane by lane.
    pub fn runs(&self) -> impl Iterator<Item = &Placed> {
        self.lanes.iter().flatten()
    }

    /// Key of the first access that reads a line an earlier access of
    /// this schedule read, or `None` when every line is read once.
    ///
    /// Lines repeat only where two runs overlap. Within an overlap both
    /// runs read the common lines in increasing order, one per round,
    /// so the earliest second read is that of the lowest common line.
    pub fn first_repeat(&self) -> Option<Key> {
        let placed: Vec<(usize, Placed)> = self
            .lanes
            .iter()
            .enumerate()
            .flat_map(|(l, runs)| runs.iter().map(move |&p| (l, p)))
            .collect();
        let mut cut: Option<Key> = None;
        for (i, &(la, a)) in placed.iter().enumerate() {
            for &(lb, b) in &placed[i + 1..] {
                let lo = a.first.max(b.first);
                if lo >= (a.first + a.len).min(b.first + b.len) {
                    continue;
                }
                let second = (a.round + (lo - a.first), la).max((b.round + (lo - b.first), lb));
                cut = Some(cut.map_or(second, |c| c.min(second)));
            }
        }
        cut
    }

    /// The accesses before `key` and those from `key` on.
    pub fn split(&self, key: Key) -> (Schedule, Schedule) {
        let (mut head, mut tail) = (Schedule::default(), Schedule::default());
        for (l, runs) in self.lanes.iter().enumerate() {
            // Lane `l` reads in round `key.0` before `key` iff `l < key.1`.
            let edge = key.0 + u64::from(l < key.1);
            let (mut h, mut t) = (Vec::new(), Vec::new());
            for &p in runs {
                if p.round + p.len <= edge {
                    h.push(p);
                } else if p.round >= edge {
                    t.push(p);
                } else {
                    let k = edge - p.round;
                    h.push(Placed { len: k, ..p });
                    t.push(Placed {
                        round: edge,
                        first: p.first + k,
                        len: p.len - k,
                    });
                }
            }
            head.lanes.push(h);
            tail.lanes.push(t);
        }
        (head, tail)
    }

    /// Cut the rounds into bands at every run's start and end.
    fn bands(&self) -> Vec<Band> {
        let mut edges: Vec<u64> = self
            .runs()
            .flat_map(|p| [p.round, p.round + p.len])
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
            .windows(2)
            .map(|w| Band {
                len: w[1] - w[0],
                firsts: self
                    .lanes
                    .iter()
                    .filter_map(|runs| {
                        runs.iter()
                            .find(|p| p.round <= w[0] && w[0] < p.round + p.len)
                            .map(|p| p.first + (w[0] - p.round))
                    })
                    .collect(),
            })
            .filter(|b| !b.firsts.is_empty())
            .collect()
    }

    /// Call `f` on every line in access order.
    pub fn for_each(&self, mut f: impl FnMut(u64)) {
        for b in self.bands() {
            for r in 0..b.len {
                for &first in &b.firsts {
                    f(first + r);
                }
            }
        }
    }

    /// Call `f` on the lines in reverse access order until it returns
    /// `true`.
    pub fn rev_until(&self, mut f: impl FnMut(u64) -> bool) {
        for b in self.bands().iter().rev() {
            for r in (0..b.len).rev() {
                for &first in b.firsts.iter().rev() {
                    if f(first + r) {
                        return;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(code: bool, first: u64, len: u64) -> LineRun {
        LineRun {
            code,
            first: LineAddr(first),
            len,
        }
    }

    fn forward(s: &Schedule) -> Vec<u64> {
        let mut v = Vec::new();
        s.for_each(|l| v.push(l));
        v
    }

    #[test]
    fn interleaves_round_robin_and_skips_filtered_runs() {
        let a = [run(false, 100, 2), run(true, 200, 2), run(false, 300, 1)];
        let b = [run(true, 400, 1), run(false, 500, 3)];
        let data = Schedule::new(&[&a, &b], |r| !r.code);
        // Round 0: a100; 1: a101 b500; 2: b501; 3: b502; 4: a300.
        assert_eq!(forward(&data), [100, 101, 500, 501, 502, 300]);
        let mut back = Vec::new();
        data.rev_until(|l| {
            back.push(l);
            false
        });
        back.reverse();
        assert_eq!(back, forward(&data));
        assert_eq!(data.len(), 6);
    }

    #[test]
    fn first_repeat_is_the_lowest_common_line_read_second() {
        let a = [run(false, 10, 5)];
        let b = [run(false, 0, 2), run(false, 12, 4)];
        let s = Schedule::new(&[&a, &b], |_| true);
        // Line 12: lane 0 in round 2, lane 1 in round 2 -> key (2, 1).
        assert_eq!(s.first_repeat(), Some((2, 1)));
        let disjoint = Schedule::new(&[&a, &[run(false, 15, 3)]], |_| true);
        assert_eq!(disjoint.first_repeat(), None);
    }

    #[test]
    fn split_keeps_access_order() {
        let a = [run(false, 0, 4)];
        let b = [run(false, 10, 4)];
        let s = Schedule::new(&[&a, &b], |_| true);
        let all = forward(&s);
        let (h, t) = s.split((1, 1));
        let mut joined = forward(&h);
        joined.extend(forward(&t));
        assert_eq!(joined, all);
        assert_eq!(forward(&h), [0, 10, 1]);
    }
}
