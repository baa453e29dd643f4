//! Bounded structural event tracing.
//!
//! Events are recorded into an overwrite-oldest ring so an arbitrarily
//! long run has bounded memory: when full, the oldest events drop and
//! a counter records how many were lost. Iteration yields surviving
//! events oldest-first, ready for the Chrome exporter.

/// Default ring capacity, in events.
pub const DEFAULT_RING_CAP: usize = 1 << 16;

/// One structural simulator event, timestamped in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `count` instructions dispatched into context `(core, slot)`.
    Fetch {
        core: usize,
        slot: usize,
        at: u64,
        count: u32,
    },
    /// `count` instructions issued from context `(core, slot)`.
    Issue {
        core: usize,
        slot: usize,
        at: u64,
        count: u32,
    },
    /// `count` instructions committed from context `(core, slot)`.
    Commit {
        core: usize,
        slot: usize,
        at: u64,
        count: u32,
    },
    /// A demand access from `core` that missed L1 and filled from
    /// `level` (2 = L2, 3 = LLC, 4 = DRAM), occupying `[start, end)`.
    Fill {
        core: usize,
        level: u8,
        start: u64,
        end: u64,
    },
    /// One line transfer over the off-chip bus on behalf of `core`.
    Bus { core: usize, start: u64, end: u64 },
    /// One DRAM bank access on behalf of `core`.
    DramBank {
        core: usize,
        bank: u8,
        start: u64,
        end: u64,
    },
}

impl TraceEvent {
    /// The core the event belongs to (trace-viewer process id).
    pub fn core(&self) -> usize {
        match *self {
            TraceEvent::Fetch { core, .. }
            | TraceEvent::Issue { core, .. }
            | TraceEvent::Commit { core, .. }
            | TraceEvent::Fill { core, .. }
            | TraceEvent::Bus { core, .. }
            | TraceEvent::DramBank { core, .. } => core,
        }
    }
}

/// Fixed-capacity overwrite-oldest event ring.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Next write position (wraps at `cap`).
    head: usize,
    /// Total events ever recorded (recorded - cap = dropped when full).
    total: u64,
}

impl EventRing {
    /// Ring with room for `cap` events (`cap == 0` is clamped to 1).
    pub fn new(cap: usize) -> Self {
        EventRing {
            buf: Vec::new(),
            cap: cap.max(1),
            head: 0,
            total: 0,
        }
    }

    /// Record an event, overwriting the oldest if full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
        }
        self.head = (self.head + 1) % self.cap;
        self.total += 1;
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Events lost to overwriting.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Iterate surviving events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let split = if self.buf.len() < self.cap {
            0 // not yet wrapped: buffer is already oldest-first
        } else {
            self.head
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit_at(at: u64) -> TraceEvent {
        TraceEvent::Commit {
            core: 0,
            slot: 0,
            at,
            count: 1,
        }
    }

    fn times(r: &EventRing) -> Vec<u64> {
        r.iter()
            .map(|e| match e {
                TraceEvent::Commit { at, .. } => *at,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn under_capacity_keeps_everything_in_order() {
        let mut r = EventRing::new(8);
        for t in 0..5 {
            r.push(commit_at(t));
        }
        assert_eq!(times(&r), vec![0, 1, 2, 3, 4]);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.total_recorded(), 5);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let mut r = EventRing::new(4);
        for t in 0..10 {
            r.push(commit_at(t));
        }
        assert_eq!(times(&r), vec![6, 7, 8, 9]);
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.total_recorded(), 10);
    }

    #[test]
    fn exact_capacity_boundary() {
        let mut r = EventRing::new(3);
        for t in 0..3 {
            r.push(commit_at(t));
        }
        assert_eq!(times(&r), vec![0, 1, 2]);
        assert_eq!(r.dropped(), 0);
        r.push(commit_at(3));
        assert_eq!(times(&r), vec![1, 2, 3]);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn zero_cap_is_clamped() {
        let mut r = EventRing::new(0);
        r.push(commit_at(1));
        r.push(commit_at(2));
        assert_eq!(r.capacity(), 1);
        assert_eq!(times(&r), vec![2]);
    }
}
