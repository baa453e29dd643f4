//! Per-thread CPI-stack cycle accounting (DESIGN.md §11).
//!
//! Every cycle a hardware thread context exists it is attributed to
//! exactly one [`CpiComponent`]. The taxonomy follows the interval
//! analysis the paper's authors built for per-thread cycle accounting
//! under SMT: a cycle is either productive (committing at the core's
//! width), lost to a structural limit of the thread itself (frontend,
//! ROB, FU, memory), lost to *sharing* (another context won the fetch
//! or issue arbitration), or idle (no runnable thread in the slot).

/// Number of CPI-stack components.
pub const N_COMPONENTS: usize = 11;

/// Where a hardware-thread cycle went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum CpiComponent {
    /// Productive work: the context committed or issued this cycle
    /// (the base component of the stack, bounded by issue width).
    Base = 0,
    /// Frontend-bound: fetch blocked on an I-cache miss or a
    /// mispredict redirect, with an empty window.
    Frontend = 1,
    /// The reorder buffer (private partition or shared pool) is full.
    RobFull = 2,
    /// The window head is ready but lost functional-unit arbitration
    /// with no other active context (single-thread structural stall).
    FuContention = 3,
    /// Fetch interference under SMT: the context could have fetched
    /// but another context held the fetch slots.
    SmtFetch = 4,
    /// Issue interference under SMT: the window head is ready but
    /// another active context won issue arbitration.
    SmtIssue = 5,
    /// Waiting on an L1 data hit in flight at the window head.
    L1 = 6,
    /// Waiting on an L2 hit in flight at the window head.
    L2 = 7,
    /// Waiting on an LLC hit in flight at the window head.
    Llc = 8,
    /// Waiting on DRAM at the window head.
    Dram = 9,
    /// No runnable thread resident (empty slot, barrier/lock block,
    /// or scheduler switch in progress).
    Idle = 10,
}

impl CpiComponent {
    /// All components, in stack order.
    pub const ALL: [CpiComponent; N_COMPONENTS] = [
        CpiComponent::Base,
        CpiComponent::Frontend,
        CpiComponent::RobFull,
        CpiComponent::FuContention,
        CpiComponent::SmtFetch,
        CpiComponent::SmtIssue,
        CpiComponent::L1,
        CpiComponent::L2,
        CpiComponent::Llc,
        CpiComponent::Dram,
        CpiComponent::Idle,
    ];

    /// Dense index into a per-thread component array.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (used as counter keys and JSON fields).
    pub fn name(self) -> &'static str {
        match self {
            CpiComponent::Base => "base",
            CpiComponent::Frontend => "frontend",
            CpiComponent::RobFull => "rob_full",
            CpiComponent::FuContention => "fu_contention",
            CpiComponent::SmtFetch => "smt_fetch",
            CpiComponent::SmtIssue => "smt_issue",
            CpiComponent::L1 => "l1",
            CpiComponent::L2 => "l2",
            CpiComponent::Llc => "llc",
            CpiComponent::Dram => "dram",
            CpiComponent::Idle => "idle",
        }
    }
}

/// Identity of one hardware thread context: `(core, slot)`.
pub type StackKey = (usize, usize);

/// One context's accumulator row. `touched` distinguishes a context
/// that received an `add` call (possibly with span 0) from dense
/// backing storage that merely exists because a higher-indexed slot
/// was touched — only touched rows are observable through the API.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StackRow {
    comps: [u64; N_COMPONENTS],
    touched: bool,
}

impl StackRow {
    const EMPTY: StackRow = StackRow {
        comps: [0; N_COMPONENTS],
        touched: false,
    };
}

/// Accumulated CPI stacks, keyed by hardware thread context.
///
/// `CpiStacks` is itself a [`crate::TraceSink`] (events are ignored),
/// so accounting can run without paying for event ringing. Storage is
/// dense — per-core, per-slot rows grown on demand — because [`add`]
/// sits on the per-slot-per-cycle path of the dense stepper and a map
/// lookup there is the dominant cost of enabled tracing.
///
/// [`add`]: CpiStacks::add
#[derive(Debug, Clone, Default, Eq)]
pub struct CpiStacks {
    rows: Vec<Vec<StackRow>>,
}

impl PartialEq for CpiStacks {
    /// Logical equality: same touched contexts with the same
    /// components, regardless of how much backing storage each side
    /// happened to grow.
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl CpiStacks {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `span` cycles of `comp` to context `(core, slot)`.
    ///
    /// A span of 0 still marks the context as touched, so restored
    /// snapshots can reproduce contexts that existed but never
    /// accumulated a given component.
    #[inline]
    pub fn add(&mut self, core: usize, slot: usize, comp: CpiComponent, span: u64) {
        if core >= self.rows.len() {
            self.rows.resize(core + 1, Vec::new());
        }
        let row = &mut self.rows[core];
        if slot >= row.len() {
            row.resize(slot + 1, StackRow::EMPTY);
        }
        let e = &mut row[slot];
        e.touched = true;
        e.comps[comp.index()] += span;
    }

    /// The component array for one context, if it ever received cycles.
    pub fn stack(&self, core: usize, slot: usize) -> Option<&[u64; N_COMPONENTS]> {
        self.rows
            .get(core)
            .and_then(|r| r.get(slot))
            .filter(|e| e.touched)
            .map(|e| &e.comps)
    }

    /// Total cycles attributed to one context across all components.
    pub fn total(&self, core: usize, slot: usize) -> u64 {
        self.stack(core, slot).map(|s| s.iter().sum()).unwrap_or(0)
    }

    /// Iterate `(key, components)` over touched contexts in key order.
    pub fn iter(&self) -> impl Iterator<Item = (StackKey, &[u64; N_COMPONENTS])> {
        self.rows.iter().enumerate().flat_map(|(core, row)| {
            row.iter()
                .enumerate()
                .filter(|(_, e)| e.touched)
                .map(move |(slot, e)| ((core, slot), &e.comps))
        })
    }

    /// Number of contexts with any attributed cycles.
    pub fn len(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.iter().filter(|e| e.touched).count())
            .sum()
    }

    /// True when no cycles have been attributed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Chip-wide sum of each component over all contexts.
    pub fn chip_totals(&self) -> [u64; N_COMPONENTS] {
        let mut out = [0u64; N_COMPONENTS];
        for (_, s) in self.iter() {
            for (o, v) in out.iter_mut().zip(s.iter()) {
                *o += v;
            }
        }
        out
    }

    /// Credit the cycles accumulated since `base`, scaled by
    /// `num / den`, on top of the current stacks (sampled-mode
    /// extrapolation, DESIGN.md §15): the per-component attribution
    /// measured over a `den`-cycle detailed window is replayed
    /// analytically over a `num`-cycle extrapolated span. `base` must
    /// be an earlier snapshot of this accumulator (component values
    /// never decrease); contexts absent from `base` count from zero.
    ///
    /// # Panics
    /// When `den == 0`.
    pub fn credit_scaled(&mut self, base: &CpiStacks, num: u64, den: u64) {
        assert!(den > 0, "scaling window must be non-empty");
        let scale = |cur: u64, was: u64| -> u64 {
            (u128::from(cur - was) * u128::from(num) / u128::from(den)) as u64
        };
        for (core, row) in self.rows.iter_mut().enumerate() {
            for (slot, e) in row.iter_mut().enumerate() {
                if !e.touched {
                    continue;
                }
                let zero = [0u64; N_COMPONENTS];
                let was = base.stack(core, slot).unwrap_or(&zero);
                for (c, v) in e.comps.iter_mut().enumerate() {
                    *v += scale(*v, was[c]);
                }
            }
        }
    }

    /// Export every context's components into a counter snapshot under
    /// `cpi.core<c>.slot<s>.<component>` keys.
    pub fn counters_into(&self, snap: &mut crate::CounterSnapshot) {
        for ((core, slot), comps) in self.iter() {
            for c in CpiComponent::ALL {
                snap.add_u64(
                    &format!("cpi.core{core}.slot{slot}.{}", c.name()),
                    comps[c.index()],
                );
            }
        }
    }
}

/// Chip-level CPI accounting: one running total per component, summed
/// over every hardware context as cycles are attributed.
///
/// The sampled-mode phase detector reads only chip-wide component
/// totals (DESIGN.md §15), so this sink keeps exactly those and nothing
/// per context: each attribution is one array add, and a measurement
/// baseline is an 88-byte copy. Use [`CpiStacks`] when per-context
/// stacks are wanted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChipCpi {
    pub(crate) totals: [u64; N_COMPONENTS],
}

impl ChipCpi {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_per_context() {
        let mut s = CpiStacks::new();
        s.add(0, 0, CpiComponent::Base, 5);
        s.add(0, 0, CpiComponent::Dram, 7);
        s.add(1, 1, CpiComponent::Idle, 3);
        assert_eq!(s.total(0, 0), 12);
        assert_eq!(s.total(1, 1), 3);
        assert_eq!(s.total(2, 0), 0);
        assert_eq!(s.stack(0, 0).unwrap()[CpiComponent::Dram.index()], 7);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn chip_totals_sum_contexts() {
        let mut s = CpiStacks::new();
        s.add(0, 0, CpiComponent::Llc, 2);
        s.add(3, 1, CpiComponent::Llc, 5);
        assert_eq!(s.chip_totals()[CpiComponent::Llc.index()], 7);
    }

    #[test]
    fn zero_span_touches_and_equality_ignores_capacity() {
        // A 0-span add must create an observable context (snapshot
        // restore relies on this to reproduce touched-but-zero rows).
        let mut s = CpiStacks::new();
        s.add(1, 1, CpiComponent::Base, 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.stack(1, 1), Some(&[0u64; N_COMPONENTS]));
        // Dense backing rows grown as a side effect (core 0, slot 0)
        // are not observable...
        assert_eq!(s.stack(0, 0), None);
        assert!(s.iter().all(|(k, _)| k == (1, 1)));
        // ...and equality is over logical content, not grown capacity.
        let mut t = CpiStacks::new();
        t.add(9, 3, CpiComponent::Dram, 4); // grow far past s's shape
        t = CpiStacks::new();
        t.add(1, 1, CpiComponent::Base, 0);
        assert_eq!(s, t);
    }

    #[test]
    fn component_names_are_unique_and_indexed() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, c) in CpiComponent::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(seen.insert(c.name()), "duplicate name {}", c.name());
        }
        assert_eq!(seen.len(), N_COMPONENTS);
    }

    #[test]
    fn counters_export_uses_stable_keys() {
        let mut s = CpiStacks::new();
        s.add(2, 1, CpiComponent::SmtIssue, 9);
        let mut snap = crate::CounterSnapshot::new();
        s.counters_into(&mut snap);
        assert_eq!(snap.get_u64("cpi.core2.slot1.smt_issue"), Some(9));
        assert_eq!(snap.get_u64("cpi.core2.slot1.base"), Some(0));
    }
}
