//! The zero-cost sink abstraction the simulator is generic over.

use crate::{
    ChipCpi, CpiComponent, CpiStacks, EventRing, TraceEvent, DEFAULT_RING_CAP, N_COMPONENTS,
};

/// Receiver for cycle attributions and structural events.
///
/// The simulator's hot loops take `sink: &mut S` with
/// `S: TraceSink` and guard every hook site with
/// `if S::ENABLED { ... }`. `ENABLED` is an associated *constant*, so
/// for [`NopSink`] the branch folds to `if false` at monomorphization
/// time and the instrumented build is machine-code-identical to an
/// uninstrumented one — no virtual dispatch, no runtime flag checks.
pub trait TraceSink {
    /// Whether this sink observes anything. Hook sites must guard on
    /// this so disabled instrumentation is dead-code-eliminated.
    const ENABLED: bool;

    /// Attribute `span` cycles of hardware thread context
    /// `(core, slot)` to CPI-stack component `comp`.
    fn attr(&mut self, core: usize, slot: usize, comp: CpiComponent, span: u64);

    /// Record a structural event.
    fn event(&mut self, ev: TraceEvent);
}

/// The default sink: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NopSink;

impl TraceSink for NopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn attr(&mut self, _core: usize, _slot: usize, _comp: CpiComponent, _span: u64) {}

    #[inline(always)]
    fn event(&mut self, _ev: TraceEvent) {}
}

/// Accounting-only sink: accumulates CPI stacks, ignores events.
impl TraceSink for CpiStacks {
    const ENABLED: bool = true;

    #[inline]
    fn attr(&mut self, core: usize, slot: usize, comp: CpiComponent, span: u64) {
        self.add(core, slot, comp, span);
    }

    #[inline]
    fn event(&mut self, _ev: TraceEvent) {}
}

/// Chip-level accounting sink: one total per component, ignores events.
impl TraceSink for ChipCpi {
    const ENABLED: bool = true;

    #[inline]
    fn attr(&mut self, _core: usize, _slot: usize, comp: CpiComponent, span: u64) {
        self.totals[comp.index()] += span;
    }

    #[inline]
    fn event(&mut self, _ev: TraceEvent) {}
}

/// A CPI sink the sampled engine can observe and extrapolate
/// (DESIGN.md §15): the phase detector reads its chip-wide component
/// totals, and an applied stride credits it the cycles attributed since
/// an earlier copy of itself (the window baseline), scaled to the
/// stride.
pub trait SampleSink: TraceSink + Clone {
    /// Chip-wide sum of each component over all contexts.
    fn chip_totals(&self) -> [u64; N_COMPONENTS];

    /// Credit the cycles accumulated since `base` (an earlier copy of
    /// this sink), scaled by `num / den`, on top of the current values.
    ///
    /// # Panics
    /// When `den == 0`.
    fn credit_scaled(&mut self, base: &Self, num: u64, den: u64);
}

impl SampleSink for CpiStacks {
    fn chip_totals(&self) -> [u64; N_COMPONENTS] {
        CpiStacks::chip_totals(self)
    }

    fn credit_scaled(&mut self, base: &Self, num: u64, den: u64) {
        CpiStacks::credit_scaled(self, base, num, den);
    }
}

impl SampleSink for ChipCpi {
    fn chip_totals(&self) -> [u64; N_COMPONENTS] {
        self.totals
    }

    fn credit_scaled(&mut self, base: &Self, num: u64, den: u64) {
        assert!(den > 0, "scaling window must be non-empty");
        for (v, &was) in self.totals.iter_mut().zip(&base.totals) {
            *v += (u128::from(*v - was) * u128::from(num) / u128::from(den)) as u64;
        }
    }
}

/// Full sink: CPI stacks plus the bounded event ring.
#[derive(Debug, Clone)]
pub struct Tracer {
    /// Accumulated per-context CPI stacks.
    pub stacks: CpiStacks,
    /// Bounded structural event ring.
    pub ring: EventRing,
}

impl Tracer {
    /// Tracer with a ring of `cap` events.
    pub fn new(cap: usize) -> Self {
        Tracer {
            stacks: CpiStacks::new(),
            ring: EventRing::new(cap),
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_RING_CAP)
    }
}

impl TraceSink for Tracer {
    const ENABLED: bool = true;

    #[inline]
    fn attr(&mut self, core: usize, slot: usize, comp: CpiComponent, span: u64) {
        self.stacks.add(core, slot, comp, span);
    }

    #[inline]
    fn event(&mut self, ev: TraceEvent) {
        self.ring.push(ev);
    }
}

/// Forwarding impl so hook sites can pass `&mut sink` down a call
/// level without re-borrowing gymnastics.
impl<S: TraceSink> TraceSink for &mut S {
    const ENABLED: bool = S::ENABLED;

    #[inline(always)]
    fn attr(&mut self, core: usize, slot: usize, comp: CpiComponent, span: u64) {
        (**self).attr(core, slot, comp, span);
    }

    #[inline(always)]
    fn event(&mut self, ev: TraceEvent) {
        (**self).event(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_sink_is_zero_sized_and_disabled() {
        fn enabled<S: TraceSink>() -> bool {
            S::ENABLED
        }
        assert_eq!(std::mem::size_of::<NopSink>(), 0);
        assert!(!enabled::<NopSink>());
        assert!(!enabled::<&mut NopSink>());
    }

    #[test]
    fn tracer_routes_both_channels() {
        let mut t = Tracer::new(8);
        t.attr(1, 0, CpiComponent::Dram, 4);
        t.event(TraceEvent::Bus {
            core: 1,
            start: 10,
            end: 31,
        });
        assert_eq!(t.stacks.total(1, 0), 4);
        assert_eq!(t.ring.len(), 1);
    }

    #[test]
    fn cpistacks_sink_ignores_events() {
        let mut s = CpiStacks::new();
        TraceSink::event(
            &mut s,
            TraceEvent::Bus {
                core: 0,
                start: 0,
                end: 1,
            },
        );
        TraceSink::attr(&mut s, 0, 1, CpiComponent::Base, 2);
        assert_eq!(s.total(0, 1), 2);
    }

    #[test]
    fn chip_sink_matches_per_context_totals() {
        let (mut chip, mut ctx) = (ChipCpi::new(), CpiStacks::new());
        for (core, slot, comp, span) in [
            (0, 0, CpiComponent::Base, 5),
            (1, 1, CpiComponent::Dram, 7),
            (0, 1, CpiComponent::Dram, 2),
        ] {
            TraceSink::attr(&mut chip, core, slot, comp, span);
            TraceSink::attr(&mut ctx, core, slot, comp, span);
        }
        assert_eq!(
            SampleSink::chip_totals(&chip),
            SampleSink::chip_totals(&ctx)
        );
        // Credit the 3 Base cycles since `base`, scaled by 2/1.
        let base = chip;
        TraceSink::attr(&mut chip, 0, 0, CpiComponent::Base, 3);
        SampleSink::credit_scaled(&mut chip, &base, 2, 1);
        let totals = SampleSink::chip_totals(&chip);
        assert_eq!(totals[CpiComponent::Base.index()], 5 + 3 + 6);
        assert_eq!(totals[CpiComponent::Dram.index()], 9);
    }

    #[test]
    fn forwarding_impl_reaches_inner_sink() {
        let mut t = Tracer::new(4);
        {
            let mut r = &mut t;
            TraceSink::attr(&mut r, 0, 0, CpiComponent::Idle, 1);
        }
        assert_eq!(t.stacks.total(0, 0), 1);
    }
}
