//! Per-name span totals for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public
//! functions (`Machine::new`, `Machine::run`, `build_*`, `asm::assemble`,
//! `Cache::access`, `ops::execute`, the daemon's `inspect` op). Nothing
//! inside the program is instrumented. Every metric reads a name's count,
//! summed time and summed work, so that is all a recorder keeps. A
//! disabled recorder records nothing, so the untraced run pays one branch
//! per call site.

use std::collections::BTreeMap;
use std::time::Instant;

/// Totals over the spans recorded under one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration in ns.
    pub ns: u64,
    /// Summed work units (retired instructions, cache accesses, …).
    pub work: u64,
}

impl Totals {
    /// Mean duration per span in ms (0 without spans).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        ratio(self.ns as f64 / 1e6, self.count as f64)
    }

    /// Mean duration per span in µs (0 without spans).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        ratio(self.ns as f64 / 1e3, self.count as f64)
    }

    /// Duration per work unit in ns (0 without work).
    #[must_use]
    pub fn ns_per_work(&self) -> f64 {
        ratio(self.ns as f64, self.work as f64)
    }
}

/// `a / b`, or 0 when `b` is 0.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The recorder: [`Totals`] per layer-qualified span name, e.g.
/// `sim.Machine::run/liquid`.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    totals: BTreeMap<&'static str, Totals>,
}

impl Spans {
    /// A recorder; `enabled = false` makes every call a no-op.
    #[must_use]
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            totals: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Adds one span of `ns` covering `work` units under `name`.
    pub fn record(&mut self, name: &'static str, ns: u64, work: u64) {
        if self.enabled {
            let t = self.totals.entry(name).or_default();
            t.count += 1;
            t.ns += ns;
            t.work += work;
        }
    }

    /// Runs `f` inside a span named `name`; `work` derives the span's work
    /// units from the result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> u64,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.record(name, ns, work(&out));
        out
    }

    /// Adds another recorder's totals (e.g. a worker thread's).
    pub fn absorb(&mut self, other: Spans) {
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.ns += t.ns;
            mine.work += t.work;
        }
    }

    /// Totals over every span named `name`.
    #[must_use]
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let v = s.time("x", || 7, |_| 3);
        assert_eq!(v, 7);
        s.record("x", 5, 1);
        assert_eq!(s.totals("x"), Totals::default());
    }

    #[test]
    fn totals_add_up_across_recorders() {
        let mut s = Spans::new(true);
        s.time("inner", || (), |()| 5);
        s.record("inner", 40, 1);
        let mut other = Spans::new(true);
        other.record("inner", 60, 2);
        other.record("outer", 10, 0);
        s.absorb(other);
        let t = s.totals("inner");
        assert_eq!((t.count, t.work), (3, 8));
        assert!(t.ns >= 100);
        assert_eq!(s.totals("outer").mean_us(), 0.01);
    }
}
