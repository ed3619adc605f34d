//! Timing-only set-associative cache with true-LRU replacement.

use std::fmt;

use liquid_simd_trace::{CacheKind, TraceEvent, Tracer};

/// Geometry and latency of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Extra cycles charged on a miss (fill latency from the next level).
    pub miss_penalty: u32,
}

impl CacheConfig {
    /// The ARM-926EJ-S configuration used throughout the paper's evaluation:
    /// 16 KB, 64-way set-associative, 32-byte lines (§5).
    #[must_use]
    pub fn arm926_16k() -> CacheConfig {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 64,
            line_bytes: 32,
            miss_penalty: 30,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or is not power-of-two
    /// shaped.
    #[must_use]
    pub fn sets(&self) -> u32 {
        assert!(self.line_bytes.is_power_of_two(), "line size power of two");
        let lines = self.size_bytes / self.line_bytes;
        assert_eq!(lines % self.ways, 0, "ways must divide line count");
        let sets = lines / self.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig::arm926_16k()
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
}

impl CacheStats {
    /// Misses (`accesses - hits`).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss rate in `[0, 1]`; zero when there were no accesses.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} misses ({:.2}%)",
            self.accesses,
            self.misses(),
            self.miss_rate() * 100.0
        )
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    tag: u32,
    valid: bool,
    /// Monotonic timestamp of the last touch, for true LRU.
    last_use: u64,
}

/// A set-associative cache timing model.
///
/// [`Cache::access`] classifies an access as hit or miss, updates residency
/// and LRU state, and returns the hit flag; the caller charges
/// [`CacheConfig::miss_penalty`] for misses.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    sets: u32,
    ways: Vec<Way>,
    tick: u64,
    stats: CacheStats,
    /// Optional event recorder; set with [`Cache::attach_tracer`]. Without
    /// it, the access path pays one branch.
    tracer: Option<(Tracer, CacheKind)>,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    #[must_use]
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.sets();
        Cache {
            config,
            sets,
            ways: vec![Way::default(); (sets * config.ways) as usize],
            tick: 0,
            stats: CacheStats::default(),
            tracer: None,
        }
    }

    /// Attaches a tracer; every miss then emits a
    /// [`TraceEvent::CacheMiss`] tagged with `kind`.
    pub fn attach_tracer(&mut self, tracer: Tracer, kind: CacheKind) {
        self.tracer = Some((tracer, kind));
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_range(&self, addr: u32) -> (std::ops::Range<usize>, u32) {
        let line = addr / self.config.line_bytes;
        let set = line % self.sets;
        let tag = line / self.sets;
        let start = (set * self.config.ways) as usize;
        (start..start + self.config.ways as usize, tag)
    }

    /// Accesses one byte address; returns `true` on a hit. Both reads and
    /// writes allocate (write-allocate, which is what the timing model of a
    /// write-back cache needs).
    pub fn access(&mut self, addr: u32) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let (range, tag) = self.set_range(addr);
        let ways = &mut self.ways[range];
        if let Some(way) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_use = self.tick;
            self.stats.hits += 1;
            return true;
        }
        // Miss: fill into the invalid or least-recently-used way.
        if let Some((tracer, kind)) = &self.tracer {
            tracer.emit(TraceEvent::CacheMiss { cache: *kind, addr });
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.last_use } else { 0 })
            .expect("cache has at least one way");
        victim.valid = true;
        victim.tag = tag;
        victim.last_use = self.tick;
        false
    }

    /// Accesses a byte *range* (e.g. a `W`-element vector load): touches
    /// every line the range covers and returns the number of lines that
    /// missed. Vector memory operations use this — a 16-element `f32` vector
    /// spans two or three 32-byte lines.
    pub fn access_range(&mut self, addr: u32, len: u32) -> u32 {
        if len == 0 {
            return 0;
        }
        let first = addr / self.config.line_bytes;
        let last = (addr + len - 1) / self.config.line_bytes;
        let mut misses = 0;
        for line in first..=last {
            if !self.access(line * self.config.line_bytes) {
                misses += 1;
            }
        }
        misses
    }

    /// Whether an address is currently resident (no state change).
    #[must_use]
    pub fn probe(&self, addr: u32) -> bool {
        let (range, tag) = self.set_range(addr);
        self.ways[range].iter().any(|w| w.valid && w.tag == tag)
    }

    /// Invalidates everything (e.g. on simulated context switch).
    pub fn flush(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 16-byte lines = 64 bytes.
        Cache::new(CacheConfig {
            size_bytes: 64,
            ways: 2,
            line_bytes: 16,
            miss_penalty: 10,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::arm926_16k().sets(), 8);
        assert_eq!(tiny().config().sets(), 2);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x00));
        assert!(c.access(0x04)); // same line
        assert!(c.access(0x0F));
        assert!(!c.access(0x10)); // next line, different set
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses(), 2);
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny();
        // Set 0 holds lines with (line % 2 == 0): addresses 0x00, 0x20, 0x40.
        assert!(!c.access(0x00));
        assert!(!c.access(0x20));
        assert!(c.access(0x00)); // touch: 0x20 is now LRU
        assert!(!c.access(0x40)); // evicts 0x20
        assert!(c.access(0x00));
        assert!(!c.access(0x20)); // was evicted
    }

    #[test]
    fn range_access_counts_lines() {
        let mut c = tiny();
        assert_eq!(c.access_range(0x08, 16), 2); // spans lines 0 and 1
        assert_eq!(c.access_range(0x08, 16), 0); // both resident now
        assert_eq!(c.access_range(0x00, 1), 0);
        assert_eq!(c.access_range(0x00, 0), 0);
    }

    #[test]
    fn probe_and_flush() {
        let mut c = tiny();
        c.access(0x00);
        assert!(c.probe(0x0C));
        c.flush();
        assert!(!c.probe(0x0C));
    }

    #[test]
    fn working_set_behaviour_matches_capacity() {
        // A working set larger than capacity never stops missing under LRU
        // with a cyclic scan (the 179.art scenario in miniature).
        let mut c = tiny();
        let lines = 8u32; // 128 bytes > 64-byte capacity
        let mut misses = 0;
        for round in 0..4 {
            for i in 0..lines {
                if !c.access(i * 16) {
                    misses += 1;
                }
            }
            if round > 0 {
                // Steady state: every access misses (cyclic scan + LRU).
            }
        }
        assert_eq!(misses, 32);

        // A working set that fits stops missing after the first pass.
        let mut c = tiny();
        let mut misses = 0;
        for _ in 0..4 {
            for i in 0..4u32 {
                if !c.access(i * 16) {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses, 4);
    }
}
