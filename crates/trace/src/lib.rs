//! Unified tracing and metrics for the Liquid SIMD pipeline.
//!
//! The simulator's correctness story (and the paper's argument) is built on
//! *dynamic* events: the post-retirement translator shadowing a retired
//! stream, translations committing or aborting, microcode-cache residency
//! changing, early calls of a loop still running scalar while translation
//! races them. This crate gives every component a shared, dependency-free
//! way to record those moments:
//!
//! * [`TraceEvent`] — the event schema, from instruction retire to
//!   interrupt injection, each tagged with a subsystem [`Track`].
//! * [`Tracer`] — a cheaply cloneable handle over a bounded ring-buffer
//!   recorder plus per-kind tallies. A machine built *without* a tracer
//!   pays only a branch per emit site.
//! * [`Metrics`] — named counters and fixed-bucket [`Histogram`]s
//!   (translation latency, cycles between calls, abort-reason tallies),
//!   maintained by the tracer as events stream through it.
//! * [`span`] — named durations with per-track nesting and both sim-cycle
//!   and wall-clock deltas ([`Tracer::span_begin`]/[`Tracer::span_end`] or
//!   the RAII [`Tracer::span`]), aggregated by name for profile reports.
//! * [`export`] — JSON-lines, Chrome trace-event format (one track per
//!   subsystem, loadable in Perfetto / `chrome://tracing`), and a
//!   human-readable summary.
//! * [`flight`] — the always-on service flight recorder: per-shard
//!   bounded rings of request-lifecycle events with a never-blocking
//!   hot path, drained into `flight-v1` JSONL black-box dumps.
//! * [`json`] — the workspace's one JSON model, parser, writer and
//!   escaper: insertion-ordered keys and raw number text, so append →
//!   load → re-serialize is the identity function, plus the single
//!   pretty layout every report document is written in.
//!
//! ```
//! use liquid_simd_trace::{CallMode, TraceEvent, Tracer};
//!
//! let tracer = Tracer::new();
//! tracer.set_now(120);
//! tracer.emit(TraceEvent::CallEnter { target: 8, mode: CallMode::Scalar });
//! tracer.emit(TraceEvent::TranslationBegin { func_pc: 8 });
//! tracer.set_now(450);
//! tracer.emit(TraceEvent::TranslationCommit {
//!     func_pc: 8,
//!     uops: 9,
//!     dynamic_instrs: 130,
//! });
//! assert_eq!(tracer.kind_count("translation-commit"), 1);
//! let lat = tracer.metrics();
//! let lat = lat.histogram("translation.latency.cycles").unwrap();
//! assert_eq!(lat.max(), 330);
//! println!("{}", liquid_simd_trace::export::summary(&tracer));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod span;
pub mod tracer;

pub use event::{CacheKind, CallMode, TraceEvent, TraceRecord, Track};
pub use flight::{
    FlightEvent, FlightRecord, FlightRecorder, FlightStage, DEFAULT_FLIGHT_CAPACITY, FLIGHT_SCHEMA,
};
pub use json::Json;
pub use metrics::{pow2_bounds, Histogram, Metrics};
pub use span::{SpanAgg, SpanGuard, SpanId, SpanRecord};
pub use tracer::{TraceConfig, Tracer, DEFAULT_CAPACITY};

/// FNV-1a over a byte string: the workspace's one stable hash. It keys
/// `MachineConfig::fingerprint` (the `config_hash` of every history
/// record) and the serve daemon's program, request and response hashes.
/// Deterministic across hosts and runs, which both uses require.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"liquid"), fnv1a(b"liquid"));
        assert_ne!(fnv1a(b"liquid"), fnv1a(b"liquie"));
    }
}
