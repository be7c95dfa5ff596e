//! Deterministic, zero-dependency observability for the WIoT stack.
//!
//! The paper's core contribution is *measurement*: per-stage resource
//! numbers justify the Simplified/Reduced detector variants (§IV–V).
//! This crate is the reproduction's measuring instrument — a telemetry
//! layer that can be wired through every hot path (SIFT pipeline,
//! AmuletOS cost metering, transport/channel faults, fleet engine)
//! without ever perturbing a result:
//!
//! * **Events** — sim-clock-timestamped, fixed-size records in a
//!   bounded, preallocated ring buffer ([`ring`]). Overflow drops the
//!   oldest event and counts the eviction; nothing ever reallocates.
//! * **Metrics** — a fixed registry of counters and gauges plus
//!   power-of-two-bucket histograms ([`metrics`]). Everything is
//!   integer-valued, so aggregation across devices is element-wise
//!   addition and therefore bit-stable at any thread count.
//! * **Spans** — per-stage work accounting ([`Stage`]): on the Amulet
//!   path a span's units are the cost model's MSP430 cycles, so stage
//!   breakdowns come out in the paper's units rather than wall-clock.
//!
//! # Determinism rules
//!
//! 1. Timestamps are **simulated** milliseconds supplied by the caller;
//!    the crate never reads a wall clock.
//! 2. Recording is observational only: no instrumented code path may
//!    branch on telemetry state, so a run with telemetry enabled is
//!    byte-identical (same fleet digest) to one with it disabled.
//! 3. A disabled handle ([`Telemetry::disabled`]) holds no allocation
//!    and every recording call on it is a no-op — the hot path costs
//!    one `Option` discriminant test.
//! 4. All mutation lives in [`record`], which is held to the embedded
//!    profile by the workspace analyzer (`tele-embedded-profile`): no
//!    heap after init, no panics, no floats in the counter path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod record;
pub mod ring;

pub use metrics::{CounterId, GaugeId, Histogram, StageStats, COUNTER_COUNT, GAUGE_COUNT};
pub use ring::{Event, EventCode, EventRing};

/// The four instrumented pipeline stages (paper Fig. 2 / §III). The
/// Amulet's three QM states map onto the last three; `Filter` covers
/// the host-side signal conditioning that precedes windowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Signal conditioning / snippet validation.
    Filter,
    /// R-peak and systolic-peak handling (*PeaksDataCheck* on the QM).
    PeakDetection,
    /// Portrait, grid and geometric features (*FeatureExtraction*).
    FeatureExtraction,
    /// Standardization + hyperplane dot product (*MLClassifier*).
    Svm,
}

/// Number of pipeline stages.
pub const STAGE_COUNT: usize = 4;

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Filter,
        Stage::PeakDetection,
        Stage::FeatureExtraction,
        Stage::Svm,
    ];

    /// Dense index (stable export order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name for traces and JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Filter => "filter",
            Stage::PeakDetection => "peak_detection",
            Stage::FeatureExtraction => "feature_extraction",
            Stage::Svm => "svm",
        }
    }
}

/// Default event-ring capacity of [`Telemetry::enabled`].
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// The sink state behind an enabled handle. Allocated once, up front;
/// the recording hot path never grows it.
#[derive(Debug, Clone)]
pub(crate) struct Inner {
    pub(crate) ring: EventRing,
    pub(crate) counters: [u64; COUNTER_COUNT],
    pub(crate) gauges: [i64; GAUGE_COUNT],
    pub(crate) stages: [StageStats; STAGE_COUNT],
}

/// A telemetry handle: either disabled (no allocation, recording is a
/// no-op) or an enabled sink with preallocated storage.
///
/// Handles are deliberately *not* shared or locked — each simulated
/// device owns one, and the fleet engine merges the resulting
/// [`TelemetryReport`]s in device-index order, which keeps the whole
/// layer free of synchronization and scheduling nondeterminism.
#[derive(Debug, Clone)]
pub struct Telemetry {
    pub(crate) inner: Option<Box<Inner>>,
}

impl Telemetry {
    /// A disabled handle: holds nothing, records nothing.
    pub const fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle with the default event capacity.
    pub fn enabled() -> Self {
        Telemetry::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An enabled handle whose ring holds up to `events` events.
    pub fn with_capacity(events: usize) -> Self {
        Telemetry {
            inner: Some(Box::new(Inner {
                ring: EventRing::new(events),
                counters: [0; COUNTER_COUNT],
                gauges: [0; GAUGE_COUNT],
                stages: [StageStats::new(); STAGE_COUNT],
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Snapshot the sink into an immutable, mergeable report
    /// (`None` when disabled).
    pub fn report(&self) -> Option<TelemetryReport> {
        self.inner.as_deref().map(|inner| TelemetryReport {
            counters: inner.counters,
            gauges: inner.gauges,
            stages: inner.stages,
            events_recorded: inner.ring.recorded(),
            events_dropped: inner.ring.dropped(),
            events: inner.ring.iter().collect(),
        })
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

/// An immutable snapshot of one telemetry sink, mergeable across
/// devices. Merging is element-wise integer addition in whatever order
/// the caller folds (the fleet engine folds in device-index order), so
/// merged numbers are bit-stable at any thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Counter values, indexed by [`CounterId::index`].
    pub counters: [u64; COUNTER_COUNT],
    /// Gauge values, indexed by [`GaugeId::index`]. Summed on merge:
    /// divide by the device count for fleet means.
    pub gauges: [i64; GAUGE_COUNT],
    /// Per-stage span statistics, indexed by [`Stage::index`].
    pub stages: [StageStats; STAGE_COUNT],
    /// Events ever offered to the ring (including evicted ones).
    pub events_recorded: u64,
    /// Events evicted by ring overflow.
    pub events_dropped: u64,
    /// The ring contents, oldest first. Cleared by [`merge`]
    /// (per-device traces stay per-device; aggregates carry counts).
    ///
    /// [`merge`]: TelemetryReport::merge
    pub events: Vec<Event>,
}

impl TelemetryReport {
    /// Value of one counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters.get(id.index()).copied().unwrap_or(0)
    }

    /// Value of one gauge.
    pub fn gauge(&self, id: GaugeId) -> i64 {
        self.gauges.get(id.index()).copied().unwrap_or(0)
    }

    /// Statistics of one stage.
    pub fn stage(&self, stage: Stage) -> StageStats {
        self.stages
            .get(stage.index())
            .copied()
            .unwrap_or_else(StageStats::new)
    }

    /// Fold `other` into `self`: counters, gauges, stage statistics and
    /// event totals add element-wise; the event list is dropped (traces
    /// are per-device artifacts, not aggregates).
    pub fn merge(&mut self, other: &TelemetryReport) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.stages.iter_mut().zip(other.stages.iter()) {
            a.merge(b);
        }
        self.events_recorded = self.events_recorded.saturating_add(other.events_recorded);
        self.events_dropped = self.events_dropped.saturating_add(other.events_dropped);
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_holds_nothing_and_reports_none() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(t.report().is_none());
        // The disabled handle is exactly one niche-optimized pointer.
        assert_eq!(
            std::mem::size_of::<Telemetry>(),
            std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn enabled_handle_reports_zeroed_state() {
        let t = Telemetry::enabled();
        let r = t.report().unwrap();
        assert!(r.counters.iter().all(|&c| c == 0));
        assert!(r.events.is_empty());
        assert_eq!(r.events_recorded, 0);
        for s in Stage::ALL {
            assert_eq!(r.stage(s).spans, 0);
        }
    }

    #[test]
    fn stage_indices_are_dense_and_names_stable() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert_eq!(Stage::Filter.name(), "filter");
        assert_eq!(Stage::Svm.name(), "svm");
    }

    #[test]
    fn merge_adds_counters_and_drops_events() {
        let mut a = Telemetry::enabled();
        let mut b = Telemetry::enabled();
        a.count(CounterId::WindowsEmitted, 2);
        b.count(CounterId::WindowsEmitted, 3);
        a.event(1, EventCode::WindowEmitted, 0, 0);
        b.event(2, EventCode::WindowEmitted, 1, 0);
        a.span(5, Stage::Svm, 100);
        b.span(6, Stage::Svm, 200);
        let mut ra = a.report().unwrap();
        let rb = b.report().unwrap();
        ra.merge(&rb);
        assert_eq!(ra.counter(CounterId::WindowsEmitted), 5);
        assert_eq!(ra.stage(Stage::Svm).spans, 2);
        assert_eq!(ra.stage(Stage::Svm).units, 300);
        // Span events + window events from both sides are counted...
        assert_eq!(ra.events_recorded, 4);
        // ...but the merged trace itself is empty.
        assert!(ra.events.is_empty());
    }

    #[test]
    fn merge_is_order_insensitive_for_integers() {
        let mut a = Telemetry::enabled();
        let mut b = Telemetry::enabled();
        a.count(CounterId::PacketsSent, 7);
        a.span(0, Stage::Filter, 11);
        b.count(CounterId::PacketsSent, 9);
        b.span(0, Stage::Filter, 13);
        let (ra, rb) = (a.report().unwrap(), b.report().unwrap());
        let mut ab = ra.clone();
        ab.merge(&rb);
        let mut ba = rb.clone();
        ba.merge(&ra);
        assert_eq!(ab, ba);
    }
}
