//! The recording hot path.
//!
//! Everything in this module runs inside instrumented inner loops, so
//! it is held to the workspace analyzer's embedded profile
//! (`tele-embedded-profile`): no heap allocation after init, no
//! panicking constructs, no floating point, and no bracket indexing —
//! every slot access goes through `get`/`get_mut` and every add
//! saturates.

use crate::metrics::{CounterId, GaugeId, Histogram};
use crate::ring::{Event, EventCode, EventRing};
use crate::{Stage, Telemetry};

impl Telemetry {
    /// Add `n` to a counter. No-op when disabled.
    pub fn count(&mut self, id: CounterId, n: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            if let Some(slot) = inner.counters.get_mut(id.index()) {
                *slot = slot.saturating_add(n);
            }
        }
    }

    /// Set a gauge to an instantaneous value. No-op when disabled.
    pub fn gauge_set(&mut self, id: GaugeId, value: i64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            if let Some(slot) = inner.gauges.get_mut(id.index()) {
                *slot = value;
            }
        }
    }

    /// Record a structured event at simulated time `t_ms`. No-op when
    /// disabled.
    pub fn event(&mut self, t_ms: u64, code: EventCode, a: u64, b: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.ring.push(Event { t_ms, code, a, b });
        }
    }

    /// Close a stage span: `units` of work (MSP430 cycles on the Amulet
    /// path) attributed to `stage` at simulated time `t_ms`. Updates the
    /// stage statistics and appends a [`EventCode::Span`] event. No-op
    /// when disabled.
    pub fn span(&mut self, t_ms: u64, stage: Stage, units: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            if let Some(stats) = inner.stages.get_mut(stage.index()) {
                stats.spans = stats.spans.saturating_add(1);
                stats.units = stats.units.saturating_add(units);
                stats.hist.observe(units);
            }
            inner.ring.push(Event {
                t_ms,
                code: EventCode::Span,
                a: stage.index() as u64,
                b: units,
            });
        }
    }
}

impl EventRing {
    /// Append an event; when full, evict the oldest and count the drop.
    /// Never allocates.
    pub fn push(&mut self, ev: Event) {
        self.recorded = self.recorded.saturating_add(1);
        let cap = self.buf.len();
        if cap == 0 {
            self.dropped = self.dropped.saturating_add(1);
            return;
        }
        if self.len < cap {
            let slot = (self.head + self.len) % cap;
            if let Some(s) = self.buf.get_mut(slot) {
                *s = ev;
            }
            self.len += 1;
        } else {
            if let Some(s) = self.buf.get_mut(self.head) {
                *s = ev;
            }
            self.head = (self.head + 1) % cap;
            self.dropped = self.dropped.saturating_add(1);
        }
    }
}

impl Histogram {
    /// Count one observation of `value`.
    pub fn observe(&mut self, value: u64) {
        if let Some(slot) = self.buckets.get_mut(Histogram::bucket_of(value)) {
            *slot = slot.saturating_add(1);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_no_op() {
        let mut t = Telemetry::disabled();
        t.count(CounterId::PacketsSent, 5);
        t.gauge_set(GaugeId::BatteryPermille, 900);
        t.event(1, EventCode::FaultReboot, 0, 0);
        t.span(2, Stage::Svm, 1000);
        assert!(t.report().is_none());
    }

    #[test]
    fn counters_and_gauges_record() {
        let mut t = Telemetry::enabled();
        t.count(CounterId::PacketsSent, 5);
        t.count(CounterId::PacketsSent, 2);
        t.gauge_set(GaugeId::BatteryPermille, 940);
        t.gauge_set(GaugeId::BatteryPermille, 910);
        let r = t.report().unwrap();
        assert_eq!(r.counter(CounterId::PacketsSent), 7);
        assert_eq!(r.gauge(GaugeId::BatteryPermille), 910, "gauges overwrite");
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut t = Telemetry::enabled();
        t.count(CounterId::PacketsSent, u64::MAX);
        t.count(CounterId::PacketsSent, 10);
        assert_eq!(
            t.report().unwrap().counter(CounterId::PacketsSent),
            u64::MAX
        );
    }

    #[test]
    fn span_updates_stats_and_ring() {
        let mut t = Telemetry::enabled();
        t.span(10, Stage::FeatureExtraction, 37_000);
        t.span(20, Stage::FeatureExtraction, 41_000);
        let r = t.report().unwrap();
        let s = r.stage(Stage::FeatureExtraction);
        assert_eq!(s.spans, 2);
        assert_eq!(s.units, 78_000);
        assert_eq!(s.hist.count, 2);
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.events[0].code, EventCode::Span);
        assert_eq!(r.events[0].a, Stage::FeatureExtraction.index() as u64);
        assert_eq!(r.events[0].b, 37_000);
    }

    #[test]
    fn ring_wraps_through_push() {
        let mut t = Telemetry::with_capacity(2);
        for i in 0..4 {
            t.event(i, EventCode::WindowEmitted, i, 0);
        }
        let r = t.report().unwrap();
        assert_eq!(r.events_recorded, 4);
        assert_eq!(r.events_dropped, 2);
        let times: Vec<u64> = r.events.iter().map(|e| e.t_ms).collect();
        assert_eq!(times, vec![2, 3]);
    }
}
