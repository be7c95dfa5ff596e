//! The bounded event ring: fixed-size records, preallocated storage,
//! drop-oldest overflow.
//!
//! Construction (which allocates) lives here; the push path lives in
//! [`crate::record`] so the analyzer can hold it to the embedded
//! profile.

/// What happened. Fixed schema — recording never interns or formats
/// strings, so the hot path stays allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventCode {
    /// Padding/default slot value; never recorded by instrumentation.
    #[default]
    None,
    /// A stage span closed: `a` = [`crate::Stage::index`], `b` = units.
    Span,
    /// Brownout power cycle (`a` = reboot ordinal).
    FaultReboot,
    /// Checkpoint commit cut mid-write (`a` = bytes written).
    FaultTornCommit,
    /// FRAM bit flip (`a` = byte offset, `b` = bit).
    FaultBitRot,
    /// Sensor chunk lost to dropout (`a` = stream index).
    FaultDropout,
    /// Sensor chunk frozen at the last healthy value (`a` = stream).
    FaultStuck,
    /// Link-degradation episode began (`a` = stream index).
    FaultLinkDegrade,
    /// Window dispatched to the detector (`a` = index, `b` = alerted).
    WindowEmitted,
    /// Window repaired by salvage (`a` = index, `b` = alerted).
    WindowSalvaged,
    /// Window lost to the channel (`a` = index).
    WindowDropped,
    /// Window rejected by a signal-quality gate (`a` = index). No
    /// producer remains; the code keeps its slot in the export.
    WindowRejected,
    /// Stream watchdog raised a stall alert.
    StallAlert,
    /// Survival-policy actuation (`a` = knob: 0 version, 1 duty,
    /// 2 retry; `b` = new setting, knob-specific encoding).
    SurvivalAction,
}

impl EventCode {
    /// Stable snake_case name for traces and JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            EventCode::None => "none",
            EventCode::Span => "span",
            EventCode::FaultReboot => "fault_reboot",
            EventCode::FaultTornCommit => "fault_torn_commit",
            EventCode::FaultBitRot => "fault_bit_rot",
            EventCode::FaultDropout => "fault_dropout",
            EventCode::FaultStuck => "fault_stuck",
            EventCode::FaultLinkDegrade => "fault_link_degrade",
            EventCode::WindowEmitted => "window_emitted",
            EventCode::WindowSalvaged => "window_salvaged",
            EventCode::WindowDropped => "window_dropped",
            EventCode::WindowRejected => "window_rejected",
            EventCode::StallAlert => "stall_alert",
            EventCode::SurvivalAction => "survival_action",
        }
    }
}

/// One recorded event: fixed-size, `Copy`, no owned data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Event {
    /// Simulated time, ms (caller-supplied; never a wall clock).
    pub t_ms: u64,
    /// What happened.
    pub code: EventCode,
    /// First payload word (meaning depends on `code`).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// A bounded ring of [`Event`]s. The buffer is allocated once at
/// construction; when full, pushing overwrites the oldest event and
/// increments the drop counter.
#[derive(Debug, Clone)]
pub struct EventRing {
    pub(crate) buf: Vec<Event>,
    /// Index of the oldest live event.
    pub(crate) head: usize,
    /// Live events in the ring.
    pub(crate) len: usize,
    pub(crate) recorded: u64,
    pub(crate) dropped: u64,
}

impl EventRing {
    /// A ring holding up to `capacity` events, fully preallocated.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            buf: vec![Event::default(); capacity],
            head: 0,
            len: 0,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Maximum events held.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Live events currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events ever offered (including ones since evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted by overflow (plus any offered to a zero-capacity
    /// ring).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate the live events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        let cap = self.buf.len().max(1);
        (0..self.len).filter_map(move |i| self.buf.get((self.head + i) % cap).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> Event {
        Event {
            t_ms: t,
            code: EventCode::Span,
            a: t,
            b: 0,
        }
    }

    #[test]
    fn fills_then_drops_oldest() {
        let mut r = EventRing::new(3);
        for t in 0..5 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 2);
        let times: Vec<u64> = r.iter().map(|e| e.t_ms).collect();
        assert_eq!(times, vec![2, 3, 4], "oldest evicted, order kept");
    }

    #[test]
    fn zero_capacity_ring_counts_but_keeps_nothing() {
        let mut r = EventRing::new(0);
        r.push(ev(1));
        assert!(r.is_empty());
        assert_eq!(r.recorded(), 1);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn iteration_is_chronological_before_wrap() {
        let mut r = EventRing::new(8);
        for t in 0..4 {
            r.push(ev(t));
        }
        let times: Vec<u64> = r.iter().map(|e| e.t_ms).collect();
        assert_eq!(times, vec![0, 1, 2, 3]);
        assert_eq!(r.capacity(), 8);
    }
}
