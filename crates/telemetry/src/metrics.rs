//! The metrics registry: a fixed, enum-indexed set of counters and
//! gauges plus power-of-two-bucket histograms.
//!
//! Everything here is integer-valued on purpose: merging two devices'
//! metrics is element-wise addition, which is associative over the
//! fleet engine's device-ordered fold and therefore bit-stable at any
//! thread count (no floating-point accumulation order to worry about).
//! Mutation (observe/increment) lives in [`crate::record`].

/// Every counter the stack records. Fixed at compile time so recording
/// indexes an array instead of hashing a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterId {
    /// Windows dispatched to the detector intact.
    WindowsEmitted,
    /// Windows repaired by zero-order-hold salvage.
    WindowsSalvaged,
    /// Windows lost to the channel.
    WindowsDropped,
    /// Windows rejected by a signal-quality gate. No producer remains;
    /// the counter keeps its slot in the export.
    WindowsRejected,
    /// Windows classified by the host-side pipeline.
    WindowsClassified,
    /// Positive classifications (alerts).
    AlertsRaised,
    /// Stream-stalled alerts from the watchdog.
    StallAlerts,
    /// Packets offered to the channel.
    PacketsSent,
    /// Packets the channel lost.
    PacketsLost,
    /// Packets the radio MAC duplicated.
    PacketsDuplicated,
    /// Packets delivered on the late (reordering) path.
    PacketsReordered,
    /// Packets delivered with a corrupted payload.
    PacketsCorrupted,
    /// ARQ data frames sent (first transmissions).
    ArqDataSent,
    /// ARQ retransmissions.
    ArqRetransmits,
    /// ARQ NACKs sent by the receiver.
    ArqNacksSent,
    /// Sequence gaps the ARQ closed.
    ArqGapRecoveries,
    /// Chunks the ARQ gave up on.
    ArqGiveUps,
    /// Duplicate frames the ARQ discarded.
    ArqDuplicatesDiscarded,
    /// Reassembly-buffer evictions.
    ArqBufferEvictions,
    /// Brownout power cycles.
    FaultReboots,
    /// Checkpoint commits cut mid-write.
    FaultTornCommits,
    /// FRAM bit flips injected.
    FaultBitrotFlips,
    /// Sensor chunks lost to dropout.
    FaultDropoutChunks,
    /// Sensor chunks frozen by a stuck ADC.
    FaultStuckChunks,
    /// Successful checkpoint recoveries after reboot.
    CheckpointRecoveries,
    /// Recoveries that rolled back to an older generation.
    CheckpointRollbacks,
    /// Detector-version switches actuated by the survival policy.
    SurvivalVersionSwitches,
    /// Sensor chunks suppressed by the survival duty cycle.
    SurvivalDutySkippedChunks,
    /// Transport retry-posture changes actuated by the survival policy.
    SurvivalRetryReconfigs,
    /// Policy ticks spent below the low-battery threshold.
    SurvivalLowBatteryTicks,
}

/// Number of counters.
pub const COUNTER_COUNT: usize = 30;

impl CounterId {
    /// Every counter, in export order.
    pub const ALL: [CounterId; COUNTER_COUNT] = [
        CounterId::WindowsEmitted,
        CounterId::WindowsSalvaged,
        CounterId::WindowsDropped,
        CounterId::WindowsRejected,
        CounterId::WindowsClassified,
        CounterId::AlertsRaised,
        CounterId::StallAlerts,
        CounterId::PacketsSent,
        CounterId::PacketsLost,
        CounterId::PacketsDuplicated,
        CounterId::PacketsReordered,
        CounterId::PacketsCorrupted,
        CounterId::ArqDataSent,
        CounterId::ArqRetransmits,
        CounterId::ArqNacksSent,
        CounterId::ArqGapRecoveries,
        CounterId::ArqGiveUps,
        CounterId::ArqDuplicatesDiscarded,
        CounterId::ArqBufferEvictions,
        CounterId::FaultReboots,
        CounterId::FaultTornCommits,
        CounterId::FaultBitrotFlips,
        CounterId::FaultDropoutChunks,
        CounterId::FaultStuckChunks,
        CounterId::CheckpointRecoveries,
        CounterId::CheckpointRollbacks,
        CounterId::SurvivalVersionSwitches,
        CounterId::SurvivalDutySkippedChunks,
        CounterId::SurvivalRetryReconfigs,
        CounterId::SurvivalLowBatteryTicks,
    ];

    /// Dense array index.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name for exports.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::WindowsEmitted => "windows_emitted",
            CounterId::WindowsSalvaged => "windows_salvaged",
            CounterId::WindowsDropped => "windows_dropped",
            CounterId::WindowsRejected => "windows_rejected",
            CounterId::WindowsClassified => "windows_classified",
            CounterId::AlertsRaised => "alerts_raised",
            CounterId::StallAlerts => "stall_alerts",
            CounterId::PacketsSent => "packets_sent",
            CounterId::PacketsLost => "packets_lost",
            CounterId::PacketsDuplicated => "packets_duplicated",
            CounterId::PacketsReordered => "packets_reordered",
            CounterId::PacketsCorrupted => "packets_corrupted",
            CounterId::ArqDataSent => "arq_data_sent",
            CounterId::ArqRetransmits => "arq_retransmits",
            CounterId::ArqNacksSent => "arq_nacks_sent",
            CounterId::ArqGapRecoveries => "arq_gap_recoveries",
            CounterId::ArqGiveUps => "arq_give_ups",
            CounterId::ArqDuplicatesDiscarded => "arq_duplicates_discarded",
            CounterId::ArqBufferEvictions => "arq_buffer_evictions",
            CounterId::FaultReboots => "fault_reboots",
            CounterId::FaultTornCommits => "fault_torn_commits",
            CounterId::FaultBitrotFlips => "fault_bitrot_flips",
            CounterId::FaultDropoutChunks => "fault_dropout_chunks",
            CounterId::FaultStuckChunks => "fault_stuck_chunks",
            CounterId::CheckpointRecoveries => "checkpoint_recoveries",
            CounterId::CheckpointRollbacks => "checkpoint_rollbacks",
            CounterId::SurvivalVersionSwitches => "survival_version_switches",
            CounterId::SurvivalDutySkippedChunks => "survival_duty_skipped_chunks",
            CounterId::SurvivalRetryReconfigs => "survival_retry_reconfigs",
            CounterId::SurvivalLowBatteryTicks => "survival_low_battery_ticks",
        }
    }
}

/// Instantaneous values. Integer-valued; callers quantize (e.g. battery
/// fraction → permille) *outside* the recording hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeId {
    /// 1 while a link-degradation episode is active, else 0.
    LinkDegraded,
    /// Battery remaining, permille of capacity.
    BatteryPermille,
    /// Windows awaiting sink-side batch scoring.
    UplinkBacklog,
}

/// Number of gauges.
pub const GAUGE_COUNT: usize = 3;

impl GaugeId {
    /// Every gauge, in export order.
    pub const ALL: [GaugeId; GAUGE_COUNT] = [
        GaugeId::LinkDegraded,
        GaugeId::BatteryPermille,
        GaugeId::UplinkBacklog,
    ];

    /// Dense array index.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name for exports.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::LinkDegraded => "link_degraded",
            GaugeId::BatteryPermille => "battery_permille",
            GaugeId::UplinkBacklog => "uplink_backlog",
        }
    }
}

/// Histogram buckets: bucket 0 holds zeros, bucket `k ≥ 1` holds values
/// whose bit length is `k` (i.e. `2^(k-1) ≤ v < 2^k`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket power-of-two histogram over `u64` observations.
///
/// Bucket boundaries are value-independent, so merging two histograms
/// is element-wise addition — the property that makes fleet aggregation
/// bit-stable regardless of fold order or thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket observation counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// The bucket a value falls into.
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Element-wise add `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Accumulated span statistics for one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Spans recorded.
    pub spans: u64,
    /// Total units across all spans (MSP430 cycles on the Amulet path,
    /// work units host-side).
    pub units: u64,
    /// Distribution of per-span units.
    pub hist: Histogram,
}

impl StageStats {
    /// Zeroed statistics.
    pub const fn new() -> Self {
        StageStats {
            spans: 0,
            units: 0,
            hist: Histogram::new(),
        }
    }

    /// Element-wise add `other` into `self`.
    pub fn merge(&mut self, other: &StageStats) {
        self.spans = self.spans.saturating_add(other.spans);
        self.units = self.units.saturating_add(other.units);
        self.hist.merge(&other.hist);
    }

    /// Mean units per span (0 when no spans).
    pub fn mean_units(&self) -> u64 {
        self.units.checked_div(self.spans).unwrap_or(0)
    }
}

impl Default for StageStats {
    fn default() -> Self {
        StageStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_indices_are_dense_and_names_unique() {
        for (i, c) in CounterId::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{}", c.name());
        }
        for (i, g) in GaugeId::ALL.iter().enumerate() {
            assert_eq!(g.index(), i, "{}", g.name());
        }
        let mut names: Vec<&str> = CounterId::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_COUNT, "duplicate counter name");
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_merge_equals_combined_observation() {
        let mut tele_a = crate::Telemetry::enabled();
        let mut tele_b = crate::Telemetry::enabled();
        let mut tele_all = crate::Telemetry::enabled();
        for v in [0u64, 1, 5, 100, 1 << 40] {
            tele_a.span(0, crate::Stage::Filter, v);
            tele_all.span(0, crate::Stage::Filter, v);
        }
        for v in [7u64, 9, 1 << 20] {
            tele_b.span(0, crate::Stage::Filter, v);
            tele_all.span(0, crate::Stage::Filter, v);
        }
        let mut merged = tele_a.report().unwrap();
        merged.merge(&tele_b.report().unwrap());
        let all = tele_all.report().unwrap();
        assert_eq!(
            merged.stage(crate::Stage::Filter).hist,
            all.stage(crate::Stage::Filter).hist
        );
    }

    #[test]
    fn stage_stats_mean() {
        let mut s = StageStats::new();
        s.merge(&StageStats {
            spans: 2,
            units: 10,
            hist: Histogram::new(),
        });
        assert_eq!(s.mean_units(), 5);
        assert_eq!(StageStats::new().mean_units(), 0);
    }
}
