//! Reliable transport on the sensor → base-station hop.
//!
//! The raw [`Channel`](crate::channel::Channel) loses, duplicates, and
//! reorders packets; [`ArqLink`] wraps it with a lightweight ARQ so
//! most losses never reach the detector:
//!
//! * the receiver watches sequence numbers and issues a **NACK** for
//!   each gap (either observed directly when a later packet overtakes
//!   it, or inferred by timeout for tail losses),
//! * the sender keeps a **bounded retransmit buffer** of recent packets
//!   (a real sensor has a few kB of RAM, so old packets are evicted and
//!   become unrecoverable),
//! * each NACKed packet is retransmitted under an **exponential
//!   backoff** until a per-packet **retry budget** is exhausted,
//! * everything the link does is counted in [`TransportStats`].
//!
//! Both ends live in one object because the link is simulated
//! end-to-end; the protocol state is still strictly split between the
//! sender half (buffer, retry accounting) and receiver half (dedup,
//! gap tracking), so the abstraction mirrors a real split
//! implementation.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::channel::{Channel, Delivery};
use crate::device::{SensorPacket, Stream};
use crate::WiotError;

/// ARQ tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArqConfig {
    /// Retransmission budget per packet; a packet still missing after
    /// this many retransmits is given up on.
    pub max_retries: u32,
    /// First-retry backoff, ms; doubles on every further retry.
    pub base_backoff_ms: u64,
    /// Sender-side retransmit buffer capacity, packets. Oldest entries
    /// are evicted when full (and become unrecoverable).
    pub buffer_cap: usize,
    /// How long a packet may be overdue before the receiver NACKs it,
    /// ms. Also the tail-loss detection timeout after the send time.
    pub nack_delay_ms: u64,
    /// When `true`, exhausting a packet's retry budget is a hard
    /// [`WiotError::RetryBudgetExhausted`] instead of a counted
    /// give-up. Off by default: losing a chunk is survivable (the base
    /// station can salvage the window).
    pub strict: bool,
}

impl Default for ArqConfig {
    fn default() -> Self {
        Self {
            max_retries: 5,
            base_backoff_ms: 10,
            buffer_cap: 64,
            nack_delay_ms: 30,
            strict: false,
        }
    }
}

impl ArqConfig {
    fn validate(&self) -> Result<(), WiotError> {
        if self.buffer_cap == 0 {
            return Err(WiotError::InvalidScenario {
                reason: "ARQ retransmit buffer capacity must be positive",
            });
        }
        Ok(())
    }
}

/// Counters of everything the ARQ layer did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportStats {
    /// First-time data packets offered to the link.
    pub data_sent: u64,
    /// Retransmissions performed.
    pub retransmits: u64,
    /// NACKs issued by the receiver.
    pub nacks_sent: u64,
    /// Gaps that were eventually filled by a retransmission.
    pub gap_recoveries: u64,
    /// Packets abandoned after the retry budget ran out (or after
    /// eviction from the retransmit buffer).
    pub give_ups: u64,
    /// Duplicate arrivals discarded by the receiver.
    pub duplicates_discarded: u64,
    /// Packets evicted from the full retransmit buffer.
    pub buffer_evictions: u64,
}

impl TransportStats {
    /// Retransmissions per first-time data packet — the adaptive
    /// engine's view of how hard the link is working.
    pub fn retransmit_rate(&self) -> f64 {
        if self.data_sent == 0 {
            0.0
        } else {
            self.retransmits as f64 / self.data_sent as f64
        }
    }
}

/// Receiver-side bookkeeping for one missing sequence number.
#[derive(Debug, Clone, Copy)]
struct Gap {
    /// Retransmissions requested so far.
    attempts: u32,
    /// Earliest time of the next NACK, ms (exponential backoff).
    next_retry_ms: u64,
}

/// A buffered copy of a sent packet, for retransmission.
#[derive(Debug, Clone)]
struct Buffered {
    sent_ms: u64,
    packet: SensorPacket,
}

/// An ARQ-protected link: a [`Channel`] plus sender/receiver protocol
/// state.
#[derive(Debug, Clone)]
pub struct ArqLink {
    channel: Channel,
    config: ArqConfig,
    /// Retry budget currently in force. Starts at
    /// [`ArqConfig::max_retries`]; the survival policy may tighten it
    /// at runtime under low battery.
    retry_max: u32,
    /// Extra backoff doublings applied to every retransmission on top
    /// of the attempt count (survival-policy backoff widening).
    retry_extra_shift: u32,
    stats: TransportStats,
    /// Sender: bounded history of sent packets, oldest first.
    buffer: VecDeque<Buffered>,
    /// Packets in the air, unordered; pumped out by `at_ms`.
    in_flight: Vec<Delivery>,
    /// Receiver: next sequence number not yet fully accounted for.
    next_expected: u64,
    /// Receiver: out-of-order sequence numbers already delivered.
    delivered_ahead: BTreeSet<u64>,
    /// Receiver: missing sequence numbers under recovery.
    gaps: BTreeMap<u64, Gap>,
    /// Highest sequence number handed to `send` (+1), for tail-loss
    /// detection.
    sent_horizon: u64,
}

impl ArqLink {
    /// Wrap `channel` with ARQ under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`WiotError::InvalidScenario`] for an invalid config.
    pub fn new(channel: Channel, config: ArqConfig) -> Result<Self, WiotError> {
        config.validate()?;
        Ok(Self {
            channel,
            retry_max: config.max_retries,
            retry_extra_shift: 0,
            config,
            stats: TransportStats::default(),
            buffer: VecDeque::new(),
            in_flight: Vec::new(),
            next_expected: 0,
            delivered_ahead: BTreeSet::new(),
            gaps: BTreeMap::new(),
            sent_horizon: 0,
        })
    }

    /// Send a first-time data packet at `now_ms`. A copy is buffered
    /// for possible retransmission (evicting the oldest entry when the
    /// buffer is full).
    pub fn send(&mut self, now_ms: u64, packet: SensorPacket) {
        self.stats.data_sent += 1;
        self.sent_horizon = self.sent_horizon.max(packet.seq + 1);
        if self.buffer.len() == self.config.buffer_cap {
            self.buffer.pop_front();
            self.stats.buffer_evictions += 1;
        }
        self.buffer.push_back(Buffered {
            sent_ms: now_ms,
            packet: packet.clone(),
        });
        let copies = self.channel.transmit(now_ms, packet);
        self.in_flight.extend(copies);
    }

    /// Advance the link to `now_ms`: collect every packet that has
    /// arrived, discard duplicates, NACK + retransmit overdue gaps, and
    /// return the fresh arrivals (in arrival order).
    ///
    /// # Errors
    ///
    /// In strict mode ([`ArqConfig::strict`]), returns
    /// [`WiotError::RetryBudgetExhausted`] when a packet's retry budget
    /// runs out (or its buffered copy was evicted before recovery).
    pub fn pump(&mut self, now_ms: u64) -> Result<Vec<Delivery>, WiotError> {
        let arrivals = self.collect_arrivals(now_ms);
        let mut out = Vec::new();
        for delivery in arrivals {
            let seq = delivery.packet.seq;
            if self.is_delivered(seq) {
                self.stats.duplicates_discarded += 1;
                continue;
            }
            if self.gaps.remove(&seq).is_some() {
                self.stats.gap_recoveries += 1;
            }
            self.note_gaps_before(seq, now_ms);
            self.mark_delivered(seq);
            out.push(delivery);
        }
        self.detect_tail_losses(now_ms);
        self.service_gaps(now_ms)?;
        Ok(out)
    }

    /// Whether the link still has packets in the air, gaps under
    /// recovery, or tail losses whose detection timeout has not yet
    /// expired (useful for end-of-session draining).
    pub fn idle(&self) -> bool {
        self.in_flight.is_empty() && self.gaps.is_empty() && !self.has_unresolved_tail()
    }

    /// A buffered packet at or past `next_expected` that never arrived:
    /// either a gap already under recovery, or a tail loss that
    /// `detect_tail_losses` will pick up once its timeout expires.
    fn has_unresolved_tail(&self) -> bool {
        self.buffer.iter().any(|b| {
            b.packet.seq >= self.next_expected && !self.delivered_ahead.contains(&b.packet.seq)
        })
    }

    /// Transport-layer counters.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Re-tune the retry posture at runtime: a new per-packet retry
    /// budget and extra backoff doublings per retransmission. The
    /// survival policy widens backoff and tightens the budget under
    /// low battery so a bad link cannot drain the cell with radio
    /// retries. Gaps already under recovery keep their attempt counts;
    /// only the budget they are judged against changes.
    pub fn set_retry_budget(&mut self, max_retries: u32, extra_shift: u32) {
        self.retry_max = max_retries;
        self.retry_extra_shift = extra_shift;
    }

    /// The underlying channel (e.g. for loss statistics).
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// The underlying channel, mutably (e.g. for a fault plan's degrade
    /// override).
    pub fn channel_mut(&mut self) -> &mut Channel {
        &mut self.channel
    }

    fn stream(&self) -> Stream {
        // All packets on one link share a stream; fall back to Ecg when
        // nothing was sent yet (only reachable in error paths).
        self.buffer
            .front()
            .map(|b| b.packet.stream)
            .unwrap_or(Stream::Ecg)
    }

    /// Remove and return everything arriving by `now_ms`, in stable
    /// `at_ms` order.
    fn collect_arrivals(&mut self, now_ms: u64) -> Vec<Delivery> {
        let mut arrived = Vec::new();
        let mut still_flying = Vec::with_capacity(self.in_flight.len());
        for d in self.in_flight.drain(..) {
            if d.at_ms <= now_ms {
                arrived.push(d);
            } else {
                still_flying.push(d);
            }
        }
        self.in_flight = still_flying;
        // Stable: equal at_ms keeps transmission order, so replays are
        // byte-identical.
        arrived.sort_by_key(|d| d.at_ms);
        arrived
    }

    fn is_delivered(&self, seq: u64) -> bool {
        seq < self.next_expected || self.delivered_ahead.contains(&seq)
    }

    fn mark_delivered(&mut self, seq: u64) {
        if seq == self.next_expected {
            self.next_expected += 1;
            while self.delivered_ahead.remove(&self.next_expected) {
                self.next_expected += 1;
            }
        } else {
            self.delivered_ahead.insert(seq);
        }
    }

    /// A packet with sequence `seq` just arrived: everything below it
    /// that is neither delivered nor already tracked is a fresh gap.
    fn note_gaps_before(&mut self, seq: u64, now_ms: u64) {
        for missing in self.next_expected..seq {
            if !self.delivered_ahead.contains(&missing) {
                self.gaps.entry(missing).or_insert(Gap {
                    attempts: 0,
                    next_retry_ms: now_ms + self.config.nack_delay_ms,
                });
            }
        }
    }

    /// Tail losses have no later arrival to expose them; infer them
    /// from the send time instead.
    fn detect_tail_losses(&mut self, now_ms: u64) {
        for b in &self.buffer {
            let seq = b.packet.seq;
            if seq < self.next_expected
                || self.delivered_ahead.contains(&seq)
                || self.gaps.contains_key(&seq)
            {
                continue;
            }
            if now_ms >= b.sent_ms + self.config.nack_delay_ms {
                self.gaps.insert(
                    seq,
                    Gap {
                        attempts: 0,
                        next_retry_ms: now_ms,
                    },
                );
            }
        }
    }

    /// NACK and retransmit every due gap; abandon gaps whose budget ran
    /// out.
    fn service_gaps(&mut self, now_ms: u64) -> Result<(), WiotError> {
        let stream = self.stream();
        let due: Vec<u64> = self
            .gaps
            .iter()
            .filter(|(_, g)| now_ms >= g.next_retry_ms)
            .map(|(&seq, _)| seq)
            .collect();
        let mut exhausted: Option<u64> = None;
        for seq in due {
            let Some(gap) = self.gaps.get_mut(&seq) else {
                continue;
            };
            if gap.attempts >= self.retry_max {
                self.gaps.remove(&seq);
                self.stats.give_ups += 1;
                // Unrecoverable: stop waiting for it so in-order
                // release can move past the hole.
                self.mark_delivered(seq);
                exhausted.get_or_insert(seq);
                continue;
            }
            self.stats.nacks_sent += 1;
            let copy = self
                .buffer
                .iter()
                .find(|b| b.packet.seq == seq)
                .map(|b| b.packet.clone());
            match copy {
                Some(packet) => {
                    gap.attempts += 1;
                    // Exponential backoff, shift-capped so it cannot
                    // overflow on absurd budgets.
                    let backoff = self.config.base_backoff_ms
                        << (gap.attempts + self.retry_extra_shift).min(16);
                    gap.next_retry_ms = now_ms + backoff.max(1);
                    self.stats.retransmits += 1;
                    let copies = self.channel.transmit(now_ms, packet);
                    self.in_flight.extend(copies);
                }
                None => {
                    // Evicted from the retransmit buffer before the
                    // NACK: unrecoverable.
                    self.gaps.remove(&seq);
                    self.stats.give_ups += 1;
                    self.mark_delivered(seq);
                    exhausted.get_or_insert(seq);
                }
            }
        }
        match exhausted {
            Some(seq) if self.config.strict => Err(WiotError::RetryBudgetExhausted { stream, seq }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelConfig, LossModel};

    fn packet(seq: u64) -> SensorPacket {
        SensorPacket {
            stream: Stream::Ecg,
            seq,
            start_sample: seq as usize * 8,
            samples: vec![seq as f64; 8],
            peaks: vec![],
        }
    }

    /// Drive `n` packets through the link at 10 ms spacing, pumping
    /// each tick and draining afterwards; returns delivered seqs.
    fn run(link: &mut ArqLink, n: u64) -> Vec<u64> {
        let mut got = Vec::new();
        let mut now = 0u64;
        for seq in 0..n {
            link.send(now, packet(seq));
            got.extend(link.pump(now).unwrap().iter().map(|d| d.packet.seq));
            now += 10;
        }
        for _ in 0..200 {
            now += 10;
            got.extend(link.pump(now).unwrap().iter().map(|d| d.packet.seq));
            if link.idle() {
                break;
            }
        }
        got
    }

    #[test]
    fn lossless_link_is_transparent() {
        let mut link = ArqLink::new(Channel::perfect(), ArqConfig::default()).unwrap();
        let got = run(&mut link, 50);
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        let s = link.stats();
        assert_eq!(s.data_sent, 50);
        assert_eq!(s.retransmits, 0);
        assert_eq!(s.nacks_sent, 0);
        assert_eq!(s.give_ups, 0);
    }

    #[test]
    fn recovers_all_packets_under_random_loss() {
        let ch = Channel::new(0.2, 5, 3, 42).unwrap();
        let mut link = ArqLink::new(ch, ArqConfig::default()).unwrap();
        let mut got = run(&mut link, 100);
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>(), "{:?}", link.stats());
        let s = link.stats();
        assert!(s.retransmits > 0, "{s:?}");
        assert!(s.gap_recoveries > 0, "{s:?}");
        assert_eq!(s.give_ups, 0, "{s:?}");
    }

    #[test]
    fn recovers_under_burst_loss() {
        let ch = Channel::with_config(
            ChannelConfig {
                loss: LossModel::GilbertElliott {
                    p_good_to_bad: 0.05,
                    p_bad_to_good: 0.4,
                    loss_good: 0.01,
                    loss_bad: 0.7,
                },
                base_delay_ms: 5,
                jitter_ms: 3,
                ..ChannelConfig::default()
            },
            7,
        )
        .unwrap();
        let mut link = ArqLink::new(ch, ArqConfig::default()).unwrap();
        let mut got = run(&mut link, 100);
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(link.stats().gap_recoveries > 0);
    }

    #[test]
    fn duplicates_are_discarded() {
        let ch = Channel::with_config(
            ChannelConfig {
                dup_prob: 1.0,
                ..ChannelConfig::default()
            },
            3,
        )
        .unwrap();
        let mut link = ArqLink::new(ch, ArqConfig::default()).unwrap();
        let got = run(&mut link, 20);
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert_eq!(link.stats().duplicates_discarded, 20);
    }

    #[test]
    fn dead_link_exhausts_budget_without_error_by_default() {
        let ch = Channel::new(1.0, 0, 0, 1).unwrap();
        let mut link = ArqLink::new(ch, ArqConfig::default()).unwrap();
        let got = run(&mut link, 10);
        assert!(got.is_empty());
        let s = link.stats();
        assert_eq!(s.give_ups, 10, "{s:?}");
        assert!(s.retransmits > 0);
        assert!(link.idle());
    }

    #[test]
    fn strict_mode_surfaces_retry_budget_exhaustion() {
        let ch = Channel::new(1.0, 0, 0, 1).unwrap();
        let mut link = ArqLink::new(
            ch,
            ArqConfig {
                strict: true,
                max_retries: 2,
                ..ArqConfig::default()
            },
        )
        .unwrap();
        link.send(0, packet(0));
        let mut err = None;
        for t in 1..100 {
            if let Err(e) = link.pump(t * 10) {
                err = Some(e);
                break;
            }
        }
        assert!(
            matches!(
                err,
                Some(WiotError::RetryBudgetExhausted {
                    stream: Stream::Ecg,
                    seq: 0
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn buffer_eviction_is_counted_and_bounds_memory() {
        let mut link = ArqLink::new(
            Channel::perfect(),
            ArqConfig {
                buffer_cap: 4,
                ..ArqConfig::default()
            },
        )
        .unwrap();
        for seq in 0..10 {
            link.send(0, packet(seq));
        }
        assert_eq!(link.stats().buffer_evictions, 6);
        assert!(link.buffer.len() <= 4);
    }

    #[test]
    fn deterministic_per_seed() {
        let drive = || {
            let ch = Channel::new(0.3, 5, 4, 99).unwrap();
            let mut link = ArqLink::new(ch, ArqConfig::default()).unwrap();
            let got = run(&mut link, 60);
            (got, link.stats())
        };
        assert_eq!(drive(), drive());
    }

    #[test]
    fn zero_buffer_cap_rejected() {
        assert!(ArqLink::new(
            Channel::perfect(),
            ArqConfig {
                buffer_cap: 0,
                ..ArqConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn runtime_retry_budget_tightens_and_widens() {
        // A dead link with the default budget retries 5 times per
        // packet; after tightening to 1 it retries once and gives up
        // sooner, and the widened backoff spaces retries further out.
        let drive = |max: u32, shift: u32| {
            let ch = Channel::new(1.0, 0, 0, 1).unwrap();
            let mut link = ArqLink::new(ch, ArqConfig::default()).unwrap();
            link.set_retry_budget(max, shift);
            assert_eq!((link.retry_max, link.retry_extra_shift), (max, shift));
            run(&mut link, 5);
            link.stats()
        };
        let tight = drive(1, 2);
        let normal = drive(5, 0);
        assert_eq!(tight.give_ups, 5);
        assert_eq!(normal.give_ups, 5);
        assert!(
            tight.retransmits < normal.retransmits,
            "tight {tight:?} vs normal {normal:?}"
        );
    }

    #[test]
    fn retransmit_rate_reflects_effort() {
        let mut s = TransportStats::default();
        assert_eq!(s.retransmit_rate(), 0.0);
        s.data_sent = 100;
        s.retransmits = 25;
        assert!((s.retransmit_rate() - 0.25).abs() < 1e-12);
    }
}
