//! The wireless hop between a sensor and the base station.
//!
//! The link model covers the failure modes a body-area network
//! actually exhibits: independent (Bernoulli) or bursty
//! (Gilbert–Elliott) packet loss, bounded random delay, jitter-induced
//! reordering, packet duplication, and payload corruption. Losses
//! matter to the detector because a missing chunk leaves a hole in the
//! 3-second window; the base station must handle incomplete windows
//! (and does — see [`crate::basestation::BaseStation`]), and the ARQ
//! layer ([`crate::transport`]) can recover them before that.
//!
//! Every stochastic decision is drawn from a seeded [`StdRng`], so a
//! scenario replays byte-identically under the same seed.

use crate::device::SensorPacket;
use crate::WiotError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A packet annotated with its delivery time.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// When the packet arrives at the base station, in ms.
    pub at_ms: u64,
    /// The packet.
    pub packet: SensorPacket,
}

/// Packet-loss process on the link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Independent per-packet loss with probability `p`.
    Bernoulli {
        /// Loss probability, `[0, 1]`.
        p: f64,
    },
    /// Two-state burst-loss model: the link alternates between a good
    /// and a bad state with the given transition probabilities
    /// (evaluated per packet), and drops packets with a state-dependent
    /// probability. Captures the fading bursts of a real body-area
    /// radio far better than independent loss.
    GilbertElliott {
        /// P(good → bad) per packet.
        p_good_to_bad: f64,
        /// P(bad → good) per packet.
        p_bad_to_good: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// A loss-free link.
    pub fn none() -> Self {
        LossModel::Bernoulli { p: 0.0 }
    }

    /// Validate all probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`WiotError::InvalidScenario`] when any probability is
    /// outside `[0, 1]` or not finite.
    pub fn validate(&self) -> Result<(), WiotError> {
        let probs: &[f64] = match self {
            LossModel::Bernoulli { p } => &[*p],
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => &[*p_good_to_bad, *p_bad_to_good, *loss_good, *loss_bad],
        };
        if probs
            .iter()
            .all(|p| p.is_finite() && (0.0..=1.0).contains(p))
        {
            Ok(())
        } else {
            Err(WiotError::InvalidScenario {
                reason: "loss-model probabilities must lie in [0, 1]",
            })
        }
    }

    /// Long-run mean loss rate of the process.
    #[cfg(test)]
    pub fn mean_loss(&self) -> f64 {
        match self {
            LossModel::Bernoulli { p } => *p,
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                // Stationary distribution of the two-state chain.
                let denom = p_good_to_bad + p_bad_to_good;
                if denom <= 0.0 {
                    // Chain never transitions; it stays in the good
                    // state it starts in.
                    *loss_good
                } else {
                    let frac_bad = p_good_to_bad / denom;
                    loss_bad * frac_bad + loss_good * (1.0 - frac_bad)
                }
            }
        }
    }
}

/// How corrupted payloads are mangled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorruptionMode {
    /// A bit-flip in the float payload surfaces as NaN (the detector
    /// must treat the window as degenerate, not classify it).
    BitFlipNan,
    /// Samples clip to the ADC rail.
    Clip {
        /// Rail magnitude the samples clip to.
        rail: f64,
    },
}

/// Full link configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConfig {
    /// The loss process.
    pub loss: LossModel,
    /// Base one-way delay, ms.
    pub base_delay_ms: u64,
    /// Uniform jitter bound, ms.
    pub jitter_ms: u64,
    /// Probability a delivered packet is duplicated by a retransmitting
    /// radio MAC (both copies arrive).
    pub dup_prob: f64,
    /// Probability a delivered packet takes a late path (adds
    /// `reorder_extra_ms`), letting later packets overtake it.
    pub reorder_prob: f64,
    /// Extra delay of a reordered packet, ms.
    pub reorder_extra_ms: u64,
    /// Probability a delivered packet's payload is corrupted.
    pub corrupt_prob: f64,
    /// How corruption mangles the payload.
    pub corruption: CorruptionMode,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        Self {
            loss: LossModel::none(),
            base_delay_ms: 0,
            jitter_ms: 0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_extra_ms: 0,
            corrupt_prob: 0.0,
            corruption: CorruptionMode::BitFlipNan,
        }
    }
}

impl ChannelConfig {
    fn validate(&self) -> Result<(), WiotError> {
        self.loss.validate()?;
        for p in [self.dup_prob, self.reorder_prob, self.corrupt_prob] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(WiotError::InvalidScenario {
                    reason: "channel probabilities must lie in [0, 1]",
                });
            }
        }
        Ok(())
    }
}

/// Counters of everything the channel did to the traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelStats {
    /// Packets offered to the channel.
    pub sent: u64,
    /// Packets dropped by the loss process.
    pub lost: u64,
    /// Extra copies emitted by duplication.
    pub duplicated: u64,
    /// Packets given the late (reordering) path.
    pub reordered: u64,
    /// Packets whose payload was corrupted.
    pub corrupted: u64,
}

/// Internal loss-process state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkState {
    Good,
    Bad,
}

/// Lossy, jittery, burst-prone wireless channel.
#[derive(Debug, Clone)]
pub struct Channel {
    config: ChannelConfig,
    /// Temporary loss override installed by a fault plan's link-degrade
    /// episode; `None` means the configured process is in force.
    degrade: Option<LossModel>,
    state: LinkState,
    rng: StdRng,
    stats: ChannelStats,
}

impl Channel {
    /// Create a channel with independent (Bernoulli) loss — the classic
    /// four-argument constructor.
    ///
    /// # Errors
    ///
    /// Returns [`WiotError::InvalidScenario`] if `loss_prob` is outside
    /// `[0, 1]`.
    pub fn new(
        loss_prob: f64,
        base_delay_ms: u64,
        jitter_ms: u64,
        seed: u64,
    ) -> Result<Self, WiotError> {
        Self::with_config(
            ChannelConfig {
                loss: LossModel::Bernoulli { p: loss_prob },
                base_delay_ms,
                jitter_ms,
                ..ChannelConfig::default()
            },
            seed,
        )
    }

    /// Create a channel from a full configuration.
    ///
    /// # Errors
    ///
    /// Returns [`WiotError::InvalidScenario`] for any probability
    /// outside `[0, 1]`.
    pub fn with_config(config: ChannelConfig, seed: u64) -> Result<Self, WiotError> {
        config.validate()?;
        Ok(Self {
            config,
            degrade: None,
            state: LinkState::Good,
            rng: StdRng::seed_from_u64(seed),
            stats: ChannelStats::default(),
        })
    }

    /// A perfect channel (no loss, no delay) for baseline scenarios.
    /// Built directly rather than through the validating constructor so
    /// it is infallible by construction.
    #[cfg(test)]
    pub fn perfect() -> Self {
        Self {
            config: ChannelConfig::default(),
            degrade: None,
            state: LinkState::Good,
            rng: StdRng::seed_from_u64(0),
            stats: ChannelStats::default(),
        }
    }

    /// Install (or, with `None`, clear) a temporary loss override — the
    /// mechanism a [`crate::faults::FaultPlan`] link-degrade episode
    /// uses. The override must be valid.
    ///
    /// # Errors
    ///
    /// Returns [`WiotError::InvalidScenario`] for invalid probabilities.
    pub fn set_degrade(&mut self, loss: Option<LossModel>) -> Result<(), WiotError> {
        if let Some(l) = &loss {
            l.validate()?;
        }
        self.degrade = loss;
        Ok(())
    }

    /// Whether a degrade override is currently installed.
    pub fn is_degraded(&self) -> bool {
        self.degrade.is_some()
    }

    /// Roll the loss process for one packet.
    fn roll_loss(&mut self) -> bool {
        let model = self.degrade.unwrap_or(self.config.loss);
        match model {
            LossModel::Bernoulli { p } => p > 0.0 && self.rng.gen_range(0.0..1.0) < p,
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                let p_loss = match self.state {
                    LinkState::Good => loss_good,
                    LinkState::Bad => loss_bad,
                };
                let lost = p_loss > 0.0 && self.rng.gen_range(0.0..1.0) < p_loss;
                // Transition after the loss decision.
                self.state = match self.state {
                    LinkState::Good if self.rng.gen_range(0.0..1.0) < p_good_to_bad => {
                        LinkState::Bad
                    }
                    LinkState::Bad if self.rng.gen_range(0.0..1.0) < p_bad_to_good => {
                        LinkState::Good
                    }
                    s => s,
                };
                lost
            }
        }
    }

    fn roll_delay(&mut self, now_ms: u64) -> (u64, bool) {
        let jitter = if self.config.jitter_ms > 0 {
            self.rng.gen_range(0..=self.config.jitter_ms)
        } else {
            0
        };
        let mut at = now_ms + self.config.base_delay_ms + jitter;
        let reordered = self.config.reorder_prob > 0.0
            && self.rng.gen_range(0.0..1.0) < self.config.reorder_prob;
        if reordered {
            at += self.config.reorder_extra_ms;
        }
        (at, reordered)
    }

    fn maybe_corrupt(&mut self, packet: &mut SensorPacket) -> bool {
        if self.config.corrupt_prob <= 0.0
            || self.rng.gen_range(0.0..1.0) >= self.config.corrupt_prob
            || packet.samples.is_empty()
        {
            return false;
        }
        let idx = self.rng.gen_range(0..packet.samples.len());
        match self.config.corruption {
            CorruptionMode::BitFlipNan => packet.samples[idx] = f64::NAN,
            CorruptionMode::Clip { rail } => {
                let sign = if packet.samples[idx] < 0.0 { -1.0 } else { 1.0 };
                packet.samples[idx] = sign * rail;
            }
        }
        true
    }

    /// Transmit `packet` at `now_ms`. Returns every copy that will
    /// arrive (empty when lost, two entries when duplicated), each with
    /// its own delivery time — the caller is responsible for presenting
    /// them to the receiver in `at_ms` order.
    pub fn transmit(&mut self, now_ms: u64, packet: SensorPacket) -> Vec<Delivery> {
        self.stats.sent += 1;
        if self.roll_loss() {
            self.stats.lost += 1;
            return Vec::new();
        }
        let mut packet = packet;
        if self.maybe_corrupt(&mut packet) {
            self.stats.corrupted += 1;
        }
        let (at_ms, reordered) = self.roll_delay(now_ms);
        if reordered {
            self.stats.reordered += 1;
        }
        let mut out = vec![Delivery { at_ms, packet }];
        if self.config.dup_prob > 0.0 && self.rng.gen_range(0.0..1.0) < self.config.dup_prob {
            self.stats.duplicated += 1;
            let (dup_at, dup_reordered) = self.roll_delay(now_ms);
            if dup_reordered {
                self.stats.reordered += 1;
            }
            let dup = Delivery {
                at_ms: dup_at,
                packet: out[0].packet.clone(),
            };
            out.push(dup);
        }
        out
    }

    /// Full traffic counters.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Packets offered to the channel so far.
    pub fn sent(&self) -> u64 {
        self.stats.sent
    }

    /// Packets lost so far.
    pub fn lost(&self) -> u64 {
        self.stats.lost
    }

    /// Observed loss rate.
    pub fn loss_rate(&self) -> f64 {
        if self.stats.sent == 0 {
            0.0
        } else {
            self.stats.lost as f64 / self.stats.sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Stream;

    fn packet(seq: u64) -> SensorPacket {
        SensorPacket {
            stream: Stream::Ecg,
            seq,
            start_sample: 0,
            samples: vec![0.0; 8],
            peaks: vec![],
        }
    }

    #[test]
    fn perfect_channel_delivers_everything_instantly() {
        let mut ch = Channel::perfect();
        for i in 0..100 {
            let d = ch.transmit(50, packet(i));
            assert_eq!(d.len(), 1);
            assert_eq!(d[0].at_ms, 50);
        }
        assert_eq!(ch.loss_rate(), 0.0);
    }

    #[test]
    fn loss_rate_converges() {
        let mut ch = Channel::new(0.3, 0, 0, 42).unwrap();
        for i in 0..5000 {
            ch.transmit(0, packet(i));
        }
        assert!((ch.loss_rate() - 0.3).abs() < 0.03, "{}", ch.loss_rate());
    }

    #[test]
    fn delay_within_bounds() {
        let mut ch = Channel::new(0.0, 10, 5, 7).unwrap();
        for i in 0..200 {
            let d = ch.transmit(100, packet(i));
            assert!((110..=115).contains(&d[0].at_ms), "{}", d[0].at_ms);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let mut ch = Channel::new(0.5, 0, 0, seed).unwrap();
            (0..50)
                .map(|i| !ch.transmit(0, packet(i)).is_empty())
                .collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn invalid_loss_rejected_as_error() {
        assert!(matches!(
            Channel::new(1.5, 0, 0, 0),
            Err(WiotError::InvalidScenario { .. })
        ));
        assert!(matches!(
            Channel::new(f64::NAN, 0, 0, 0),
            Err(WiotError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn gilbert_elliott_mean_loss_matches_stationary_rate() {
        let model = LossModel::GilbertElliott {
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.45,
            loss_good: 0.01,
            loss_bad: 0.9,
        };
        let mean = model.mean_loss();
        let mut ch = Channel::with_config(
            ChannelConfig {
                loss: model,
                ..ChannelConfig::default()
            },
            11,
        )
        .unwrap();
        for i in 0..60_000 {
            ch.transmit(0, packet(i));
        }
        assert!(
            (ch.loss_rate() - mean).abs() < 0.02,
            "empirical {} vs stationary {mean}",
            ch.loss_rate()
        );
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Same mean loss, very different clustering: measure the
        // probability that a loss is followed by another loss.
        let p_mean = 0.1;
        // frac_bad = 0.025 / 0.225 = 1/9; mean = 0.9 / 9 = 0.1.
        let bursty = LossModel::GilbertElliott {
            p_good_to_bad: 0.025,
            p_bad_to_good: 0.2,
            loss_good: 0.0,
            loss_bad: 0.9,
        };
        assert!((bursty.mean_loss() - p_mean).abs() < 0.02);
        let run = |loss: LossModel| {
            let mut ch = Channel::with_config(
                ChannelConfig {
                    loss,
                    ..ChannelConfig::default()
                },
                5,
            )
            .unwrap();
            let outcomes: Vec<bool> = (0..40_000)
                .map(|i| ch.transmit(0, packet(i)).is_empty())
                .collect();
            let pairs = outcomes.windows(2).filter(|w| w[0]).count();
            let both = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
            both as f64 / pairs.max(1) as f64
        };
        let p_after_loss_bursty = run(bursty);
        let p_after_loss_bernoulli = run(LossModel::Bernoulli { p: p_mean });
        assert!(
            p_after_loss_bursty > 2.0 * p_after_loss_bernoulli,
            "burst {p_after_loss_bursty:.3} vs independent {p_after_loss_bernoulli:.3}"
        );
    }

    #[test]
    fn duplication_emits_extra_copies() {
        let mut ch = Channel::with_config(
            ChannelConfig {
                dup_prob: 0.5,
                ..ChannelConfig::default()
            },
            3,
        )
        .unwrap();
        let mut total = 0;
        for i in 0..1000 {
            total += ch.transmit(0, packet(i)).len();
        }
        assert_eq!(total as u64, 1000 + ch.stats().duplicated);
        assert!((300..700).contains(&(total - 1000)), "{total}");
    }

    #[test]
    fn reordering_adds_late_path_delay() {
        let mut ch = Channel::with_config(
            ChannelConfig {
                base_delay_ms: 5,
                reorder_prob: 0.3,
                reorder_extra_ms: 40,
                ..ChannelConfig::default()
            },
            4,
        )
        .unwrap();
        let mut late = 0u64;
        for i in 0..2000 {
            for d in ch.transmit(100, packet(i)) {
                if d.at_ms >= 145 {
                    late += 1;
                }
            }
        }
        assert_eq!(late, ch.stats().reordered);
        assert!(late > 0);
    }

    #[test]
    fn corruption_bitflip_yields_nan() {
        let mut ch = Channel::with_config(
            ChannelConfig {
                corrupt_prob: 1.0,
                ..ChannelConfig::default()
            },
            6,
        )
        .unwrap();
        let d = ch.transmit(0, packet(0));
        assert!(d[0].packet.samples.iter().any(|s| s.is_nan()));
        assert_eq!(ch.stats().corrupted, 1);
    }

    #[test]
    fn corruption_clip_respects_rail() {
        let mut ch = Channel::with_config(
            ChannelConfig {
                corrupt_prob: 1.0,
                corruption: CorruptionMode::Clip { rail: 3.3 },
                ..ChannelConfig::default()
            },
            6,
        )
        .unwrap();
        let mut p = packet(0);
        p.samples = vec![0.5; 8];
        let d = ch.transmit(0, p);
        assert!(d[0].packet.samples.contains(&3.3));
    }

    #[test]
    fn degrade_override_applies_and_clears() {
        let mut ch = Channel::new(0.0, 0, 0, 9).unwrap();
        ch.set_degrade(Some(LossModel::Bernoulli { p: 1.0 }))
            .unwrap();
        assert!(ch.is_degraded());
        assert!(ch.transmit(0, packet(0)).is_empty());
        ch.set_degrade(None).unwrap();
        assert_eq!(ch.transmit(0, packet(1)).len(), 1);
        assert!(ch
            .set_degrade(Some(LossModel::Bernoulli { p: 2.0 }))
            .is_err());
    }
}
