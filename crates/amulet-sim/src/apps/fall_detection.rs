//! Fall-detection app — the paper's canonical example of a
//! "process the sensor data, give a decision to the user" app
//! (Insight #2 names "fall detection" explicitly).
//!
//! Classic threshold state machine: a high-g impact transient followed
//! by a stillness interval raises a fall alert.

use crate::display::Severity;
use crate::event::AmuletEvent;
use crate::machine::{App, AppContext};
use crate::profiler::AppResourceSpec;

/// Cycles per accelerometer sample (compare + state update).
const CYCLES_PER_SAMPLE: f64 = 400.0;

/// Detection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Watching for an impact transient.
    Monitoring,
    /// Impact seen; confirming post-impact stillness.
    ImpactSeen {
        /// When the impact was observed, ms.
        at_ms: u64,
    },
}

/// Configuration of the fall detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FallConfig {
    /// Impact threshold, g.
    pub impact_g: f64,
    /// Stillness band around 1 g.
    pub stillness_band_g: f64,
    /// How long after the impact stillness must be observed, ms.
    pub confirm_after_ms: u64,
    /// Window in which the confirmation must happen, ms.
    pub confirm_window_ms: u64,
}

impl Default for FallConfig {
    fn default() -> Self {
        Self {
            impact_g: 2.5,
            stillness_band_g: 0.15,
            confirm_after_ms: 800,
            confirm_window_ms: 5_000,
        }
    }
}

/// The fall-detection app.
#[derive(Debug, Clone)]
pub struct FallDetectionApp {
    config: FallConfig,
    state: State,
    falls: u64,
    samples: u64,
}

impl FallDetectionApp {
    /// New app with the given thresholds.
    pub fn new(config: FallConfig) -> Self {
        Self {
            config,
            state: State::Monitoring,
            falls: 0,
            samples: 0,
        }
    }

    /// Accelerometer samples consumed.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

impl Default for FallDetectionApp {
    fn default() -> Self {
        Self::new(FallConfig::default())
    }
}

impl App for FallDetectionApp {
    fn name(&self) -> &str {
        "fall-detection"
    }

    // lint:allow(embedded-no-heap-alloc, static resource declaration consumed by the host-side profiler)
    fn resource_spec(&self) -> AppResourceSpec {
        AppResourceSpec {
            name: "fall-detection".into(),
            fram_code_bytes: 610,
            fram_data_bytes: 24,
            sram_peak_bytes: 32,
            cycles_per_period: CYCLES_PER_SAMPLE * 50.0, // 50 Hz sampling
            period_s: 1.0,
            libs: vec![],
        }
    }

    fn current_state(&self) -> &'static str {
        match self.state {
            State::Monitoring => "Monitoring",
            State::ImpactSeen { .. } => "ImpactSeen",
        }
    }

    // lint:allow(embedded-no-heap-alloc, display strings render on the host; device firmware writes a fixed screen buffer)
    fn handle(&mut self, event: &AmuletEvent, ctx: &mut AppContext<'_>) {
        // Accelerometer magnitudes arrive as generic signals scaled by
        // 1000 (the QM framework passes small integers); see
        // `accel_signal`.
        let AmuletEvent::Signal(raw) = event else {
            return;
        };
        let Some(magnitude_g) = decode_accel_signal(*raw) else {
            return;
        };
        ctx.charge_cycles(CYCLES_PER_SAMPLE);
        self.samples += 1;
        let now = ctx.now_ms;
        match self.state {
            State::Monitoring => {
                if magnitude_g >= self.config.impact_g {
                    self.state = State::ImpactSeen { at_ms: now };
                    ctx.display(Severity::Debug, format!("impact {magnitude_g:.1} g"));
                }
            }
            State::ImpactSeen { at_ms } => {
                let dt = now.saturating_sub(at_ms);
                if dt > self.config.confirm_window_ms {
                    self.state = State::Monitoring;
                } else if dt >= self.config.confirm_after_ms
                    && (magnitude_g - 1.0).abs() <= self.config.stillness_band_g
                {
                    self.falls += 1;
                    ctx.raise_alert("FALL DETECTED");
                    self.state = State::Monitoring;
                }
            }
        }
    }
}

/// Encode an accelerometer magnitude (g) as a QM signal for dispatch.
pub fn accel_signal(magnitude_g: f64) -> AmuletEvent {
    AmuletEvent::Signal(0xACC0_0000 | ((magnitude_g.clamp(0.0, 16.0) * 1000.0) as u32 & 0xFFFF))
}

/// Decode a signal produced by [`accel_signal`].
fn decode_accel_signal(raw: u32) -> Option<f64> {
    if raw & 0xFFFF_0000 == 0xACC0_0000 {
        Some((raw & 0xFFFF) as f64 / 1000.0)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::Display;
    use crate::energy::{EnergyMeter, EnergyModel};
    use crate::machine::Alert;
    use crate::sensors::{Accelerometer, Activity};

    fn drive(app: &mut FallDetectionApp, samples: &[(u64, f64)]) -> Vec<Alert> {
        let mut display = Display::new();
        let mut meter = EnergyMeter::new();
        let model = EnergyModel::default();
        let mut alerts = Vec::new();
        for &(at_ms, g) in samples {
            let mut ctx = AppContext::new(
                at_ms,
                "fall-detection",
                &mut display,
                &mut meter,
                &model,
                &mut alerts,
            );
            app.handle(&accel_signal(g), &mut ctx);
        }
        alerts
    }

    #[test]
    fn fall_pattern_detected() {
        let mut app = FallDetectionApp::default();
        let mut samples = vec![(0, 1.0), (100, 1.01), (200, 4.5)];
        for i in 0..40 {
            samples.push((300 + i * 100, 1.02));
        }
        let alerts = drive(&mut app, &samples);
        assert_eq!(app.falls, 1);
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].message.contains("FALL"));
    }

    #[test]
    fn walking_bounce_is_not_a_fall() {
        let mut app = FallDetectionApp::default();
        // Oscillation up to 1.4 g, never crossing the impact threshold.
        let samples: Vec<(u64, f64)> = (0..200)
            .map(|i| (i * 20, 1.0 + 0.4 * ((i as f64) * 0.6).sin().max(0.0)))
            .collect();
        assert!(drive(&mut app, &samples).is_empty());
        assert_eq!(app.falls, 0);
    }

    #[test]
    fn impact_without_stillness_times_out() {
        let mut app = FallDetectionApp::default();
        // Impact, then continued vigorous motion past the window.
        let mut samples = vec![(0, 4.0)];
        for i in 1..100 {
            samples.push((i * 100, 1.8));
        }
        assert!(drive(&mut app, &samples).is_empty());
        assert_eq!(app.current_state(), "Monitoring");
    }

    #[test]
    fn end_to_end_with_synthetic_accelerometer() {
        let mut app = FallDetectionApp::default();
        let mut acc = Accelerometer::new(Activity::Resting, 9);
        let mut samples = Vec::new();
        for t in 0..50 {
            samples.push((t * 20, acc.sample(t * 20).value));
        }
        acc.set_activity(Activity::Falling, 1000);
        for t in 50..300 {
            samples.push((t * 20, acc.sample(t * 20).value));
        }
        let alerts = drive(&mut app, &samples);
        assert_eq!(app.falls, 1, "alerts: {alerts:?}");
    }

    #[test]
    fn signal_codec_round_trip() {
        for g in [0.0, 0.5, 1.0, 2.5, 4.5, 15.9] {
            let AmuletEvent::Signal(raw) = accel_signal(g) else {
                panic!("wrong event kind");
            };
            let back = decode_accel_signal(raw).unwrap();
            assert!((back - g).abs() < 0.001, "g={g} back={back}");
        }
        assert_eq!(decode_accel_signal(0x1234), None);
    }

    #[test]
    fn ignores_unrelated_events() {
        let mut app = FallDetectionApp::default();
        let mut display = Display::new();
        let mut meter = EnergyMeter::new();
        let model = EnergyModel::default();
        let mut alerts = Vec::new();
        let mut ctx = AppContext::new(0, "fall-detection", &mut display, &mut meter, &model, &mut alerts);
        app.handle(&AmuletEvent::ButtonPress, &mut ctx);
        app.handle(&AmuletEvent::Signal(0xDEAD), &mut ctx);
        assert_eq!(app.samples(), 0);
    }
}
