//! The base station: an Amulet reassembling sensor streams into
//! detection windows and running the SIFT app on them.
//!
//! Incoming ECG/ABP packets are slotted into `w`-second windows; once a
//! window has every chunk of both channels, it is posted to the OS as a
//! `SnippetReady` event for the detector (and any other installed app).
//! Windows with missing chunks — lost packets — are dropped and counted
//! by default: a real device cannot fabricate samples. With
//! [`BaseStation::with_salvage`], *nearly* complete windows (at most a
//! configured number of missing chunks) are repaired by zero-order-hold
//! filling and still dispatched, flagged as salvaged rather than
//! silently dropped. A per-stream watchdog
//! ([`BaseStation::with_watchdog`]) notices streams that stop arriving
//! entirely and raises a distinct stream-stalled alert through the
//! Amulet event system.

use crate::channel::Delivery;
use crate::device::Stream;
use crate::WiotError;
use amulet_sim::apps::{HeartRateApp, SiftApp, WatchdogApp};
use amulet_sim::event::AmuletEvent;
use amulet_sim::machine::{Alert, App};
use amulet_sim::os::AmuletOs;
use amulet_sim::profiler::ResourceProfiler;
use amulet_sim::toolchain::FirmwareImage;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::flavor::extract_amulet_f32;
use sift::snippet::Snippet;
use std::collections::{BTreeMap, VecDeque};

/// Cap on the per-window outcome log: generous for any test or scoring
/// run, flat for week-long soaks.
const WINDOW_LOG_CAP: usize = 16_384;

/// Window-assembly state for one channel.
#[derive(Debug, Clone)]
struct PartialWindow {
    chunks: Vec<Option<Vec<f64>>>,
    peaks: Vec<usize>,
}

/// Statistics of the base station's stream reassembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BaseStationStats {
    /// Complete windows delivered to the apps.
    pub windows_emitted: u64,
    /// Windows discarded due to missing chunks.
    pub windows_dropped: u64,
    /// Packets accepted into windows.
    pub packets_received: u64,
    /// Nearly complete windows repaired by zero-order-hold filling and
    /// still dispatched (see [`BaseStation::with_salvage`]).
    pub windows_salvaged: u64,
    /// Brownout reboots performed ([`BaseStation::reboot`]).
    pub reboots: u64,
    /// Old window-log entries evicted by the log cap.
    pub log_evicted: u64,
}

/// What happened to one detection window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowOutcome {
    /// The window reached the apps; `alerted` records whether the
    /// detector raised an alert on it.
    Emitted {
        /// Whether the detector alerted.
        alerted: bool,
    },
    /// The window was dropped (missing chunks).
    Dropped,
    /// The window was missing chunks but was repaired by zero-order-hold
    /// filling and dispatched anyway — degraded, not dropped.
    Salvaged {
        /// Whether the detector alerted on the repaired window.
        alerted: bool,
    },
}

/// Per-stream watchdog configuration.
#[derive(Debug, Clone, Copy)]
struct Watchdog {
    timeout_ms: u64,
    strict: bool,
}

/// The base station device.
pub struct BaseStation {
    os: AmuletOs,
    config: SiftConfig,
    chunk_len: usize,
    chunks_per_window: usize,
    ecg: BTreeMap<usize, PartialWindow>,
    abp: BTreeMap<usize, PartialWindow>,
    emitted_through: usize,
    stats: BaseStationStats,
    window_log: VecDeque<(usize, WindowOutcome)>,
    window_log_cap: usize,
    /// Maximum missing chunks (across both channels) a window may have
    /// and still be repaired; `None` disables salvage.
    salvage_max_missing: Option<usize>,
    watchdog: Option<Watchdog>,
    /// When set, every window that reaches the apps also has its
    /// feature vector extracted and queued for the sink uplink
    /// ([`BaseStation::with_feature_uplink`]).
    feature_uplink: Option<Version>,
    /// Queued `(window index, features)` pairs awaiting
    /// [`BaseStation::take_uplinked_features`].
    uplinked: Vec<(usize, Vec<f32>)>,
    /// Version of the currently installed detector app (tracked across
    /// [`BaseStation::swap_detector`] reflashes). Uplink-extracted
    /// features are only shared with the detector when this matches the
    /// uplink version — a reflashed detector must extract its own.
    detector_version: Version,
    /// Last arrival time per stream `[ecg, abp]`, ms; session start
    /// counts as an implicit arrival so a never-seen stream still trips
    /// the watchdog.
    last_arrival_ms: [u64; 2],
    /// Whether each stream is currently flagged stalled (cleared by the
    /// next arrival, so a recovery → second stall re-alerts).
    stalled: [bool; 2],
}

fn stream_slot(stream: Stream) -> usize {
    match stream {
        Stream::Ecg => 0,
        Stream::Abp => 1,
    }
}

impl std::fmt::Debug for BaseStation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaseStation")
            .field("stats", &self.stats)
            .field("apps", &self.os.app_names())
            .finish()
    }
}

impl BaseStation {
    /// Boot a base station running `detector` (and a heart-rate app) for
    /// packets of `chunk_s` seconds.
    ///
    /// # Errors
    ///
    /// Returns [`WiotError::InvalidScenario`] if the chunk does not
    /// evenly divide the detection window, and propagates firmware
    /// static-check failures.
    pub fn new(detector: SiftApp, config: SiftConfig, chunk_s: f64) -> Result<Self, WiotError> {
        let window_samples = config.window_samples();
        let chunk_len = (chunk_s * config.fs).round() as usize;
        if chunk_len == 0 || !window_samples.is_multiple_of(chunk_len) {
            return Err(WiotError::InvalidScenario {
                reason: "chunk length must evenly divide the detection window",
            });
        }
        let mut os = AmuletOs::new();
        let hr = HeartRateApp::with_sample_rate(config.fs);
        let detector_version = detector.version();
        let image = FirmwareImage::build(
            vec![detector.resource_spec(), hr.resource_spec()],
            &ResourceProfiler::default(),
        )
        .map_err(WiotError::from)?;
        os.install(&image, vec![Box::new(detector), Box::new(hr)])?;
        Ok(Self {
            os,
            chunks_per_window: window_samples / chunk_len,
            chunk_len,
            config,
            ecg: BTreeMap::new(),
            abp: BTreeMap::new(),
            emitted_through: 0,
            stats: BaseStationStats::default(),
            window_log: VecDeque::new(),
            window_log_cap: WINDOW_LOG_CAP,
            salvage_max_missing: None,
            watchdog: None,
            feature_uplink: None,
            uplinked: Vec::new(),
            detector_version,
            last_arrival_ms: [0; 2],
            stalled: [false; 2],
        })
    }

    /// Enable the feature uplink: every window that reaches the apps
    /// also has its `version` feature vector
    /// extracted and queued (a handful of floats per 3-second window,
    /// far cheaper to ship than raw samples). The fleet engine drains
    /// the queue with [`BaseStation::take_uplinked_features`] and
    /// re-scores whole batches at the sink with one batched SVM call —
    /// on-device detection is unchanged.
    pub fn with_feature_uplink(mut self, version: Version) -> Self {
        self.feature_uplink = Some(version);
        self
    }

    /// Enable partial-window salvage: a window missing at most
    /// `max_missing` chunks (counted across both channels) is repaired
    /// by zero-order-hold filling and dispatched flagged as
    /// [`WindowOutcome::Salvaged`] instead of being dropped. The paper's
    /// detector features are robust to a short held segment; losing the
    /// whole window to one lost packet is the worse failure.
    pub fn with_salvage(mut self, max_missing: usize) -> Self {
        self.salvage_max_missing = Some(max_missing);
        self
    }

    /// Install the stream-liveness watchdog: [`poll_watchdog`] raises a
    /// stream-stalled alert (via the [`WatchdogApp`]) for any stream
    /// silent longer than `timeout_ms`. With `strict`, a stall is also a
    /// hard [`WiotError::StreamStalled`].
    ///
    /// [`poll_watchdog`]: BaseStation::poll_watchdog
    ///
    /// # Errors
    ///
    /// Propagates firmware static-check failures from installing the
    /// watchdog app.
    pub fn with_watchdog(mut self, timeout_ms: u64, strict: bool) -> Result<Self, WiotError> {
        let app = WatchdogApp::new();
        let image = FirmwareImage::build(vec![app.resource_spec()], &ResourceProfiler::default())
            .map_err(WiotError::from)?;
        self.os.install_addon(&image, vec![Box::new(app)])?;
        self.watchdog = Some(Watchdog { timeout_ms, strict });
        Ok(self)
    }

    /// Accept one delivered packet and dispatch any completed windows.
    ///
    /// # Errors
    ///
    /// Propagates platform errors (e.g. battery exhaustion).
    pub fn receive(&mut self, delivery: Delivery) -> Result<(), WiotError> {
        let packet = delivery.packet;
        if packet.samples.len() != self.chunk_len {
            return Err(WiotError::InvalidScenario {
                reason: "packet length does not match configured chunk size",
            });
        }
        self.stats.packets_received += 1;
        let slot = stream_slot(packet.stream);
        // Only a chunk carrying signal feeds the watchdog: a stuck
        // sensor keeps transmitting a flat, peak-less payload, and that
        // must read as a stalled stream, not a live one.
        if !packet.peaks.is_empty() || !is_flat(&packet.samples) {
            self.last_arrival_ms[slot] = self.last_arrival_ms[slot].max(delivery.at_ms);
            self.stalled[slot] = false;
        }
        let window_samples = self.config.window_samples();
        let window_idx = packet.start_sample / window_samples;
        let chunk_idx = (packet.start_sample % window_samples) / self.chunk_len;
        let chunks_per_window = self.chunks_per_window;
        let map = match packet.stream {
            Stream::Ecg => &mut self.ecg,
            Stream::Abp => &mut self.abp,
        };
        let w = map.entry(window_idx).or_insert_with(|| PartialWindow {
            chunks: vec![None; chunks_per_window],
            peaks: Vec::new(),
        });
        let offset = chunk_idx * self.chunk_len;
        for &rel in &packet.peaks {
            w.peaks.push(offset + rel);
        }
        w.chunks[chunk_idx] = Some(packet.samples);
        self.try_emit()?;
        Ok(())
    }

    /// Whether window `idx` has every chunk of both channels.
    fn window_complete(&self, idx: usize) -> bool {
        self.ecg.get(&idx).is_some_and(complete) && self.abp.get(&idx).is_some_and(complete)
    }

    /// Append to the window log, evicting the oldest entry past the cap.
    fn log_window(&mut self, idx: usize, outcome: WindowOutcome) {
        if self.window_log.len() >= self.window_log_cap {
            self.window_log.pop_front();
            self.stats.log_evicted += 1;
        }
        self.window_log.push_back((idx, outcome));
    }

    /// Assemble and dispatch the complete window `idx`, recording
    /// its outcome and advancing the emission cursor. Callers check
    /// [`Self::window_complete`] first; a half-present window is left
    /// untouched rather than torn down.
    fn emit_window(&mut self, idx: usize) -> Result<(), WiotError> {
        let Some(e) = self.ecg.remove(&idx) else {
            return Ok(());
        };
        let Some(a) = self.abp.remove(&idx) else {
            self.ecg.insert(idx, e);
            return Ok(());
        };
        self.dispatch_window(idx, e, a, false)
    }

    /// Dispatch an assembled (complete or repaired) window through the
    /// apps.
    fn dispatch_window(
        &mut self,
        idx: usize,
        ecg: PartialWindow,
        abp: PartialWindow,
        salvaged: bool,
    ) -> Result<(), WiotError> {
        let snippet = assemble(ecg, abp)?;
        let mut shared_features = None;
        if let Some(version) = self.feature_uplink {
            // Windows the extractor cannot featurise (e.g. too few
            // peaks) are skipped, mirroring the detector's own bail-out.
            if let Ok(features) = extract_amulet_f32(version, &snippet, &self.config) {
                // When the uplink extracts the exact vector the installed
                // detector would compute (same version, same config, same
                // window), hand it along so the device skips the second
                // extraction. After a cross-version reflash the detector
                // must extract its own features again.
                if version == self.detector_version {
                    shared_features = Some(features.clone());
                }
                self.uplinked.push((idx, features));
            }
        }
        let alerts_before = self.os.alerts().len();
        self.os.post(match shared_features {
            Some(features) => AmuletEvent::SnippetScored(snippet, features),
            None => AmuletEvent::SnippetReady(snippet),
        });
        self.os.run_until_idle()?;
        let alerted = self.os.alerts().len() > alerts_before;
        if salvaged {
            self.log_window(idx, WindowOutcome::Salvaged { alerted });
            self.stats.windows_salvaged += 1;
        } else {
            self.log_window(idx, WindowOutcome::Emitted { alerted });
            self.stats.windows_emitted += 1;
        }
        self.emitted_through = self.emitted_through.max(idx + 1);
        Ok(())
    }

    /// Missing chunks of window `idx` on one channel map (an absent
    /// entry means every chunk is missing).
    fn missing_chunks(
        map: &BTreeMap<usize, PartialWindow>,
        idx: usize,
        per_window: usize,
    ) -> usize {
        map.get(&idx)
            .map(|w| w.chunks.iter().filter(|c| c.is_none()).count())
            .unwrap_or(per_window)
    }

    /// Resolve an incomplete window whose missing chunks can no longer
    /// arrive: salvage it when enabled and close enough to complete,
    /// otherwise drop it.
    fn resolve_incomplete(&mut self, idx: usize) -> Result<(), WiotError> {
        let per_window = self.chunks_per_window;
        let missing = Self::missing_chunks(&self.ecg, idx, per_window)
            + Self::missing_chunks(&self.abp, idx, per_window);
        if let Some(max_missing) = self.salvage_max_missing {
            if missing <= max_missing {
                let chunk_len = self.chunk_len;
                let mut e = self.ecg.remove(&idx).unwrap_or_else(|| PartialWindow {
                    chunks: vec![None; per_window],
                    peaks: Vec::new(),
                });
                let mut a = self.abp.remove(&idx).unwrap_or_else(|| PartialWindow {
                    chunks: vec![None; per_window],
                    peaks: Vec::new(),
                });
                fill_missing(&mut e, chunk_len);
                fill_missing(&mut a, chunk_len);
                return self.dispatch_window(idx, e, a, true);
            }
        }
        self.ecg.remove(&idx);
        self.abp.remove(&idx);
        self.log_window(idx, WindowOutcome::Dropped);
        self.stats.windows_dropped += 1;
        self.emitted_through = self.emitted_through.max(idx + 1);
        Ok(())
    }

    /// Emit every window (in order) whose both channels are complete;
    /// windows older than a completed one that are still incomplete are
    /// dropped.
    fn try_emit(&mut self) -> Result<(), WiotError> {
        loop {
            let idx = self.emitted_through;
            if self.window_complete(idx) {
                self.emit_window(idx)?;
                continue;
            }
            // If any later window completed while this one is missing
            // chunks whose packets can no longer arrive (we assume
            // bounded reordering of one window), drop the stale one.
            let newer_complete = self.ecg.range(idx + 2..).any(|(_, w)| complete(w))
                || self.abp.range(idx + 2..).any(|(_, w)| complete(w));
            if newer_complete {
                self.resolve_incomplete(idx)?;
                continue;
            }
            return Ok(());
        }
    }

    /// Advance the device clock (charging sleep current).
    pub fn advance_time(&mut self, ms: u64) {
        self.os.advance_time(ms);
    }

    /// End of session: dispatch any still-pending windows that are in
    /// fact complete (they may have been blocked behind a lost one),
    /// then drop the rest — their missing chunks can no longer arrive.
    ///
    /// # Errors
    ///
    /// Propagates platform errors from dispatching the complete windows.
    pub fn flush(&mut self) -> Result<(), WiotError> {
        let mut pending: Vec<usize> = self.ecg.keys().chain(self.abp.keys()).copied().collect();
        pending.sort_unstable();
        pending.dedup();
        for idx in pending {
            if self.window_complete(idx) {
                self.emit_window(idx)?;
            } else {
                self.resolve_incomplete(idx)?;
            }
        }
        Ok(())
    }

    /// A brownout reboot: all in-flight window-assembly state is lost
    /// (partially received windows will later resolve as dropped or
    /// salvaged-from-nothing is impossible, so effectively dropped);
    /// installed apps, the alert log, and the clock persist, as they
    /// live in FRAM on the real device.
    pub fn reboot(&mut self) {
        self.ecg.clear();
        self.abp.clear();
        self.stats.reboots += 1;
    }

    /// Swap the installed detector instance for `app` — the recovery
    /// path after a brownout reboot, rebuilding the detector from the
    /// FRAM checkpoint. The firmware image stays installed; only the
    /// running instance is replaced, so neither the memory map nor the
    /// energy meter moves.
    ///
    /// # Errors
    ///
    /// Propagates [`amulet_sim::AmuletError::UnknownApp`] when no app
    /// of that name is installed (e.g. a checkpoint for a different
    /// detector flavor).
    pub fn restore_detector(&mut self, app: SiftApp) -> Result<(), WiotError> {
        let name = app.name().to_string();
        self.os
            .replace_app(&name, Box::new(app))
            .map_err(WiotError::from)
    }

    /// Hot-swap the detector for a *different* build — the survival
    /// policy's version actuator. Detector apps are named after their
    /// version, so [`BaseStation::restore_detector`] cannot cross
    /// versions; instead the whole firmware image is rebuilt (new
    /// detector, heart-rate app, and the watchdog app when installed)
    /// and [`amulet_sim::os::AmuletOs::reflash`]ed, which is exactly
    /// how a version change deploys on the real Amulet. The clock,
    /// energy meter, and alert log persist across the reflash; the
    /// event queue is cleared (it is idle between scenario ticks) and
    /// **any reserved FRAM checkpoint region is released** — callers
    /// that checkpoint must re-reserve it afterwards.
    ///
    /// # Errors
    ///
    /// Propagates firmware static-check or flash failures from the
    /// rebuilt image.
    pub fn swap_detector(&mut self, app: SiftApp) -> Result<(), WiotError> {
        self.detector_version = app.version();
        let hr = HeartRateApp::with_sample_rate(self.config.fs);
        let mut specs = vec![app.resource_spec(), hr.resource_spec()];
        let mut apps: Vec<Box<dyn App>> = vec![Box::new(app), Box::new(hr)];
        if self.watchdog.is_some() {
            let wd = WatchdogApp::new();
            specs.push(wd.resource_spec());
            apps.push(Box::new(wd));
        }
        let image = FirmwareImage::build(specs, &ResourceProfiler::default())
            .map_err(WiotError::from)?;
        self.os.reflash(&image, apps).map_err(WiotError::from)
    }

    /// Check stream liveness at `now_ms`: every watched stream silent
    /// for longer than the watchdog timeout is flagged, a
    /// `StreamStalled` event is posted through the OS (the watchdog app
    /// turns it into a distinct alert), and the newly stalled streams
    /// are returned. Without [`BaseStation::with_watchdog`] this is a
    /// no-op.
    ///
    /// # Errors
    ///
    /// With a strict watchdog, returns [`WiotError::StreamStalled`] for
    /// the first newly stalled stream; also propagates platform errors
    /// from dispatching the event.
    pub fn poll_watchdog(&mut self, now_ms: u64) -> Result<Vec<Stream>, WiotError> {
        let Some(wd) = self.watchdog else {
            return Ok(Vec::new());
        };
        let mut newly_stalled = Vec::new();
        for stream in [Stream::Ecg, Stream::Abp] {
            let slot = stream_slot(stream);
            let silent_ms = now_ms.saturating_sub(self.last_arrival_ms[slot]);
            if silent_ms >= wd.timeout_ms && !self.stalled[slot] {
                self.stalled[slot] = true;
                self.os.post(AmuletEvent::StreamStalled {
                    stream: stream.to_string(),
                    silent_ms,
                });
                self.os.run_until_idle()?;
                newly_stalled.push(stream);
                if wd.strict {
                    return Err(WiotError::StreamStalled { stream, silent_ms });
                }
            }
        }
        Ok(newly_stalled)
    }

    /// Alerts raised by the installed apps so far.
    pub fn alerts(&self) -> &[Alert] {
        self.os.alerts()
    }

    /// Reassembly statistics.
    pub fn stats(&self) -> BaseStationStats {
        self.stats
    }

    /// Per-window outcomes `(window index, outcome)`, in window order —
    /// the ground truth-free record the scenario runner scores against.
    /// Bounded at 16 384 entries (oldest evicted, counted in
    /// [`BaseStationStats::log_evicted`]) so multi-hour soaks run in flat
    /// memory.
    pub fn window_log(&self) -> &VecDeque<(usize, WindowOutcome)> {
        &self.window_log
    }

    /// Drain the feature-uplink queue: `(window index, features)` in
    /// dispatch order. Empty unless [`BaseStation::with_feature_uplink`]
    /// was enabled.
    pub fn take_uplinked_features(&mut self) -> Vec<(usize, Vec<f32>)> {
        std::mem::take(&mut self.uplinked)
    }

    /// The underlying OS (for inspection: display, meter, memory).
    pub fn os(&self) -> &AmuletOs {
        &self.os
    }

    /// The underlying OS, mutably (used by the adaptive engine to swap
    /// detector apps).
    pub fn os_mut(&mut self) -> &mut AmuletOs {
        &mut self.os
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &SiftConfig {
        &self.config
    }
}

fn complete(w: &PartialWindow) -> bool {
    w.chunks.iter().all(Option::is_some)
}

/// Whether every sample equals the first — the signature of a frozen
/// ADC (real physiology is never exactly constant over a chunk).
fn is_flat(samples: &[f64]) -> bool {
    samples.windows(2).all(|w| w[0] == w[1])
}

/// Zero-order-hold repair: each missing chunk is filled with the last
/// sample value preceding it (or the first available sample when the
/// window starts with a hole). Returns the number of chunks filled.
fn fill_missing(w: &mut PartialWindow, chunk_len: usize) -> usize {
    let mut hold = w
        .chunks
        .iter()
        .flatten()
        .next()
        .and_then(|c| c.first().copied())
        .unwrap_or(0.0);
    let mut filled = 0;
    for c in w.chunks.iter_mut() {
        match c {
            Some(v) => {
                if let Some(&last) = v.last() {
                    hold = last;
                }
            }
            None => {
                *c = Some(vec![hold; chunk_len]);
                filled += 1;
            }
        }
    }
    filled
}

fn assemble(ecg: PartialWindow, abp: PartialWindow) -> Result<Snippet, WiotError> {
    let mut e = Vec::new();
    for c in ecg.chunks.into_iter().flatten() {
        e.extend(c);
    }
    let mut a = Vec::new();
    for c in abp.chunks.into_iter().flatten() {
        a.extend(c);
    }
    let mut r_peaks = ecg.peaks;
    r_peaks.sort_unstable();
    r_peaks.dedup();
    let mut sys_peaks = abp.peaks;
    sys_peaks.sort_unstable();
    sys_peaks.dedup();
    Snippet::new(e, a, r_peaks, sys_peaks).map_err(WiotError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::device::SensorDevice;
    use physio_sim::record::Record;
    use physio_sim::subject::bank;
    use sift::features::Version;
    use sift::trainer::train_for_subject;

    fn quick_config() -> SiftConfig {
        SiftConfig {
            train_s: 60.0,
            max_positive_per_donor: Some(15),
            ..SiftConfig::default()
        }
    }

    fn station() -> BaseStation {
        let cfg = quick_config();
        let model = train_for_subject(&bank(), 0, Version::Simplified, &cfg, 7).unwrap();
        let app = SiftApp::new(Version::Simplified, model.embedded().clone(), cfg.clone()).unwrap();
        BaseStation::new(app, cfg, 0.5).unwrap()
    }

    fn stream_record(bs: &mut BaseStation, record: &Record, channel: &mut Channel) {
        let mut ecg = SensorDevice::ecg(record, 0.5);
        let mut abp = SensorDevice::abp(record, 0.5);
        let mut now = 0u64;
        loop {
            let (pe, pa) = (ecg.poll(), abp.poll());
            if pe.is_none() && pa.is_none() {
                break;
            }
            for p in [pe, pa].into_iter().flatten() {
                for d in channel.transmit(now, p) {
                    bs.receive(d).unwrap();
                }
            }
            now += 500;
            bs.advance_time(500);
        }
    }

    #[test]
    fn perfect_channel_emits_every_window() {
        let mut bs = station();
        let r = Record::synthesize(&bank()[0], 30.0, 99);
        stream_record(&mut bs, &r, &mut Channel::perfect());
        assert_eq!(bs.stats().windows_emitted, 10);
        assert_eq!(bs.stats().windows_dropped, 0);
        // Genuine data: few alerts.
        assert!(bs.alerts().len() <= 2, "{} alerts", bs.alerts().len());
    }

    #[test]
    fn lossy_channel_drops_windows_not_correctness() {
        let mut bs = station();
        let r = Record::synthesize(&bank()[0], 60.0, 99);
        let mut ch = Channel::new(0.1, 0, 0, 5).unwrap();
        stream_record(&mut bs, &r, &mut ch);
        let s = bs.stats();
        assert!(s.windows_dropped > 0, "{s:?}");
        assert!(s.windows_emitted > 0, "{s:?}");
        assert!(s.windows_emitted + s.windows_dropped <= 20);
    }

    #[test]
    fn misaligned_chunk_rejected() {
        let cfg = quick_config();
        let model = train_for_subject(&bank(), 0, Version::Reduced, &cfg, 7).unwrap();
        let app = SiftApp::new(Version::Reduced, model.embedded().clone(), cfg.clone()).unwrap();
        // 0.7 s chunks do not divide a 3 s window.
        assert!(matches!(
            BaseStation::new(app, cfg, 0.7),
            Err(WiotError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn salvage_repairs_nearly_complete_windows() {
        // Same lossy run twice: without salvage some windows drop;
        // with salvage (≤ 1 missing chunk) most of those survive.
        let r = Record::synthesize(&bank()[0], 60.0, 99);
        let mut plain = station();
        stream_record(&mut plain, &r, &mut Channel::new(0.04, 0, 0, 5).unwrap());
        let mut salv = station().with_salvage(1);
        stream_record(&mut salv, &r, &mut Channel::new(0.04, 0, 0, 5).unwrap());
        assert!(plain.stats().windows_dropped > 0);
        assert!(salv.stats().windows_salvaged > 0, "{:?}", salv.stats());
        assert!(salv.stats().windows_dropped < plain.stats().windows_dropped);
        assert!(salv
            .window_log()
            .iter()
            .any(|(_, o)| matches!(o, WindowOutcome::Salvaged { .. })));
    }

    #[test]
    fn window_log_cap_bounds_memory() {
        let mut bs = station();
        bs.window_log_cap = 3;
        let r = Record::synthesize(&bank()[0], 30.0, 99);
        stream_record(&mut bs, &r, &mut Channel::perfect());
        assert_eq!(bs.window_log().len(), 3);
        assert_eq!(bs.stats().log_evicted, 7);
        // The newest entries survive.
        assert_eq!(bs.window_log().back().map(|&(i, _)| i), Some(9));
    }

    #[test]
    fn watchdog_flags_silent_stream_and_realerts_after_recovery() {
        let mut bs = station().with_watchdog(2_000, false).unwrap();
        // Nothing received: both streams stall after the timeout.
        assert!(bs.poll_watchdog(1_000).unwrap().is_empty());
        let stalled = bs.poll_watchdog(2_500).unwrap();
        assert_eq!(stalled, vec![Stream::Ecg, Stream::Abp]);
        let alerts: Vec<_> = bs.alerts().iter().filter(|a| a.app == "watchdog").collect();
        assert_eq!(alerts.len(), 2);
        assert!(alerts[0].message.contains("stream stalled"));
        // Already flagged: no duplicate alert while still silent.
        assert!(bs.poll_watchdog(3_000).unwrap().is_empty());
        // ECG resumes, then goes silent again: fresh alert.
        let r = Record::synthesize(&bank()[0], 3.0, 1);
        let mut ecg = SensorDevice::ecg(&r, 0.5);
        let p = ecg.poll().unwrap();
        bs.receive(crate::channel::Delivery {
            at_ms: 4_000,
            packet: p,
        })
        .unwrap();
        assert_eq!(bs.poll_watchdog(6_500).unwrap(), vec![Stream::Ecg]);
    }

    #[test]
    fn strict_watchdog_is_a_hard_error() {
        let mut bs = station().with_watchdog(1_000, true).unwrap();
        assert!(matches!(
            bs.poll_watchdog(5_000),
            Err(WiotError::StreamStalled {
                stream: Stream::Ecg,
                silent_ms: 5_000
            })
        ));
    }

    #[test]
    fn reboot_loses_inflight_windows_but_keeps_alert_log() {
        let mut bs = station();
        let r = Record::synthesize(&bank()[0], 30.0, 99);
        let mut ecg = SensorDevice::ecg(&r, 0.5);
        let mut abp = SensorDevice::abp(&r, 0.5);
        // Deliver half a window, then brown out.
        for _ in 0..3 {
            for p in [ecg.poll(), abp.poll()].into_iter().flatten() {
                bs.receive(crate::channel::Delivery {
                    at_ms: 0,
                    packet: p,
                })
                .unwrap();
            }
        }
        bs.reboot();
        assert_eq!(bs.stats().reboots, 1);
        // Stream the rest: window 0 can never complete and is dropped,
        // later windows emit normally.
        let mut ch = Channel::perfect();
        let mut now = 1_500u64;
        loop {
            let (pe, pa) = (ecg.poll(), abp.poll());
            if pe.is_none() && pa.is_none() {
                break;
            }
            for p in [pe, pa].into_iter().flatten() {
                for d in ch.transmit(now, p) {
                    bs.receive(d).unwrap();
                }
            }
            now += 500;
        }
        bs.flush().unwrap();
        let s = bs.stats();
        assert_eq!(s.windows_dropped, 1, "{s:?}");
        assert_eq!(s.windows_emitted, 9, "{s:?}");
    }

    #[test]
    fn restore_detector_swaps_instance_and_rejects_foreign_flavors() {
        let mut bs = station();
        let cfg = quick_config();
        let model = train_for_subject(&bank(), 0, Version::Simplified, &cfg, 8).unwrap();
        let app = SiftApp::new(Version::Simplified, model.embedded().clone(), cfg.clone()).unwrap();
        bs.restore_detector(app).unwrap();
        // The station still detects normally with the swapped instance.
        let r = Record::synthesize(&bank()[0], 15.0, 99);
        stream_record(&mut bs, &r, &mut Channel::perfect());
        assert_eq!(bs.stats().windows_emitted, 5);
        // A different flavor registers under a different app name:
        // there is nothing installed to replace.
        let foreign = train_for_subject(&bank(), 0, Version::Reduced, &cfg, 8).unwrap();
        let foreign = SiftApp::new(Version::Reduced, foreign.embedded().clone(), cfg).unwrap();
        assert!(matches!(
            bs.restore_detector(foreign),
            Err(WiotError::Amulet(_))
        ));
    }

    #[test]
    fn feature_uplink_queues_one_vector_per_dispatched_window() {
        let mut bs = station().with_feature_uplink(Version::Simplified);
        let r = Record::synthesize(&bank()[0], 30.0, 99);
        stream_record(&mut bs, &r, &mut Channel::perfect());
        let uplinked = bs.take_uplinked_features();
        assert_eq!(uplinked.len() as u64, bs.stats().windows_emitted);
        let dim = uplinked[0].1.len();
        assert!(dim > 0);
        for pair in uplinked.windows(2) {
            assert!(pair[0].0 < pair[1].0, "window indices must ascend");
        }
        assert!(uplinked.iter().all(|(_, f)| f.len() == dim));
        // The queue drains: a second take is empty.
        assert!(bs.take_uplinked_features().is_empty());
        // Without the builder, nothing is queued.
        let mut plain = station();
        stream_record(&mut plain, &r, &mut Channel::perfect());
        assert!(plain.take_uplinked_features().is_empty());
    }

    #[test]
    fn heart_rate_app_sees_the_same_windows() {
        let mut bs = station();
        let r = Record::synthesize(&bank()[0], 15.0, 3);
        stream_record(&mut bs, &r, &mut Channel::perfect());
        let hr_lines = bs
            .os()
            .display()
            .lines()
            .iter()
            .filter(|l| l.app == "heartrate")
            .count();
        assert_eq!(hr_lines, 5);
    }
}
