//! The traced run: per-layer host time, counts and ratios.
//!
//! A reduced instance of the workload (same template, fewer devices)
//! is replayed device by device through public calls, with a span
//! around each call. Two passes run per repetition:
//!
//! * the **device pass** drives every device exactly as the engine
//!   does (`provision` → `DeviceSim::with_options` → `step` until done
//!   → sink batch scoring → `into_report`, plus the checkpoint swap on
//!   the slab engine) and checks each device's row against the
//!   engine's row for the same spec;
//! * the **layer pass** replays each device's work one layer at a time
//!   (synthesis, sensors, attacker, channel and ARQ, FRAM commits, SIFT
//!   stages, Amulet dispatch) so each layer's busy time is isolated.
//!
//! Spans stay in memory and are written out only on request.

use crate::workload::{self, ratio, windows_resolved, Instance, Provisioner, Workload};
use crate::BenchResult;
use amulet_sim::apps::{HeartRateApp, SiftApp};
use amulet_sim::event::AmuletEvent;
use amulet_sim::machine::App;
use amulet_sim::os::AmuletOs;
use amulet_sim::profiler::{ResourceProfiler, UsageSnapshot};
use amulet_sim::toolchain::FirmwareImage;
use ml::metrics::ConfusionMatrix;
use ml::{DetectorBackend, DetectorModel, Label};
use physio_sim::record::Record;
use physio_sim::subject::{bank, Subject};
use sift::checkpoint::DetectorCheckpoint;
use sift::flavor::extract_amulet_f32;
use sift::snippet::Snippet;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;
use wiot::attacker::Attacker;
use wiot::channel::{Channel, ChannelConfig, Delivery, LossModel};
use wiot::device::{SensorDevice, SensorPacket};
use wiot::fleet::DeviceSummary;
use wiot::persist::Persistence;
use wiot::scenario::{DeviceOptions, DeviceSim, Scenario};
use wiot::transport::{ArqConfig, ArqLink};

/// One timed call: `name` on `device`, caused by span `parent`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name.
    pub name: &'static str,
    /// Device index within the traced instance.
    pub device: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// A recorder that reads no clock and keeps nothing: the same code
    /// path untraced, the base of `trace.overhead`.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, device: usize, parent: Option<usize>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            device,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = end;
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        device: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, device, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Summed duration of every span called `name`, seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |acc, d| acc + d)
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"device\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.device, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Counts recorded at the same boundaries as the spans.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    synth_calls: u64,
    sensor_packets: u64,
    intercepted: u64,
    channel_sent: u64,
    channel_lost: u64,
    retransmits: u64,
    give_ups: u64,
    delivered: u64,
    commits: u64,
    commit_bytes: u64,
    dispatched: u64,
    sink_windows: u64,
    swaps: u64,
    swap_bytes: u64,
    active_cycles: f64,
    windows_resolved: u64,
}

/// What the device pass keeps of each device, for conformance.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRow {
    /// Device index.
    pub device: usize,
    /// Window confusion counts.
    pub confusion: ConfusionMatrix,
    /// Windows the sink scored.
    pub windows_scored: usize,
    /// Windows the sink flagged.
    pub sink_flagged: usize,
    /// Sum of sink margins, as bits.
    pub margin_sum_bits: u64,
    /// Alerts archived at the sink.
    pub alerts: usize,
    /// Ambiguous windows.
    pub ambiguous_windows: usize,
    /// Dropped windows.
    pub dropped_windows: usize,
    /// Energy and dispatch counters.
    pub usage: UsageSnapshot,
}

impl DeviceRow {
    /// The same fields of an engine row.
    pub fn of_summary(s: &DeviceSummary) -> Self {
        Self {
            device: s.device,
            confusion: s.confusion,
            windows_scored: s.windows_scored,
            sink_flagged: s.sink_flagged,
            margin_sum_bits: s.margin_sum.to_bits(),
            alerts: s.alerts,
            ambiguous_windows: s.ambiguous_windows,
            dropped_windows: s.dropped_windows,
            usage: s.usage,
        }
    }
}

/// One sensor → base-station link as the device builds it.
enum Link {
    Raw {
        channel: Channel,
        in_flight: Vec<Delivery>,
    },
    Arq(ArqLink),
}

impl Link {
    fn new(config: ChannelConfig, seed: u64, arq: Option<ArqConfig>) -> BenchResult<Self> {
        let channel = Channel::with_config(config, seed)?;
        Ok(match arq {
            Some(cfg) => Link::Arq(ArqLink::new(channel, cfg)?),
            None => Link::Raw {
                channel,
                in_flight: Vec::new(),
            },
        })
    }

    fn send(&mut self, now_ms: u64, packet: SensorPacket) {
        match self {
            Link::Raw { channel, in_flight } => in_flight.extend(channel.transmit(now_ms, packet)),
            Link::Arq(link) => link.send(now_ms, packet),
        }
    }

    fn pump(&mut self, now_ms: u64) -> BenchResult<usize> {
        match self {
            Link::Raw { in_flight, .. } => {
                let before = in_flight.len();
                in_flight.retain(|d| d.at_ms > now_ms);
                Ok(before - in_flight.len())
            }
            Link::Arq(link) => Ok(link.pump(now_ms)?.len()),
        }
    }

    fn idle(&self) -> bool {
        match self {
            Link::Raw { in_flight, .. } => in_flight.is_empty(),
            Link::Arq(link) => link.idle(),
        }
    }

    fn record(&self, counts: &mut Counts) {
        let channel = match self {
            Link::Raw { channel, .. } => channel,
            Link::Arq(link) => {
                let t = link.stats();
                counts.retransmits += t.retransmits;
                counts.give_ups += t.give_ups;
                link.channel()
            }
        };
        let s = channel.stats();
        counts.channel_sent += s.sent;
        counts.channel_lost += s.lost;
    }
}

/// The channel configuration a scenario's link parameters describe.
fn channel_config(s: &Scenario) -> ChannelConfig {
    let l = &s.link;
    ChannelConfig {
        loss: l.loss.unwrap_or(LossModel::Bernoulli { p: l.loss_prob }),
        base_delay_ms: l.base_delay_ms,
        jitter_ms: l.jitter_ms,
        dup_prob: l.dup_prob,
        reorder_prob: l.reorder_prob,
        reorder_extra_ms: l.reorder_extra_ms,
        corrupt_prob: l.corrupt_prob,
        ..ChannelConfig::default()
    }
}

/// Reassemble a detection window from one stream's consecutive packets.
fn join(packets: &[SensorPacket], chunk_len: usize) -> (Vec<f64>, Vec<usize>) {
    let mut samples = Vec::with_capacity(packets.len() * chunk_len);
    let mut peaks = Vec::new();
    for (i, p) in packets.iter().enumerate() {
        samples.extend_from_slice(&p.samples);
        peaks.extend(p.peaks.iter().map(|&r| i * chunk_len + r));
    }
    peaks.sort_unstable();
    peaks.dedup();
    (samples, peaks)
}

/// The device pass: every device of `inst` driven as the engine drives
/// it, one span per layer call. Returns one row per device.
fn device_pass(
    inst: &Instance,
    prov: &Provisioner<'_>,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> BenchResult<Vec<DeviceRow>> {
    let spec = inst.spec();
    let swap = inst.workload == Workload::FleetXlTurbo;
    let mut slot = Vec::new();
    let mut rows = Vec::with_capacity(inst.devices);
    for d in 0..inst.devices {
        let dev = tr.open("wiot.device", d, None);
        let p = tr.time("wiot.provision", d, Some(dev), || {
            prov.as_dyn().provision(&spec, d)
        })?;
        let mut resident = None;
        if swap {
            let id = tr.open("sift.checkpoint.swap", d, Some(dev));
            let swap_in = DetectorCheckpoint::new(p.scenario.version, p.deployed.clone())?;
            if slot.len() < swap_in.encoded_len() {
                slot.resize(swap_in.encoded_len(), 0);
            }
            let n = swap_in.encode_into(&mut slot)?;
            let decoded = DetectorCheckpoint::decode(&slot[..n])?;
            tr.close(id);
            counts.swap_bytes += n as u64;
            resident = Some(decoded);
        }
        let deployed: &DetectorModel = resident.as_ref().map_or(p.deployed, |c| &c.model);
        let mut sim = tr.time("wiot.device.build", d, Some(dev), || {
            DeviceSim::with_options(
                &p.scenario,
                DeviceOptions {
                    model: p.model,
                    deployed: Some(deployed),
                    feature_uplink: true,
                    telemetry: spec.telemetry,
                    subject: p.subject,
                },
            )
        })?;
        while tr.time("wiot.device.step", d, Some(dev), || sim.step())? {}

        let id = tr.open("ml.sink.score", d, Some(dev));
        let features = sim.take_uplinked_features();
        let mut flat = Vec::with_capacity(features.len() * deployed.dim());
        for (_, f) in &features {
            flat.extend_from_slice(f);
        }
        let margins = deployed.score_batch_f32(&flat)?;
        tr.close(id);
        counts.sink_windows += margins.len() as u64;
        let usage = sim.station().os().usage_snapshot();
        let report = tr.time("wiot.device.report", d, Some(dev), || sim.into_report())?;
        let c = report.confusion;
        let row = DeviceRow {
            device: d,
            confusion: c,
            windows_scored: margins.len(),
            sink_flagged: margins
                .iter()
                .filter(|&&m| Label::from_sign(f64::from(m)) == Label::Positive)
                .count(),
            margin_sum_bits: margins.iter().map(|&m| f64::from(m)).sum::<f64>().to_bits(),
            alerts: report.sink.alerts().len(),
            ambiguous_windows: report.ambiguous_windows,
            dropped_windows: report.dropped_windows,
            usage,
        };
        if let Some(mut resident) = resident {
            let id = tr.open("sift.checkpoint.swap", d, Some(dev));
            resident.windows_seen = u32::try_from(c.tp + c.fp + c.tn + c.fn_).unwrap_or(u32::MAX);
            resident.alerts_raised = u32::try_from(row.alerts).unwrap_or(u32::MAX);
            let n = resident.encode_into(&mut slot)?;
            tr.close(id);
            counts.swaps += 1;
            counts.swap_bytes += n as u64;
        }
        tr.close(dev);
        counts.active_cycles += usage.active_cycles;
        counts.windows_resolved +=
            (c.tp + c.fp + c.tn + c.fn_ + row.ambiguous_windows + row.dropped_windows) as u64;
        rows.push(row);
    }
    Ok(rows)
}

/// The layer pass: each device's work replayed one layer at a time.
fn layer_pass(
    inst: &Instance,
    prov: &Provisioner<'_>,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> BenchResult<()> {
    let spec = inst.spec();
    let legacy: Vec<Subject> = bank();
    for d in 0..inst.devices {
        let p = prov.as_dyn().provision(&spec, d)?;
        let s = &p.scenario;
        let subject = p.subject.unwrap_or_else(|| &legacy[s.victim]);

        // The campaign provisioner's work: two Reference syntheses and
        // the attack materialization.
        if let Provisioner::Campaign(cp) = prov {
            let wave = cp
                .wave_of(d)
                .ok_or("device outside the campaign schedule")?;
            let victim_live = tr.time("physio_sim.synth", d, None, || {
                Record::synthesize(subject, s.duration_s, s.seed ^ 0x11FE)
            });
            let donor_subject = &cp.subjects()[cp.donor_index(&wave.class, s.victim, s.seed)];
            let donor = tr.time("physio_sim.synth", d, None, || {
                Record::synthesize(donor_subject, s.duration_s, s.seed ^ 0xD00D)
            });
            counts.synth_calls += 2;
            let window_ms = (s.config.window_s * 1000.0) as u64;
            black_box(tr.time("wiot.attacker.materialize", d, None, || {
                wave.class.materialize(&victim_live, &donor, window_ms)
            }));
        }

        let live = tr.time("physio_sim.synth.live", d, None, || {
            Record::synthesize_profiled(subject, s.duration_s, s.seed ^ 0x11FE, s.synth)
        });
        counts.synth_calls += 1;

        let (mut ecg, mut abp) = tr.time("wiot.sensor.poll", d, None, || {
            (
                SensorDevice::ecg(&live, s.chunk_s),
                SensorDevice::abp(&live, s.chunk_s),
            )
        });
        let mut attacker = s.attack.as_ref().map(|a| {
            tr.time("wiot.attacker.materialize", d, None, || {
                Attacker::new(
                    a.mode.clone(),
                    (a.start_s * 1000.0) as u64,
                    (a.end_s * 1000.0) as u64,
                    s.seed ^ 0xA77,
                )
            })
        });
        let config = channel_config(s);
        let mut links = [
            Link::new(config.clone(), s.seed ^ 0xC41, s.arq)?,
            Link::new(config, s.seed ^ 0xC42, s.arq)?,
        ];
        let mut persist = if s.persist {
            Some(Persistence::new(s.version, p.deployed.clone())?)
        } else {
            None
        };
        let chunk_ms = (s.chunk_s * 1000.0) as u64;
        let window_ms = (s.config.window_s * 1000.0) as u64;
        if let Some(pst) = persist.as_mut() {
            tr.time("wiot.persist.commit", d, None, || pst.commit(0, 0))?;
            counts.commits += 1;
            counts.commit_bytes += pst.snapshot().encoded_len() as u64;
        }

        let mut sent = [Vec::new(), Vec::new()];
        let mut now_ms = 0u64;
        loop {
            let pe = tr.time("wiot.sensor.poll", d, None, || ecg.poll());
            let pa = tr.time("wiot.sensor.poll", d, None, || abp.poll());
            if pe.is_none() && pa.is_none() {
                break;
            }
            for (i, packet) in [pe, pa].into_iter().enumerate() {
                let Some(mut packet) = packet else { continue };
                counts.sensor_packets += 1;
                if let (0, Some(att)) = (i, attacker.as_mut()) {
                    packet = tr.time("wiot.attacker.intercept", d, None, || {
                        att.intercept(now_ms, packet, live.fs)
                    });
                }
                sent[i].push(packet.clone());
                tr.time("wiot.link", d, None, || links[i].send(now_ms, packet));
            }
            for link in links.iter_mut() {
                counts.delivered += tr.time("wiot.link", d, None, || link.pump(now_ms))? as u64;
            }
            if let Some(pst) = persist.as_mut() {
                let windows = u32::try_from(now_ms / window_ms).unwrap_or(u32::MAX);
                tr.time("wiot.persist.commit", d, None, || pst.commit(windows, 0))?;
                counts.commits += 1;
                counts.commit_bytes += pst.snapshot().encoded_len() as u64;
            }
            now_ms += chunk_ms;
        }
        let mut drain = 0;
        while !links.iter().all(Link::idle) && drain < 1_000 {
            now_ms += chunk_ms;
            for link in links.iter_mut() {
                counts.delivered += tr.time("wiot.link", d, None, || link.pump(now_ms))? as u64;
            }
            drain += 1;
        }
        for link in &links {
            link.record(counts);
        }
        counts.intercepted += attacker.as_ref().map_or(0, Attacker::hijacked_packets);

        dispatch_replay(d, s, p.deployed, &live, &sent, tr, counts)?;
    }
    Ok(())
}

/// The SIFT stages and the Amulet dispatch on every window the sensors
/// produced, through an OS built the way the base station builds it.
/// The station extracts each window's features for the uplink and
/// posts them with the window, so the dispatch span covers the app's
/// peak check, classification and the heart-rate app.
fn dispatch_replay(
    d: usize,
    s: &Scenario,
    deployed: &DetectorModel,
    live: &Record,
    sent: &[Vec<SensorPacket>; 2],
    tr: &mut Tracer,
    counts: &mut Counts,
) -> BenchResult<()> {
    let cfg = &s.config;
    let app = SiftApp::new(s.version, deployed.clone(), cfg.clone())?;
    let hr = HeartRateApp::with_sample_rate(cfg.fs);
    let image = FirmwareImage::build(
        vec![app.resource_spec(), hr.resource_spec()],
        &ResourceProfiler::default(),
    )?;
    let mut os = AmuletOs::new();
    os.install(&image, vec![Box::new(app), Box::new(hr)])?;

    let window_len = cfg.window_samples();
    let chunk_len = (s.chunk_s * cfg.fs).round() as usize;
    let per_window = window_len / chunk_len.max(1);
    let windows = sent[0].len().min(sent[1].len()) / per_window.max(1);
    for w in 0..windows {
        let range = w * per_window..(w + 1) * per_window;
        let (ecg, r_peaks) = join(&sent[0][range.clone()], chunk_len);
        let (abp, sys_peaks) = join(&sent[1][range], chunk_len);
        let snippet = Snippet::new(ecg, abp, r_peaks, sys_peaks)?;

        let start = w * window_len;
        let window = live.slice(start, (start + window_len).min(live.len()));
        black_box(tr.time("sift.stage.filter", d, None, || {
            Snippet::from_record(&window)
        }))
        .ok();
        black_box(tr.time("sift.stage.peaks", d, None, || snippet.paired_peaks()));
        let features = tr.time("sift.stage.features", d, None, || {
            extract_amulet_f32(s.version, &snippet, cfg)
        });
        let event = match features {
            Ok(f) => {
                black_box(tr.time("sift.stage.classify", d, None, || deployed.score_f32(&f)));
                AmuletEvent::SnippetScored(snippet, f)
            }
            Err(_) => AmuletEvent::SnippetReady(snippet),
        };
        tr.time("amulet.dispatch", d, None, || {
            os.post(event);
            os.run_until_idle()
        })?;
        counts.dispatched += 1;
    }
    Ok(())
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// One per-layer metric of one repetition.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// For ratios: base count and what it counts.
    pub base: Option<(f64, &'static str)>,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        value,
        unit,
        base: None,
    }
}

fn with_base(mut metric: LayerMetric, count: f64, what: &'static str) -> LayerMetric {
    metric.base = Some((count, what));
    metric
}

/// Per-run facts every repetition shares.
struct RunFacts {
    enroll_calls: u64,
    enroll_busy_s: f64,
    pending_high_water: usize,
    window_cap: usize,
}

/// Wall times of one repetition's three runs over the same devices.
struct Walls {
    /// The engine at 1 worker.
    engine_s: f64,
    /// The device pass without spans.
    untraced_s: f64,
    /// The device pass with spans.
    traced_s: f64,
}

fn layer_metrics(tr: &Tracer, c: &Counts, facts: &RunFacts, walls: &Walls) -> Vec<LayerMetric> {
    let device_busy = tr.busy_s("wiot.device");
    let synth_live = tr.busy_s("physio_sim.synth.live");
    let synth = tr.busy_s("physio_sim.synth") + synth_live;
    let poll = tr.busy_s("wiot.sensor.poll");
    let materialize = tr.busy_s("wiot.attacker.materialize");
    let intercept = tr.busy_s("wiot.attacker.intercept");
    let link = tr.busy_s("wiot.link");
    let commit = tr.busy_s("wiot.persist.commit");
    let features = tr.busy_s("sift.stage.features");
    let dispatch = tr.busy_s("amulet.dispatch");
    let sink = tr.busy_s("ml.sink.score");
    let swap = tr.busy_s("sift.checkpoint.swap");
    let isolated =
        synth + poll + materialize + intercept + link + commit + features + dispatch + sink + swap;
    let mut ticks = tr.durations("wiot.device.step");
    let mut devices = tr.durations("wiot.device");
    let mut dispatches = tr.durations("amulet.dispatch");
    let n_ticks = ticks.len() as f64;
    let n_devices = devices.len() as f64;
    vec![
        m("physio_sim.synth.calls", c.synth_calls as f64, "count"),
        m("physio_sim.synth.busy_s", synth, "s"),
        with_base(
            m(
                "physio_sim.synth.share",
                synth / device_busy.max(f64::MIN_POSITIVE),
                "ratio",
            ),
            device_busy,
            "device busy s",
        ),
        m("sift.enroll.calls", facts.enroll_calls as f64, "count"),
        m("sift.enroll.busy_s", facts.enroll_busy_s, "s"),
        m(
            "wiot.device.build_self_s",
            tr.busy_s("wiot.device.build") - synth_live,
            "s",
        ),
        m("wiot.device.ticks", n_ticks, "count"),
        m(
            "wiot.device.tick_busy_s",
            tr.busy_s("wiot.device.step"),
            "s",
        ),
        m(
            "wiot.device.tick_us_p50",
            1e6 * percentile(&mut ticks, 0.50),
            "us",
        ),
        m(
            "wiot.device.tick_us_p99",
            1e6 * percentile(&mut ticks, 0.99),
            "us",
        ),
        with_base(
            m(
                "wiot.device.busy_ms_p50",
                1e3 * percentile(&mut devices, 0.50),
                "ms",
            ),
            n_devices,
            "devices",
        ),
        with_base(
            m(
                "wiot.device.busy_ms_p99",
                1e3 * percentile(&mut devices, 0.99),
                "ms",
            ),
            n_devices,
            "devices",
        ),
        m("wiot.sensor.packets", c.sensor_packets as f64, "count"),
        m("wiot.sensor.poll_busy_s", poll, "s"),
        m("wiot.attacker.materialize_busy_s", materialize, "s"),
        m(
            "wiot.attacker.intercepted_packets",
            c.intercepted as f64,
            "count",
        ),
        m("wiot.attacker.intercept_busy_s", intercept, "s"),
        m("wiot.channel.packets", c.channel_sent as f64, "count"),
        m("wiot.channel.lost", c.channel_lost as f64, "count"),
        m("wiot.transport.retransmits", c.retransmits as f64, "count"),
        m("wiot.transport.give_ups", c.give_ups as f64, "count"),
        with_base(
            m(
                "wiot.transport.useful_ratio",
                ratio(c.delivered as f64, c.channel_sent as usize),
                "ratio",
            ),
            c.channel_sent as f64,
            "packets sent",
        ),
        m("wiot.link.busy_s", link, "s"),
        m("wiot.persist.commits", c.commits as f64, "count"),
        m("wiot.persist.bytes", c.commit_bytes as f64, "bytes"),
        m("wiot.persist.commit_busy_s", commit, "s"),
        m("amulet.dispatch.windows", c.dispatched as f64, "count"),
        m("amulet.dispatch.busy_s", dispatch, "s"),
        m(
            "amulet.dispatch.us_p50",
            1e6 * percentile(&mut dispatches, 0.50),
            "us",
        ),
        m(
            "amulet.dispatch.us_p99",
            1e6 * percentile(&mut dispatches, 0.99),
            "us",
        ),
        with_base(
            m(
                "amulet.cycles_per_window",
                ratio(c.active_cycles, c.windows_resolved as usize),
                "cycles/window",
            ),
            c.windows_resolved as f64,
            "windows resolved",
        ),
        m("sift.stage.filter_s", tr.busy_s("sift.stage.filter"), "s"),
        m("sift.stage.peaks_s", tr.busy_s("sift.stage.peaks"), "s"),
        m("sift.stage.features_s", features, "s"),
        m(
            "sift.stage.classify_s",
            tr.busy_s("sift.stage.classify"),
            "s",
        ),
        m("ml.sink.windows", c.sink_windows as f64, "count"),
        m("ml.sink.score_busy_s", sink, "s"),
        m("sift.checkpoint.swaps", c.swaps as f64, "count"),
        m("sift.checkpoint.bytes", c.swap_bytes as f64, "bytes"),
        m("sift.checkpoint.busy_s", swap, "s"),
        m(
            "wiot.engine.residual_s",
            walls.engine_s - walls.untraced_s,
            "s",
        ),
        m(
            "wiot.engine.pending_high_water",
            facts.pending_high_water as f64,
            "count",
        ),
        m("wiot.engine.window_cap", facts.window_cap as f64, "count"),
        with_base(
            m(
                "trace.coverage",
                isolated / device_busy.max(f64::MIN_POSITIVE),
                "ratio",
            ),
            device_busy,
            "device busy s",
        ),
        with_base(
            m(
                "trace.overhead",
                walls.traced_s / walls.untraced_s.max(f64::MIN_POSITIVE),
                "ratio",
            ),
            walls.untraced_s,
            "untraced device pass s",
        ),
    ]
}

/// Outcome of a traced run.
pub struct TraceOutcome {
    /// The traced instance.
    pub instance: Instance,
    /// Per-layer metrics, medians over repetitions.
    pub metrics: Vec<LayerMetric>,
    /// Repetitions made.
    pub reps: usize,
    /// Device replays attempted.
    pub attempted: u64,
    /// Device replays that failed or disagreed with the engine.
    pub failed: u64,
    /// Named checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// The last repetition's spans.
    pub tracer: Tracer,
}

/// Compare the device pass's rows with the resident engine's rows.
/// Returns the devices that disagree.
pub fn mismatched_devices(rows: &[DeviceRow], engine: &[DeviceSummary]) -> Vec<usize> {
    let mut bad: Vec<usize> = rows
        .iter()
        .zip(engine)
        .filter(|(r, e)| **r != DeviceRow::of_summary(e))
        .map(|(r, _)| r.device)
        .collect();
    bad.extend(engine.len().min(rows.len())..engine.len().max(rows.len()));
    bad
}

/// Trace `inst` for about `seconds`.
pub fn run_traced(inst: Instance, seconds: f64) -> BenchResult<TraceOutcome> {
    let workload = inst.workload;
    let one_worker = Instance { threads: 1, ..inst };
    let mut setup = Tracer::new();
    let enrolled = workload::enroll(&inst, &mut setup)?;
    let prov = Provisioner::new(&inst, &enrolled);

    let reference = workload::reference_rows(&one_worker, &enrolled)?;
    let (pending_high_water, window_cap) = match workload {
        Workload::FleetXlTurbo => workload::run_provisioned(&inst, &prov)?
            .slab_window
            .unwrap_or_default(),
        _ => (inst.devices, inst.devices),
    };
    let facts = RunFacts {
        enroll_calls: setup.spans().len() as u64,
        enroll_busy_s: setup.busy_s("sift.enroll"),
        pending_high_water,
        window_cap,
    };

    let started = Instant::now();
    let mut reps: Vec<Vec<LayerMetric>> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut checks = Vec::new();
    let mut tracer = Tracer::new();
    while reps.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let engine = workload::run_provisioned(&one_worker, &prov)?;
        let engine_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        device_pass(
            &inst,
            &prov,
            &mut Tracer::disabled(),
            &mut Counts::default(),
        )?;
        let untraced_s = t.elapsed().as_secs_f64();

        let mut tr = Tracer::new();
        let mut counts = Counts::default();
        let t = Instant::now();
        let rows = device_pass(&inst, &prov, &mut tr, &mut counts);
        let walls = Walls {
            engine_s,
            untraced_s,
            traced_s: t.elapsed().as_secs_f64(),
        };
        attempted += inst.devices as u64;
        let rows = match rows {
            Ok(rows) => rows,
            Err(e) => {
                failed += inst.devices as u64;
                checks.push((format!("device pass: {e}"), false));
                break;
            }
        };
        if reps.is_empty() {
            let bad = mismatched_devices(&rows, &reference);
            failed += bad.len() as u64;
            checks.push((
                format!(
                    "traced rows reproduce the per-device rows of {} \
                     ({} of {} devices differ)",
                    workload::reference_entry_point(workload),
                    bad.len(),
                    rows.len()
                ),
                bad.is_empty(),
            ));
            let sim = workload::Simulated::of(&engine.report);
            let traced_cycles = ratio(counts.active_cycles, counts.windows_resolved as usize);
            checks.push((
                format!(
                    "amulet.cycles_per_window {traced_cycles} equals the engine's \
                     sim_cycles_per_window {} on the traced instance",
                    sim.cycles_per_window
                ),
                traced_cycles == sim.cycles_per_window
                    && counts.windows_resolved as usize == windows_resolved(&engine.report),
            ));
        }
        layer_pass(&inst, &prov, &mut tr, &mut counts)?;
        reps.push(layer_metrics(&tr, &counts, &facts, &walls));
        tracer = tr;
    }
    let metrics = median_metrics(&reps);
    Ok(TraceOutcome {
        instance: inst,
        metrics,
        reps: reps.len(),
        attempted,
        failed,
        checks,
        tracer,
    })
}

/// Per-metric median over repetitions (metric order is fixed).
fn median_metrics(reps: &[Vec<LayerMetric>]) -> Vec<LayerMetric> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, metric)| {
            let mut values: Vec<f64> = reps.iter().map(|r| r[i].value).collect();
            LayerMetric {
                value: crate::median(&mut values),
                ..metric.clone()
            }
        })
        .collect()
}
