//! AmuletOS: the application container and event dispatcher.
//!
//! The OS owns the device's display, battery meter, memory model and
//! event queue. Apps are installed from a statically checked
//! [`FirmwareImage`] and then receive events one at a time,
//! run-to-completion, in installation order — exactly the concurrency
//! model of the real platform (no threads, no preemption).

use crate::display::Display;
use crate::energy::{EnergyMeter, EnergyModel};
use crate::event::{AmuletEvent, EventQueue};
use crate::machine::{Alert, App, AppContext};
use crate::memory::MemoryModel;
use crate::toolchain::FirmwareImage;
use crate::AmuletError;
use telemetry::Telemetry;

/// The operating system instance for one simulated device.
pub struct AmuletOs {
    clock_ms: u64,
    apps: Vec<Box<dyn App>>,
    queue: EventQueue,
    display: Display,
    meter: EnergyMeter,
    energy_model: EnergyModel,
    memory: MemoryModel,
    alerts: Vec<Alert>,
    dispatched: u64,
    telemetry: Telemetry,
}

impl std::fmt::Debug for AmuletOs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmuletOs")
            .field("clock_ms", &self.clock_ms)
            .field("apps", &self.apps.iter().map(|a| a.name().to_string()).collect::<Vec<_>>())
            .field("queued", &self.queue.len())
            .field("dispatched", &self.dispatched)
            .finish()
    }
}

impl AmuletOs {
    /// Boot an OS with the default energy model and device memory.
    pub fn new() -> Self {
        Self::with_energy_model(EnergyModel::default())
    }

    /// Boot with an explicit energy model.
    pub fn with_energy_model(energy_model: EnergyModel) -> Self {
        Self {
            clock_ms: 0,
            apps: Vec::new(),
            queue: EventQueue::default(),
            display: Display::new(),
            meter: EnergyMeter::new(),
            energy_model,
            memory: MemoryModel::default(),
            alerts: Vec::new(),
            dispatched: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry sink; handlers dispatched from now on record
    /// stage spans through [`AppContext::charge_stage`]. Defaults to
    /// disabled, in which case dispatch constructs contexts without a
    /// sink and recording is a no-op.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The OS telemetry sink.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable access to the OS telemetry sink (for recording
    /// OS-adjacent events such as transport faults).
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Install a statically checked firmware image together with the app
    /// instances implementing it.
    ///
    /// # Errors
    ///
    /// Returns [`AmuletError::StaticCheckFailed`] if the image's specs do
    /// not match the provided apps, [`AmuletError::DuplicateApp`] for a
    /// name collision with an installed app, and memory errors from
    /// flashing.
    pub fn install(
        &mut self,
        image: &FirmwareImage,
        apps: Vec<Box<dyn App>>,
    ) -> Result<(), AmuletError> {
        self.check_install(image, &apps)?;
        image.flash(&mut self.memory)?;
        self.apps.extend(apps);
        Ok(())
    }

    /// Install an add-on image next to an already-installed base image.
    /// Same static checks as [`AmuletOs::install`], but only the apps'
    /// own footprint is charged — the system image is already resident.
    ///
    /// # Errors
    ///
    /// Same as [`AmuletOs::install`].
    pub fn install_addon(
        &mut self,
        image: &FirmwareImage,
        apps: Vec<Box<dyn App>>,
    ) -> Result<(), AmuletError> {
        self.check_install(image, &apps)?;
        image.flash_addon(&mut self.memory)?;
        self.apps.extend(apps);
        Ok(())
    }

    fn check_install(
        &self,
        image: &FirmwareImage,
        apps: &[Box<dyn App>],
    ) -> Result<(), AmuletError> {
        if image.specs().len() != apps.len()
            || !image
                .specs()
                .iter()
                .zip(apps)
                .all(|(s, a)| s.name == a.name())
        {
            return Err(AmuletError::StaticCheckFailed {
                reason: "firmware image does not match the provided app instances".to_string(),
            });
        }
        for a in apps {
            if self.apps.iter().any(|b| b.name() == a.name()) {
                return Err(AmuletError::DuplicateApp {
                    name: a.name().to_string(),
                });
            }
        }
        Ok(())
    }

    /// Queue an event for dispatch. Returns `false` if the queue is full
    /// (the event is dropped, as on the device).
    pub fn post(&mut self, event: AmuletEvent) -> bool {
        self.queue.post(event)
    }

    /// Dispatch one queued event to every app, run-to-completion.
    /// Returns `Ok(true)` if an event was processed.
    ///
    /// # Errors
    ///
    /// Returns [`AmuletError::BatteryExhausted`] once the battery is
    /// empty.
    pub fn step(&mut self) -> Result<bool, AmuletError> {
        self.meter.check_battery(&self.energy_model)?;
        let Some(event) = self.queue.pop() else {
            return Ok(false);
        };
        self.dispatched += 1;
        let mut followups = Vec::new();
        for app in &mut self.apps {
            let mut ctx = AppContext::new(
                self.clock_ms,
                app.name(),
                &mut self.display,
                &mut self.meter,
                &self.energy_model,
                &mut self.alerts,
            )
            .with_telemetry(&mut self.telemetry);
            app.handle(&event, &mut ctx);
            followups.extend(ctx.take_posted());
        }
        for e in followups {
            self.queue.post(e);
        }
        Ok(true)
    }

    /// Dispatch until the queue drains; returns the number of events
    /// processed.
    ///
    /// # Errors
    ///
    /// Propagates [`AmuletError::BatteryExhausted`].
    pub fn run_until_idle(&mut self) -> Result<usize, AmuletError> {
        let mut n = 0;
        while self.step()? {
            n += 1;
        }
        Ok(n)
    }

    /// Advance the wall clock by `ms`, charging baseline (sleep) current.
    pub fn advance_time(&mut self, ms: u64) {
        self.clock_ms += ms;
        self.meter
            .charge_sleep(ms as f64 / 1000.0, &self.energy_model);
    }

    /// OS uptime in ms.
    pub fn now_ms(&self) -> u64 {
        self.clock_ms
    }

    /// All alerts raised so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// The screen.
    pub fn display(&self) -> &Display {
        &self.display
    }

    /// The battery meter.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// The energy model in force.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    /// The memory model (post-flash usage).
    pub fn memory(&self) -> &MemoryModel {
        &self.memory
    }

    /// Total events dispatched.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// A mergeable usage snapshot of this device's dynamic meters (see
    /// [`crate::profiler::UsageSnapshot`]); the fleet engine folds one
    /// per device into an aggregate.
    pub fn usage_snapshot(&self) -> crate::profiler::UsageSnapshot {
        crate::profiler::UsageSnapshot::single(
            self.meter.active_cycles(),
            self.meter.consumed_mah(),
            self.meter.battery_fraction_left(&self.energy_model),
            self.dispatched,
        )
    }

    /// Names of installed apps, in dispatch order.
    pub fn app_names(&self) -> Vec<&str> {
        self.apps.iter().map(|a| a.name()).collect()
    }

    /// Current state of a named app.
    ///
    /// # Errors
    ///
    /// Returns [`AmuletError::UnknownApp`] if no app has that name.
    pub fn app_state(&self, name: &str) -> Result<&'static str, AmuletError> {
        self.apps
            .iter()
            .find(|a| a.name() == name)
            .map(|a| a.current_state())
            .ok_or_else(|| AmuletError::UnknownApp {
                name: name.to_string(),
            })
    }

    /// Replace the entire firmware image — the real Amulet's only way to
    /// change the app set ("the Amulet device has to be flashed every
    /// time when switching to another version of SIFT is needed",
    /// Insight #4). Device state (clock, battery meter, display
    /// scrollback, alert log) persists across the reflash; memory
    /// reservations are rebuilt from the new image.
    ///
    /// # Errors
    ///
    /// Returns [`AmuletError::StaticCheckFailed`] if the image does not
    /// match the provided apps, and propagates flash errors (leaving the
    /// previous installation untouched in that case).
    pub fn reflash(
        &mut self,
        image: &FirmwareImage,
        apps: Vec<Box<dyn App>>,
    ) -> Result<(), AmuletError> {
        if image.specs().len() != apps.len()
            || !image
                .specs()
                .iter()
                .zip(&apps)
                .all(|(s, a)| s.name == a.name())
        {
            return Err(AmuletError::StaticCheckFailed {
                reason: "firmware image does not match the provided app instances".to_string(),
            });
        }
        let mut fresh = MemoryModel::new(
            self.memory.fram().capacity(),
            self.memory.sram().capacity(),
        );
        image.flash(&mut fresh)?;
        self.memory = fresh;
        self.apps = apps;
        self.queue = EventQueue::default();
        Ok(())
    }

    /// Replace the in-memory instance of an installed app with a fresh
    /// one of the same name — the recovery path after a power cycle:
    /// the firmware (and therefore the memory map, reservations, and
    /// meters) is unchanged in FRAM, but the app's volatile state
    /// machine is rebuilt from its checkpoint. Touches neither the
    /// memory model, the energy meter, nor the event queue.
    ///
    /// # Errors
    ///
    /// Returns [`AmuletError::StaticCheckFailed`] if `app` is not named
    /// `name`, or [`AmuletError::UnknownApp`] if no app has that name.
    pub fn replace_app(&mut self, name: &str, app: Box<dyn App>) -> Result<(), AmuletError> {
        if app.name() != name {
            return Err(AmuletError::StaticCheckFailed {
                reason: "replacement app instance does not match the installed name".to_string(),
            });
        }
        let slot = self
            .apps
            .iter_mut()
            .find(|a| a.name() == name)
            .ok_or_else(|| AmuletError::UnknownApp {
                name: name.to_string(),
            })?;
        *slot = app;
        Ok(())
    }

    /// Reserve the nonvolatile checkpoint region in FRAM. The region is
    /// static firmware real estate (like the slots' headers on the real
    /// device), so it is charged to the memory model once, up front.
    ///
    /// # Errors
    ///
    /// Returns [`AmuletError::OutOfMemory`] if the firmware image left
    /// less than `bytes` of FRAM free.
    pub fn reserve_checkpoint_region(&mut self, bytes: usize) -> Result<(), AmuletError> {
        self.memory.fram_mut().reserve(bytes)
    }
}

impl Default for AmuletOs {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{AppResourceSpec, ResourceProfiler};
    use crate::display::Severity;

    struct EchoApp;

    impl App for EchoApp {
        fn name(&self) -> &str {
            "echo"
        }
        fn resource_spec(&self) -> AppResourceSpec {
            AppResourceSpec {
                name: "echo".into(),
                fram_code_bytes: 64,
                fram_data_bytes: 0,
                sram_peak_bytes: 8,
                cycles_per_period: 100.0,
                period_s: 1.0,
                libs: vec![],
            }
        }
        fn current_state(&self) -> &'static str {
            "idle"
        }
        fn handle(&mut self, event: &AmuletEvent, ctx: &mut AppContext<'_>) {
            ctx.display(Severity::Info, event.kind_name());
            ctx.charge_cycles(100.0);
        }
    }

    fn os_with_echo() -> AmuletOs {
        let mut os = AmuletOs::new();
        let image = FirmwareImage::build(vec![EchoApp.resource_spec()], &ResourceProfiler::default())
            .unwrap();
        os.install(&image, vec![Box::new(EchoApp)]).unwrap();
        os
    }

    #[test]
    fn install_and_dispatch() {
        let mut os = os_with_echo();
        assert_eq!(os.app_names(), vec!["echo"]);
        os.post(AmuletEvent::ButtonPress);
        os.post(AmuletEvent::Tick { ms: 0 });
        assert_eq!(os.run_until_idle().unwrap(), 2);
        assert_eq!(os.display().lines().len(), 2);
        assert_eq!(os.dispatched(), 2);
    }

    #[test]
    fn step_on_empty_queue_is_noop() {
        let mut os = os_with_echo();
        assert!(!os.step().unwrap());
    }

    #[test]
    fn mismatched_image_rejected() {
        let mut os = AmuletOs::new();
        let image = FirmwareImage::build(vec![EchoApp.resource_spec()], &ResourceProfiler::default())
            .unwrap();
        assert!(matches!(
            os.install(&image, vec![]),
            Err(AmuletError::StaticCheckFailed { .. })
        ));
    }

    #[test]
    fn duplicate_install_rejected() {
        let mut os = os_with_echo();
        let image = FirmwareImage::build(vec![EchoApp.resource_spec()], &ResourceProfiler::default())
            .unwrap();
        assert!(matches!(
            os.install(&image, vec![Box::new(EchoApp)]),
            Err(AmuletError::DuplicateApp { .. })
        ));
    }

    #[test]
    fn advance_time_charges_sleep() {
        let mut os = os_with_echo();
        let before = os.meter().consumed_mah();
        os.advance_time(3_600_000); // one hour
        assert!(os.meter().consumed_mah() > before);
        assert_eq!(os.now_ms(), 3_600_000);
    }

    #[test]
    fn battery_exhaustion_stops_dispatch() {
        let mut os = AmuletOs::with_energy_model(EnergyModel {
            battery_mah: 1e-9,
            ..EnergyModel::default()
        });
        let image = FirmwareImage::build(vec![EchoApp.resource_spec()], &ResourceProfiler::default())
            .unwrap();
        os.install(&image, vec![Box::new(EchoApp)]).unwrap();
        os.advance_time(10_000);
        os.post(AmuletEvent::ButtonPress);
        assert_eq!(os.step(), Err(AmuletError::BatteryExhausted));
    }

    #[test]
    fn app_state_lookup() {
        let os = os_with_echo();
        assert_eq!(os.app_state("echo").unwrap(), "idle");
        assert!(matches!(
            os.app_state("nope"),
            Err(AmuletError::UnknownApp { .. })
        ));
    }

    #[test]
    fn replace_app_swaps_instance_without_touching_meters() {
        let mut os = os_with_echo();
        os.post(AmuletEvent::ButtonPress);
        os.run_until_idle().unwrap();
        let fram_used = os.memory().fram().used();
        let consumed = os.meter().consumed_mah();
        let dispatched = os.dispatched();
        os.replace_app("echo", Box::new(EchoApp)).unwrap();
        assert_eq!(os.app_names(), vec!["echo"]);
        assert_eq!(os.memory().fram().used(), fram_used);
        assert_eq!(os.meter().consumed_mah(), consumed);
        assert_eq!(os.dispatched(), dispatched);
    }

    #[test]
    fn replace_app_rejects_wrong_or_unknown_name() {
        let mut os = os_with_echo();
        assert!(matches!(
            os.replace_app("other", Box::new(EchoApp)),
            Err(AmuletError::StaticCheckFailed { .. })
        ));
        assert!(matches!(
            AmuletOs::new().replace_app("echo", Box::new(EchoApp)),
            Err(AmuletError::UnknownApp { .. })
        ));
    }

    #[test]
    fn checkpoint_region_is_charged_to_fram() {
        let mut os = os_with_echo();
        let before = os.memory().fram().used();
        os.reserve_checkpoint_region(crate::nvram::NVRAM_BYTES).unwrap();
        assert_eq!(os.memory().fram().used(), before + crate::nvram::NVRAM_BYTES);
        // A second reservation beyond capacity fails loudly.
        let free = os.memory().fram().available();
        assert!(os.reserve_checkpoint_region(free + 1).is_err());
    }

    #[test]
    fn memory_reflects_flash() {
        let os = os_with_echo();
        assert!(os.memory().fram().used() > 0);
    }

    #[test]
    fn whole_device_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<AmuletOs>();
    }

    #[test]
    fn usage_snapshot_reflects_meters() {
        let mut os = os_with_echo();
        os.post(AmuletEvent::ButtonPress);
        os.run_until_idle().unwrap();
        os.advance_time(1_000);
        let snap = os.usage_snapshot();
        assert_eq!(snap.devices, 1);
        assert!(snap.active_cycles > 0.0);
        assert!(snap.consumed_mah > 0.0);
        assert_eq!(snap.min_battery_left, snap.battery_left_sum);
        assert_eq!(snap.dispatched, os.dispatched());
    }
}
