//! LED-display mock.
//!
//! The paper's detector "will generate an alert on the LED screen of the
//! Amulet platform", and — for want of a debugger — the authors also
//! debugged by printing variable values to this screen (Insight #3).
//! This mock records everything written so tests and the desktop
//! "simulator that emulates the screen writing" the paper wishes for can
//! assert on it.

/// Severity of a display line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// Normal status output.
    Info,
    /// Security alert (rendered inverted/flashing on the device).
    Alert,
    /// Developer debug output (Insight #3's printf-on-screen).
    Debug,
}

/// One rendered line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisplayLine {
    /// OS uptime when written, in ms.
    pub at_ms: u64,
    /// Which app wrote it.
    pub app: String,
    /// Line severity.
    pub severity: Severity,
    /// The text shown.
    pub text: String,
}

/// The screen: a bounded scrollback of rendered lines.
#[derive(Debug, Clone, Default)]
pub struct Display {
    lines: Vec<DisplayLine>,
    writes: u64,
}

impl Display {
    /// Fresh, blank display.
    pub fn new() -> Self {
        Self::default()
    }

    /// Render one line.
    pub fn write(&mut self, at_ms: u64, app: &str, severity: Severity, text: impl Into<String>) {
        self.writes += 1;
        self.lines.push(DisplayLine {
            at_ms,
            app: app.to_string(),
            severity,
            text: text.into(),
        });
        // The physical screen shows a handful of lines; keep a generous
        // scrollback for assertions but bound memory.
        if self.lines.len() > 10_000 {
            self.lines.drain(..5_000);
        }
    }

    /// All retained lines, oldest first.
    pub fn lines(&self) -> &[DisplayLine] {
        &self.lines
    }

    /// Lines of a given severity.
    #[cfg(test)]
    pub fn lines_with(&self, severity: Severity) -> impl Iterator<Item = &DisplayLine> + '_ {
        self.lines.iter().filter(move |l| l.severity == severity)
    }

    /// Number of alert lines currently retained.
    #[cfg(test)]
    pub fn alert_count(&self) -> usize {
        self.lines_with(Severity::Alert).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_and_filter() {
        let mut d = Display::new();
        d.write(10, "sift", Severity::Info, "hr 64");
        d.write(20, "sift", Severity::Alert, "ECG ALTERED");
        d.write(30, "hr", Severity::Debug, "x=1.5");
        assert_eq!(d.lines().len(), 3);
        assert_eq!(d.alert_count(), 1);
        assert_eq!(d.lines_with(Severity::Debug).count(), 1);
        assert_eq!(d.writes, 3);
    }

    #[test]
    fn scrollback_bounded() {
        let mut d = Display::new();
        for i in 0..10_001 {
            d.write(i, "app", Severity::Info, "line");
        }
        assert!(d.lines().len() <= 10_000);
        assert_eq!(d.writes, 10_001);
    }

    #[test]
    fn lines_keep_metadata() {
        let mut d = Display::new();
        d.write(42, "sift", Severity::Alert, "alert!");
        let l = &d.lines()[0];
        assert_eq!(l.at_ms, 42);
        assert_eq!(l.app, "sift");
        assert_eq!(l.text, "alert!");
    }
}
