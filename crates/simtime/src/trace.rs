//! Operation tracing with Chrome trace-event export.
//!
//! The simulated runtimes can record every operation (kernel launch, DMA
//! copy, synchronize, message send) as a timed span on a named track.
//! [`Trace::to_chrome_json`] emits the `chrome://tracing` / Perfetto
//! "trace event" JSON format, so a simulated benchmark run can be inspected
//! on the same timeline tooling used for real GPU profiles.

use std::fmt::Write as _;

use crate::time::{SimDuration, SimTime};

/// One completed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation name (e.g. `launch`, `memcpy h2d 128B`).
    pub name: String,
    /// Category (e.g. `gpu`, `mpi`, `wire`).
    pub category: &'static str,
    /// Track (thread row in the viewer): e.g. `gpu0/stream1`, `rank0`.
    pub track: String,
    /// Span start.
    pub start: SimTime,
    /// Span duration.
    pub duration: SimDuration,
}

/// A collection of spans on the virtual timeline.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Record a span.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        category: &'static str,
        track: impl Into<String>,
        start: SimTime,
        duration: SimDuration,
    ) {
        self.spans.push(Span {
            name: name.into(),
            category,
            track: track.into(),
            start,
            duration,
        });
    }

    /// Recorded spans in insertion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total busy time per track, sorted by track name.
    pub fn busy_by_track(&self) -> Vec<(String, SimDuration)> {
        let mut map: std::collections::BTreeMap<String, SimDuration> = Default::default();
        for s in &self.spans {
            let e = map.entry(s.track.clone()).or_insert(SimDuration::ZERO);
            *e += s.duration;
        }
        map.into_iter().collect()
    }

    /// Emit the Chrome trace-event JSON array (complete events, `ph: "X"`,
    /// microsecond timestamps).
    pub fn to_chrome_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => vec!['\\', '"'],
                    '\\' => vec!['\\', '\\'],
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                    c => vec![c],
                })
                .collect()
        }
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "  {{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":\"{}\",\"ts\":{:.3},\"dur\":{:.3}}}",
                esc(&s.name),
                esc(s.category),
                esc(&s.track),
                s.start.as_us(),
                s.duration.as_us(),
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    #[test]
    fn records_and_reports() {
        let mut tr = Trace::new();
        assert!(tr.is_empty());
        tr.record(
            "launch",
            "gpu",
            "gpu0/stream0",
            t(1.0),
            SimDuration::from_us(2.0),
        );
        tr.record(
            "sync",
            "gpu",
            "gpu0/stream0",
            t(3.0),
            SimDuration::from_us(0.5),
        );
        tr.record("send", "mpi", "rank0", t(0.0), SimDuration::from_us(0.1));
        assert_eq!(tr.len(), 3);
        let busy = tr.busy_by_track();
        assert_eq!(busy.len(), 2);
        assert_eq!(busy[0].0, "gpu0/stream0");
        assert!((busy[0].1.as_us() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let mut tr = Trace::new();
        tr.record(
            "a \"quoted\"",
            "gpu",
            "t\\0",
            t(1.0),
            SimDuration::from_us(2.0),
        );
        tr.record("b", "mpi", "t1", t(2.0), SimDuration::from_us(1.0));
        let j = tr.to_chrome_json();
        assert!(j.starts_with('['));
        assert!(j.ends_with(']'));
        assert_eq!(j.matches("\"ph\":\"X\"").count(), 2);
        // Timestamps and durations are µs with three decimals.
        let first = j.lines().nth(1).expect("first span");
        assert!(first.ends_with("\"ts\":1.000,\"dur\":2.000},"), "{first}");
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("t\\\\0"));
        // One comma between two events.
        assert_eq!(j.matches("},").count(), 1);
    }

    #[test]
    fn empty_trace_serializes_to_an_empty_array() {
        assert_eq!(Trace::new().to_chrome_json(), "[\n]");
    }
}
