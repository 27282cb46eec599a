//! Metric definitions and output: a human-readable summary, then the
//! result as one JSON object on the last line of standard output.

use std::time::{Duration, Instant};

use doebench::simtime::shard::global_shard_counters;

use crate::calib::{host_factor, Jiffies, Timing, NOMINAL_S};
use crate::daemon::CellCounts;
use crate::stats::{highest_supported, samples_beyond, Samples, Tally};
use crate::trace::{secs, Attribution, HARNESS};

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Sample count and other context for the human summary.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// What one workload run reports.
pub struct RunResult {
    /// Every output check and the traffic cross-check passed.
    pub correct: bool,
    /// Operations attempted and failed in the measured window.
    pub tally: Tally,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Lines for the human summary.
    pub notes: Vec<String>,
}

impl RunResult {
    /// A run that could not be measured at all.
    pub fn failed(msg: String) -> RunResult {
        RunResult {
            correct: false,
            tally: Tally {
                attempted: 1,
                failed: 1,
            },
            metrics: Vec::new(),
            notes: vec![msg],
        }
    }
}

/// What one measured window produced.
pub struct Window<T> {
    /// The workload's own results.
    pub out: T,
    /// Wall time from the start to the last operation's end.
    pub seconds: f64,
    /// `simtime` sharded-engine windows run during the window.
    pub shard_windows: u64,
    /// Cross-shard events merged during the window.
    pub shard_cross_events: u64,
    /// Peak resident set when the window closed, before any output check.
    pub rss_mb: f64,
    /// Share of the host's CPU time taken by the hypervisor (steal).
    pub steal_frac: f64,
}

/// Measure `body`, which runs operations until the deadline it is given.
pub fn measure<T>(seconds: u64, body: impl FnOnce(Instant) -> T) -> Window<T> {
    let (w0, x0, _) = global_shard_counters();
    let j0 = Jiffies::now();
    let start = Instant::now();
    let out = body(start + Duration::from_secs(seconds));
    let seconds = secs(start);
    let (w1, x1, _) = global_shard_counters();
    let steal_frac = Jiffies::now().steal_since(j0);
    Window {
        out,
        seconds,
        shard_windows: w1 - w0,
        shard_cross_events: x1 - x0,
        rss_mb: peak_rss_mb(),
        steal_frac,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run. Times are rescaled to the
/// reference host (see [`crate::calib`]); the summary shows them as
/// measured too. Latencies are of operations that succeeded; throughput
/// is what `clients` closed loops would sustain at those rescaled
/// latencies: `clients` times the operations over the sum of their
/// rescaled times. Each operation is rescaled by its own thread's recent
/// factor; one factor for the whole window (the median of the kernel
/// `probes` and the window's steal), shown beside it, misses the stretches
/// in which one virtual CPU runs the kernel and the program at different
/// speeds. `rss` is the peak resident set in MiB and where it was read.
pub fn end_to_end(
    setup: &mut Timing,
    latency: &mut Timing,
    clients: usize,
    (window_s, steal): (f64, f64),
    tally: Tally,
    rss: (f64, String),
    probes: &mut Samples,
) -> Vec<Metric> {
    let n = latency.len();
    let speed = probes.median().map_or(1.0, |p| p / NOMINAL_S);
    let host = host_factor(speed, steal);
    let busy_s = latency.scaled.sum();
    let throughput = if busy_s > 0.0 {
        (clients * n) as f64 / busy_s
    } else {
        0.0
    };
    let raw_ms = |s: &mut Samples, p| s.percentile(p).map_or(0.0, |v| v * 1e3);
    let supported = match highest_supported(n, &[50, 90, 99], 10) {
        Some(p) => format!("p{p}"),
        None => "none".to_string(),
    };
    let ms = |v: Option<f64>| v.unwrap_or(0.0) * 1e3;
    let p90_note = if latency.raw.is_empty() {
        "n=0".to_string()
    } else {
        format!("n={n}, {} beyond", samples_beyond(n, 90))
    };
    vec![
        metric(
            "setup_s",
            setup.scaled.median().unwrap_or(0.0),
            "s",
            format!(
                "median of n={}; {:.6} s as measured",
                setup.len(),
                setup.raw.median().unwrap_or(0.0)
            ),
        ),
        metric(
            "latency_p50_ms",
            ms(latency.scaled.median()),
            "ms",
            format!(
                "n={n}; {:.4} ms as measured; highest percentile with 10 samples beyond: {supported}",
                raw_ms(&mut latency.raw, 50)
            ),
        ),
        metric(
            "latency_p90_ms",
            ms(latency.scaled.percentile(90)),
            "ms",
            format!("{p90_note}; {:.4} ms as measured", raw_ms(&mut latency.raw, 90)),
        ),
        metric(
            "throughput_per_s",
            throughput,
            "1/s",
            format!(
                "n={n}, {clients} client(s), {busy_s:.3} client-s rescaled; {:.3}/s as measured over {window_s:.3} s; window host factor {host:.3} (kernel {speed:.3} over {} probes, steal {:.2}%)",
                n as f64 / window_s,
                probes.len(),
                steal * 100.0
            ),
        ),
        metric("peak_rss_mb", rss.0, "MB", rss.1),
        // Shown in the summary only: a share that is 0 on a healthy run
        // cannot be bounded relative to its median. The JSON carries it
        // as `attempted` and `failed`.
        metric(
            "failed_frac",
            tally.failed_frac(),
            "ratio",
            format!("{} of {} operations", tally.failed, tally.attempted),
        ),
    ]
}

/// Metrics of the summary that the JSON result leaves out.
pub fn summary_only(name: &str) -> bool {
    name == "failed_frac"
}

/// Largest share of the traced end-to-end time the layer spans may leave
/// unattributed.
pub const RESIDUAL_LIMIT: f64 = 0.10;

/// The per-layer metrics of a traced run. Times are means per traced
/// operation, so they add up to the mean traced end-to-end time.
/// `traced` and `untraced` hold the end-to-end times of the traced
/// operations and of the untraced operations interleaved with them.
/// Returns the metrics and each layer's share of the traced time.
pub fn per_layer(
    a: &Attribution,
    traced: &mut Samples,
    untraced: &mut Samples,
    shard_windows: u64,
    shard_cross_events: u64,
) -> (Vec<Metric>, Vec<String>) {
    let n = format!("mean of n={} traced", a.ops);
    let us = |t: f64| a.per_op(t) * 1e6;
    let ms = |t: f64| a.per_op(t) * 1e3;
    let overhead = match (traced.median(), untraced.median()) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => 0.0,
    };
    let unattributed = if a.e2e > 0.0 {
        a.unattributed() / a.e2e
    } else {
        0.0
    };
    let mut m = vec![
        metric("query.parse_us", us(a.parse), "us", &n),
        metric("query.plan_us", us(a.plan), "us", &n),
        metric("query.assemble_us", us(a.assemble), "us", &n),
        metric("query.plan_cells", a.per_op(a.cells as f64), "count", &n),
        metric("render.body_us", us(a.render), "us", &n),
        metric(
            "render.body_bytes",
            a.per_op(a.body_bytes as f64),
            "bytes",
            &n,
        ),
        metric("http.roundtrip_us", us(a.roundtrip), "us", &n),
        metric("http.overhead_us", us(a.http), "us", &n),
        metric("cache.answer_us", us(a.answer), "us", &n),
        metric("cache.hit_ratio", 0.0, "ratio", "no cache on this path"),
        metric("cache.entries", 0.0, "count", "no cache on this path"),
        metric("cache.executed", 0.0, "count", "no cache on this path"),
        metric("cache.coalesced", 0.0, "count", "no cache on this path"),
        metric("sched.fanout_ms", ms(a.fanout), "ms", &n),
        metric(
            "sched.efficiency",
            a.efficiency(),
            "ratio",
            "sum of cell time / (fan-out wall x workers)",
        ),
    ];
    for ((name, runtime), t) in HARNESS.iter().zip(a.harness) {
        m.push(metric(name, ms(t), "ms", format!("{n}; runtime {runtime}")));
    }
    m.extend([
        metric(
            "simtime.shard_windows",
            shard_windows as f64,
            "count",
            "delta over the window",
        ),
        metric(
            "simtime.shard_cross_events",
            shard_cross_events as f64,
            "count",
            "delta over the window",
        ),
        metric(
            "trace.unattributed_frac",
            unattributed,
            "ratio",
            "traced time outside every layer span",
        ),
        metric(
            "trace.overhead_frac",
            overhead,
            "ratio",
            format!(
                "traced p50 (n={}) / untraced p50 (n={}) - 1",
                traced.len(),
                untraced.len()
            ),
        ),
    ]);
    let verdict = if unattributed.abs() <= RESIDUAL_LIMIT {
        "within"
    } else {
        "OUTSIDE"
    };
    let mut shares = vec![
        format!(
            "layer self times sum to the traced end-to-end time within {:.2}% ({verdict} the stated {:.0}%)",
            unattributed.abs() * 100.0,
            RESIDUAL_LIMIT * 100.0
        ),
        format!(
            "layer self time, share of the traced end-to-end time ({:.3} ms per op):",
            a.per_op(a.e2e) * 1e3
        ),
    ];
    let mut layers = a.layers();
    layers.push(("unattributed", a.unattributed()));
    for (name, t) in layers {
        let share = if a.e2e > 0.0 { t / a.e2e } else { 0.0 };
        shares.push(format!(
            "  {name:<22} {:>12.1} us/op {:>7.2}%",
            us(t),
            share * 100.0
        ));
    }
    (m, shares)
}

/// Fill the cache metrics of a daemon run: window header sums and the
/// server's ready entries at the end.
pub fn set_cache(metrics: &mut [Metric], window: CellCounts, entries: u64) {
    let note = "X-Doebench-Cells-* sums over the window".to_string();
    for m in metrics.iter_mut() {
        let value = match m.name {
            "cache.hit_ratio" => window.hit_ratio(),
            "cache.entries" => entries as f64,
            "cache.executed" => window.executed as f64,
            "cache.coalesced" => window.coalesced as f64,
            _ => continue,
        };
        m.value = value;
        m.note = if m.name == "cache.entries" {
            "ready entries in /stats at the end".to_string()
        } else {
            note.clone()
        };
    }
}

/// Print the summary and the JSON result line.
pub fn print(header: &str, r: &RunResult) {
    println!("{header}");
    for n in &r.notes {
        println!("  {n}");
    }
    for m in &r.metrics {
        println!(
            "  {:<28} {:>16} {:<6} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.note
        );
    }
    println!(
        "  correct={} attempted={} failed={}",
        r.correct, r.tally.attempted, r.tally.failed
    );
    println!("{}", json_line(r));
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
fn json_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .filter(|m| !summary_only(m.name))
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.tally.attempted,
        r.tally.failed,
        metrics.join(", ")
    )
}
