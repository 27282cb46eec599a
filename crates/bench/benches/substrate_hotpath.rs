//! The substrate hot-path perf-regression gate.
//!
//! Measures the allocation-free inner loops the campaign executor spends
//! its time in — MPI pingpongs, GPU memcpy chains, vector-clock joins,
//! batch gaussian fills — plus the serial quick campaign end to end, and
//! writes `benchmarks/substrate_hotpath.json` at the repo root.
//!
//! Raw nanoseconds do not transfer between hosts, so every metric is also
//! *normalized by a calibration loop* (a fixed xoshiro-summing workload
//! timed in the same process). The gate computes each metric's regression
//! two ways — raw and calibrated — and fails only when **both** exceed the
//! threshold: raw absorbs calibration jitter on a same-host run, calibrated
//! absorbs the host-speed difference on a cross-host run.
//!
//! * `cargo bench -p doe-bench --bench substrate_hotpath`
//!   — measure and (re)write the artifact.
//! * `cargo bench -p doe-bench --bench substrate_hotpath -- --gate`
//!   — measure, compare against the committed artifact, exit 1 if any
//!   metric regressed by more than 10%; the artifact is not rewritten.
//!
//! CI runs the `--gate` form (see the `perf-gate` job); the refresh
//! procedure is documented in CONTRIBUTING.md.

use std::path::PathBuf;
use std::time::Instant;

use doebench::benchlib::set_jobs;
use doebench::dessan::VectorClock;
use doebench::gpurt::testkit::dual_gpu_runtime;
use doebench::gpurt::Buffer;
use doebench::mpi::{MpiConfig, MpiSim};
use doebench::simtime::SimRng;
use doebench::topo::{CoreId, DeviceId, NumaId};
use doebench::{table4, table5, table6, table7, Campaign};

/// Regression threshold on calibrated ratios: fail beyond +10%.
const THRESHOLD: f64 = 0.10;
/// Round-robin rounds. Each round times every metric once (calibration
/// included) and the artifact keeps per-metric minima, so a noisy window
/// on a shared host cannot skew one metric's whole sample.
const REPS: usize = 5;

/// One wall-clock timing of `f`, in nanoseconds.
fn time_ns(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64
}

/// The calibration workload: a fixed amount of integer mixing whose speed
/// tracks the host's scalar throughput. Metrics are gated as multiples
/// of one calibration op so baselines transfer across machines.
fn calibration_ns_per_op() -> f64 {
    const OPS: u64 = 20_000_000;
    time_ns(|| {
        let mut rng = SimRng::from_seed(0xCA11);
        let mut acc = 0u64;
        for _ in 0..OPS {
            acc = acc.wrapping_add(rng.next_u64());
        }
        std::hint::black_box(acc);
    }) / OPS as f64
}

fn quick_campaign_ms() -> f64 {
    set_jobs(1);
    time_ns(|| {
        let c = Campaign::quick();
        let t4 = table4::run(&c);
        let t5 = table5::run(&c);
        let t6 = table6::run(&c);
        let t7 = table7::summarize(&t5, &t6);
        std::hint::black_box((
            table4::render(&t4).to_ascii(),
            table5::render(&t5).to_ascii(),
            table6::render(&t6).to_ascii(),
            table7::render(&t7).to_ascii(),
        ));
    }) / 1e6
}

fn mpisim_pingpong_ns() -> f64 {
    const ROUNDTRIPS: u64 = 100_000;
    let machine = doebench::machines::all_machines()
        .into_iter()
        .next()
        .expect("machine list nonempty");
    let mut w = MpiSim::new(machine.topo.clone(), MpiConfig::default_host(), 7);
    let a = w.add_host_rank(CoreId(0)).expect("core 0");
    let b = w.add_host_rank(CoreId(1)).expect("core 1");
    w.send(a, b, 8).expect("warm send");
    w.recv(b, a, 8).expect("warm recv");
    time_ns(|| {
        for _ in 0..ROUNDTRIPS {
            w.send(a, b, 8).expect("send");
            w.recv(b, a, 8).expect("recv");
            w.send(b, a, 8).expect("send");
            w.recv(a, b, 8).expect("recv");
        }
    }) / ROUNDTRIPS as f64
}

fn gpurt_memcpy_iter_ns() -> f64 {
    const ITERS: u64 = 100_000;
    let mut rt = dual_gpu_runtime();
    let s = rt.create_stream(DeviceId(0)).expect("stream");
    let host = Buffer::pinned_host(NumaId(0), 1 << 20);
    let dev = Buffer::device(DeviceId(0), 1 << 20);
    let peer = Buffer::device(DeviceId(1), 1 << 20);
    rt.memcpy_async(&dev, &host, 4096, &s).expect("warm");
    rt.stream_synchronize(&s).expect("warm sync");
    time_ns(|| {
        for _ in 0..ITERS {
            rt.memcpy_async(&dev, &host, 4096, &s).expect("h2d");
            rt.memcpy_async(&peer, &dev, 4096, &s).expect("d2d");
            rt.memcpy_async(&host, &peer, 4096, &s).expect("d2h");
            rt.stream_synchronize(&s).expect("sync");
        }
    }) / ITERS as f64
}

fn vc_join_assign_ns() -> f64 {
    const JOINS: u64 = 1_000_000;
    let mut a = VectorClock::new();
    let mut b = VectorClock::new();
    for i in 0..64 {
        a.tick(i);
        b.tick(63 - i);
    }
    time_ns(|| {
        for _ in 0..JOINS {
            a.join_assign(&b);
            std::hint::black_box(&a);
        }
    }) / JOINS as f64
}

fn gaussian_fill_ns_per_sample() -> f64 {
    const FILLS: u64 = 10_000;
    const LEN: usize = 256;
    let mut rng = SimRng::from_seed(3);
    let mut buf = vec![0.0f64; LEN];
    time_ns(|| {
        for _ in 0..FILLS {
            rng.fill_gaussian(&mut buf);
            std::hint::black_box(&buf);
        }
    }) / (FILLS * LEN as u64) as f64
}

/// Extract `"key": number` from the flat JSON artifact (no serde in-tree).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let pos = text.find(&needle)? + needle.len();
    let rest = text[pos..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let gate = std::env::args().any(|a| a == "--gate");
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks");
    let path = dir.join("substrate_hotpath.json");

    // (key, measure, unit) — every metric is gated on value/calib.
    type Metric = (&'static str, fn() -> f64, &'static str);
    let suite: [Metric; 5] = [
        ("quick_campaign_ms", quick_campaign_ms, "ms"),
        ("mpisim_pingpong_ns", mpisim_pingpong_ns, "ns"),
        ("gpurt_memcpy_iter_ns", gpurt_memcpy_iter_ns, "ns"),
        ("vc_join_assign_ns", vc_join_assign_ns, "ns"),
        (
            "gaussian_fill_ns_per_sample",
            gaussian_fill_ns_per_sample,
            "ns",
        ),
    ];

    // Round-robin: time every metric once per round, keep the minimum.
    // A background-noise burst then costs one round of one metric, not a
    // whole back-to-back sample of it.
    let mut calib = f64::INFINITY;
    let mut mins = suite.map(|_| f64::INFINITY);
    for _ in 0..REPS {
        calib = calib.min(calibration_ns_per_op());
        for (i, (_, measure, _)) in suite.iter().enumerate() {
            mins[i] = mins[i].min(measure());
        }
    }
    let metrics: Vec<(&str, f64, &str)> = suite
        .iter()
        .zip(mins)
        .map(|(&(key, _, unit), value)| (key, value, unit))
        .collect();

    let mut json = String::from("{\n  \"benchmark\": \"substrate_hotpath\",\n");
    json.push_str(&format!("  \"reps\": {REPS},\n"));
    json.push_str(&format!("  \"calibration_ns_per_op\": {calib:.4},\n"));
    for (key, value, _) in &metrics {
        json.push_str(&format!("  \"{key}\": {value:.2},\n"));
    }
    json.push_str(&format!("  \"gate_threshold\": {THRESHOLD}\n}}\n"));
    print!("{json}");

    if !gate {
        std::fs::create_dir_all(&dir).expect("create benchmarks/");
        std::fs::write(&path, &json).expect("write artifact");
        eprintln!("wrote {}", path.display());
        return;
    }

    // Gate mode: compare calibrated ratios against the committed baseline.
    let baseline = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("--gate needs a committed {}: {e}", path.display()));
    let base_calib = json_number(&baseline, "calibration_ns_per_op")
        .expect("baseline missing calibration_ns_per_op");
    let mut failures = Vec::new();
    for (key, value, unit) in &metrics {
        let Some(base) = json_number(&baseline, key) else {
            eprintln!("perf-gate: {key}: no baseline entry (new metric), skipping");
            continue;
        };
        // Two views of the same delta: raw (same-host runs) and calibrated
        // (cross-host runs). Calibration itself jitters, so a metric fails
        // only when BOTH views agree it regressed — a genuinely unchanged
        // metric cannot be failed by a noisy calibration sample alone.
        let raw = value / base - 1.0;
        let calibrated = (value / calib) / (base / base_calib) - 1.0;
        let regression = raw.min(calibrated);
        eprintln!(
            "perf-gate: {key}: {value:.2} {unit} (baseline {base:.2} {unit}, \
             raw {raw:+.1}%, calibrated {calibrated:+.1}%)",
            raw = raw * 100.0,
            calibrated = calibrated * 100.0,
        );
        if regression > THRESHOLD {
            failures.push(format!(
                "{key} regressed {:.1}% raw / {:.1}% calibrated (>{:.0}% allowed)",
                raw * 100.0,
                calibrated * 100.0,
                THRESHOLD * 100.0
            ));
        }
    }
    if !failures.is_empty() {
        eprintln!("perf-gate FAILED:\n  {}", failures.join("\n  "));
        eprintln!(
            "If this slowdown is intentional, refresh the baseline per CONTRIBUTING.md \
             (cargo bench -p doe-bench --bench substrate_hotpath) and commit the new artifact."
        );
        std::process::exit(1);
    }
    eprintln!(
        "perf-gate passed: all metrics within {:.0}%",
        THRESHOLD * 100.0
    );
}
