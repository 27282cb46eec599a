//! Integration coverage of the beyond-the-tables features: self-checks,
//! explanations, tracing, multi-pair loading, collectives, and the
//! extension studies — exercised together, at repo level.

use doebench::{studies, verify, Campaign};

#[test]
fn self_check_reproduces_every_headline_claim() {
    let claims = verify::run_checks(&Campaign::quick());
    let failed: Vec<_> = claims.iter().filter(|c| !c.pass).collect();
    assert!(
        failed.is_empty(),
        "failed claims: {:?}",
        failed.iter().map(|c| c.name).collect::<Vec<_>>()
    );
}

#[test]
fn explanations_agree_with_paper_values_inline() {
    // Every machine's explanation must cite at least one paper value, and
    // the algebra lines must reassemble (spot-checked via the identities
    // already proven in doe-machines; here we check the rendering).
    for m in doebench::machines::all_machines() {
        let report = doebench::explain::machine_report(m.name).expect("report renders");
        assert!(
            report.contains("(paper:"),
            "{}: no paper citations in explanation",
            m.name
        );
        assert!(report.contains(&m.table_label()));
    }
}

#[test]
fn gpu_trace_covers_a_full_benchmark_iteration() {
    let m = doebench::machines::by_name("Perlmutter").expect("machine");
    let mut rt =
        doebench::gpurt::GpuRuntime::new(m.topo.clone(), m.gpu_models.as_slice().into(), 7);
    rt.enable_tracing();
    let dev = rt.current_device();
    let s = rt.default_stream(dev).expect("stream");
    let numa = m.topo.device(dev).expect("device").local_numa;
    let host = doebench::gpurt::Buffer::pinned_host(numa, 1 << 20);
    let devb = doebench::gpurt::Buffer::device(dev, 1 << 20);
    rt.launch_empty(&s).expect("launch");
    rt.memcpy_async(&devb, &host, 128, &s).expect("copy");
    rt.stream_synchronize(&s).expect("sync");
    let trace = rt.take_trace().expect("trace enabled");
    // The spans reconstruct the benchmark's structure: kernel, copy (on a
    // wire and on the stream), and the host's sync wait.
    let cats: std::collections::HashSet<&str> = trace.spans().iter().map(|s| s.category).collect();
    assert!(cats.contains("gpu") && cats.contains("wire") && cats.contains("host"));
    // Spans never start before time zero and have sane durations.
    for span in trace.spans() {
        assert!(span.duration.as_us() < 1e6);
    }
    // Busy-by-track aggregation covers the stream track.
    let busy = trace.busy_by_track();
    assert!(busy.iter().any(|(t, _)| t.contains("stream")));
}

#[test]
fn multi_pair_loading_shapes_hold_on_a_paper_machine() {
    use doebench::osu::{osu_mbw_mr, osu_multi_lat, OsuConfig};
    let m = doebench::machines::by_name("Manzano").expect("machine");
    let mut cfg = OsuConfig::quick();
    cfg.reps = 3;
    let lat = osu_multi_lat(&m.topo, &m.mpi, &[1, 8], 64 * 1024, &cfg, 1).expect("fits");
    assert!(
        lat[1].one_way_us.mean > lat[0].one_way_us.mean,
        "loaded large-message latency must degrade"
    );
    let bw = osu_mbw_mr(&m.topo, &m.mpi, &[1, 8], 64 * 1024, &cfg, 1).expect("fits");
    assert!(bw[1].aggregate_gb_s.mean <= m.mpi.shm_bandwidth * 1.05);
}

#[test]
fn studies_compose_on_one_seed() {
    let c = Campaign::quick();
    // Future work 1: contention series monotone.
    let series = studies::contention_series(1, 4);
    assert!(series.windows(2).all(|w| w[1].1 <= w[0].1 * 1.01));
    // Future work 3: three extension rows.
    assert_eq!(studies::cpu_vendor_table(&c).rows.len(), 3);
    // Future work 4: four MPI variants on Summit.
    assert_eq!(
        studies::mpi_variant_table("Summit", &c)
            .expect("machine")
            .rows
            .len(),
        4
    );
    // Placement study returns packed + spread.
    assert_eq!(studies::placement_study(1, 8, 1 << 20).len(), 2);
}

#[test]
fn bundle_and_markdown_report_are_consistent() {
    let results = doebench::experiments::run_all(&Campaign::quick());
    let md = doebench::experiments::render_markdown(&results);
    let dir = std::env::temp_dir().join(format!("doebench-it-{}", std::process::id()));
    let files = doebench::bundle::write_bundle(&results, &dir).expect("bundle");
    let report = std::fs::read_to_string(dir.join("report.md")).expect("read");
    assert_eq!(md, report, "bundle report must match the inline render");
    assert!(files.contains(&"table6.csv".to_string()));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
