//! Seeded-mutation coverage: every class of transcription error the
//! checker claims to catch is introduced into a known-good machine spec,
//! and the test asserts the checker flags it under the expected rule.
//!
//! Twelve distinct mutation classes: GiB/GB peak mix-up, ns/µs latency
//! mix-up (MPI and DRAM), efficiency above one, per-core bandwidth above
//! peak, zero latency, out-of-range jitter, GPU model/device count
//! mismatch, citation cell drift, category flip, calibration drift,
//! fabric bandwidth ordering, registry damage, and a renamed machine
//! losing its paper rows.

use std::sync::Arc;

use dessan_model::{check_machine, check_paper, check_registry, ModelFinding};
use doe_machines::units::GIB_PER_GB;
use doe_machines::{all_machines, by_name, Machine, MachineCategory};
use doe_simtime::SimDuration;
use doe_topo::LinkKind;

fn frontier() -> Machine {
    by_name("Frontier").expect("Frontier exists")
}

fn eagle() -> Machine {
    by_name("Eagle").expect("Eagle exists")
}

fn assert_flags(findings: &[ModelFinding], rule: &str) {
    assert!(
        findings.iter().any(|f| f.rule == rule),
        "expected a `{rule}` finding, got: {findings:?}"
    );
}

#[test]
fn clean_machines_produce_no_findings() {
    for m in all_machines() {
        let physics = check_machine(&m);
        assert!(physics.is_empty(), "{}: {physics:?}", m.name);
        let paper = check_paper(&m);
        assert!(paper.is_empty(), "{}: {paper:?}", m.name);
    }
    assert!(check_registry(&all_machines()).is_empty());
}

#[test]
fn gib_gb_mixup_in_device_peak_is_caught() {
    // 1600 GB/s transcribed as 1600 GiB/s: only 7.4% off — plausible to
    // the eye, fatal to the citation cross-check.
    let mut m = frontier();
    for g in &mut m.gpu_models {
        g.hbm.peak_bw_gb_s *= GIB_PER_GB;
    }
    assert_flags(&check_machine(&m), "peak-citation");
}

#[test]
fn ns_us_mixup_in_shm_latency_is_caught() {
    // Frontier's 0.25 µs shared-memory latency pasted as 250 µs.
    let mut m = frontier();
    m.mpi.shm_latency = SimDuration::from_us(250.0);
    assert_flags(&check_machine(&m), "latency-window");
}

#[test]
fn ns_us_mixup_in_dram_latency_is_caught() {
    // A 90 ns DRAM latency transcribed as 90 µs.
    let mut m = eagle();
    m.host_mem.latency = SimDuration::from_us(90.0);
    assert_flags(&check_machine(&m), "latency-window");
}

#[test]
fn sustained_efficiency_above_one_is_caught() {
    let mut m = eagle();
    m.host_mem.sustained_efficiency = 1.05;
    assert_flags(&check_machine(&m), "efficiency-range");
}

#[test]
fn per_core_bandwidth_above_peak_is_caught() {
    let mut m = eagle();
    m.host_mem.per_core_bw_gb_s = m.host_mem.peak_bw_gb_s * 2.0;
    assert_flags(&check_machine(&m), "bandwidth-order");
}

#[test]
fn zero_latency_is_caught() {
    let mut m = eagle();
    m.host_mem.latency = SimDuration::ZERO;
    assert_flags(&check_machine(&m), "positive-latency");
}

#[test]
fn out_of_range_jitter_is_caught() {
    let mut m = eagle();
    m.host_stream_jitter.rel_sigma = 0.5;
    assert_flags(&check_machine(&m), "jitter-range");
}

#[test]
fn gpu_model_count_mismatch_is_caught() {
    let mut m = frontier();
    m.gpu_models.pop();
    assert_flags(&check_machine(&m), "gpu-count");
}

#[test]
fn citation_cell_drift_is_caught() {
    // The A100 cell pasted onto the MI250X machine: the modelled 1600
    // GB/s peak no longer matches, and Table 5 disagrees too.
    let mut m = frontier();
    m.device_peak_citation = Some("1555.2 [3]");
    assert_flags(&check_machine(&m), "peak-citation");
    assert_flags(&check_paper(&m), "peak-citation");
}

#[test]
fn category_flip_is_caught() {
    let mut m = frontier();
    m.category = MachineCategory::NonAccelerator;
    assert_flags(&check_machine(&m), "gpu-count");
}

#[test]
fn calibration_drift_is_caught() {
    // A fat-fingered efficiency moves the simulated triad 20% off the
    // Table 5 mean the model was fit to.
    let mut m = frontier();
    for g in &mut m.gpu_models {
        g.hbm.sustained_efficiency *= 0.8;
    }
    assert_flags(&check_paper(&m), "paper-consistency");
}

#[test]
fn fabric_bandwidth_ordering_violation_is_caught() {
    // A quad Infinity Fabric pair slower than the single-link pairs.
    let mut m = frontier();
    let mut topo = (*m.topo).clone();
    for l in topo.links.as_mut_vec() {
        if matches!(l.kind, LinkKind::InfinityFabric { links: 4 }) {
            l.bandwidth_gb_s = 10.0;
        }
    }
    m.topo = Arc::new(topo);
    assert_flags(&check_machine(&m), "bandwidth-order");
}

#[test]
fn truncated_registry_is_caught() {
    let mut machines = all_machines();
    machines.pop();
    assert_flags(&check_registry(&machines), "registry-count");
    // The dropped machine's reference rows now dangle.
    assert_flags(&check_registry(&machines), "paper-coverage");
}

#[test]
fn duplicated_machine_is_caught() {
    let mut machines = all_machines();
    machines.push(frontier());
    let findings = check_registry(&machines);
    assert_flags(&findings, "registry-order");
}

#[test]
fn renamed_machine_loses_its_paper_rows() {
    let mut m = frontier();
    m.name = "Frontera"; // a real machine — just not one in this paper
    assert_flags(&check_paper(&m), "paper-coverage");
}
