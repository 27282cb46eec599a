//! Table 5: device memory bandwidth and MPI latencies on accelerator
//! machines.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;

use doe_babelstream::run_sim_gpu;
use doe_benchlib::Summary;
use doe_machines::{paper, Machine};
use doe_osu::{on_socket_pair, osu_latency, osu_latency_device};
use doe_report::CellValue;
use doe_report::{Comparison, Table, TableResult, Unit};
use doe_topo::{CoreId, DeviceId, LinkClass, NodeTopology};

use crate::campaign::Campaign;
use crate::sched::run_cells;

/// One regenerated row of Table 5.
#[derive(Clone, Debug)]
pub struct Row {
    /// `"<rank>. <name>"`.
    pub label: String,
    /// Machine name.
    pub machine: String,
    /// Device memory bandwidth (BabelStream best kernel), GB/s.
    pub device_bw: Summary,
    /// The "Peak" citation string.
    pub peak: &'static str,
    /// Host-to-host MPI latency, µs.
    pub host_to_host: Summary,
    /// Device-to-device MPI latency per link class.
    pub d2d: BTreeMap<LinkClass, Summary>,
}

/// The MPI ranks for a device pair sit on cores local to each device, one
/// rank per accelerator — the paper's stated DOE application convention.
pub fn device_pair_cores(topo: &NodeTopology, da: DeviceId, db: DeviceId) -> (CoreId, CoreId) {
    let na = topo.device(da).expect("device a").local_numa;
    let nb = topo.device(db).expect("device b").local_numa;
    let cores_a = topo.cores_of_numa(na);
    let cores_b = topo.cores_of_numa(nb);
    let ca = cores_a[0];
    let cb = if na == nb { cores_b[1] } else { cores_b[0] };
    (ca, cb)
}

/// The BabelStream GPU cell of one row.
fn stream_cell(m: &Machine, c: &Campaign) -> Summary {
    run_sim_gpu(
        Arc::clone(&m.topo),
        &m.gpu_models,
        c.seed_for(m.name, "babelstream-gpu"),
        &c.stream_gpu,
    )
    .device
}

/// The host-to-host OSU latency cell of one row.
fn h2h_cell(m: &Machine, c: &Campaign) -> Summary {
    let socket_pair = on_socket_pair(&m.topo).expect("machine has >= 2 cores");
    osu_latency(
        &m.topo,
        &m.mpi,
        socket_pair,
        &c.osu,
        c.seed_for(m.name, "osu-h2h"),
    )
    .remove(0)
    .one_way_us
}

/// One device-to-device OSU latency cell.
fn d2d_cell(m: &Machine, c: &Campaign, class: LinkClass, da: DeviceId, db: DeviceId) -> Summary {
    let cores = device_pair_cores(&m.topo, da, db);
    osu_latency_device(
        &m.topo,
        &m.mpi,
        cores,
        (da, db),
        &c.osu,
        c.seed_for(m.name, &format!("osu-d2d-{class}")),
    )
    .remove(0)
    .one_way_us
}

/// Run the Table 5 benchmarks for one GPU machine.
pub fn run_machine(m: &Machine, c: &Campaign) -> Row {
    assert!(m.is_accelerated(), "Table 5 covers accelerator machines");
    let mut d2d = BTreeMap::new();
    for (class, (da, db)) in m.topo.representative_pairs() {
        d2d.insert(class, d2d_cell(m, c, class, da, db));
    }
    Row {
        label: m.table_label(),
        machine: m.name.to_string(),
        device_bw: stream_cell(m, c),
        peak: m.device_peak_citation.unwrap_or("-"),
        host_to_host: h2h_cell(m, c),
        d2d,
    }
}

/// One cell of the (machine × benchmark) grid.
enum CellKind {
    Stream,
    HostToHost,
    D2d(LinkClass, DeviceId, DeviceId),
}

/// Run all GPU machines: the (machine × cell) grid — stream, host-to-host
/// latency, and one cell per represented link class — fans out over the
/// worker pool, and rows assemble in canonical machine order.
pub fn run(c: &Campaign) -> Vec<Row> {
    let machines = doe_machines::gpu_machines();
    let mut grid: Vec<(usize, CellKind)> = Vec::new();
    for (mi, m) in machines.iter().enumerate() {
        grid.push((mi, CellKind::Stream));
        grid.push((mi, CellKind::HostToHost));
        for (class, (da, db)) in m.topo.representative_pairs() {
            grid.push((mi, CellKind::D2d(class, da, db)));
        }
    }
    let results = run_cells(&grid, |&(mi, ref kind)| {
        let m = &machines[mi];
        match *kind {
            CellKind::Stream => stream_cell(m, c),
            CellKind::HostToHost => h2h_cell(m, c),
            CellKind::D2d(class, da, db) => d2d_cell(m, c, class, da, db),
        }
    });
    #[derive(Default)]
    struct Partial {
        device_bw: Option<Summary>,
        host_to_host: Option<Summary>,
        d2d: BTreeMap<LinkClass, Summary>,
    }
    let mut partials: Vec<Partial> = machines.iter().map(|_| Partial::default()).collect();
    for (&(mi, ref kind), summary) in grid.iter().zip(results) {
        let p = &mut partials[mi];
        match *kind {
            CellKind::Stream => p.device_bw = Some(summary),
            CellKind::HostToHost => p.host_to_host = Some(summary),
            CellKind::D2d(class, _, _) => {
                p.d2d.insert(class, summary);
            }
        }
    }
    machines
        .iter()
        .zip(partials)
        .map(|(m, p)| Row {
            label: m.table_label(),
            machine: m.name.to_string(),
            device_bw: p.device_bw.expect("one stream cell per machine"),
            peak: m.device_peak_citation.unwrap_or("-"),
            host_to_host: p.host_to_host.expect("one h2h cell per machine"),
            d2d: p.d2d,
        })
        .collect()
}

fn class_cell(r: &BTreeMap<LinkClass, Summary>, class: LinkClass) -> CellValue {
    r.get(&class)
        .map(|s| CellValue::Stat(*s))
        .unwrap_or(CellValue::Missing)
}

/// Assemble rows, owned or borrowed, into the structured table (the
/// paper's layout, typed).
pub fn result<R: Borrow<Row>>(rows: &[R]) -> TableResult {
    let mut t = TableResult::new(
        "table5",
        "Table 5: device bandwidth (GB/s) and MPI latency (us), accelerator systems",
    );
    t.push_column("Rank/Name", Unit::None);
    t.push_column("Device", Unit::GbPerS);
    t.push_column("Peak", Unit::GbPerS);
    t.push_column("Host-to-Host", Unit::Micros);
    for class in ["A", "B", "C", "D"] {
        t.push_column(class, Unit::Micros);
    }
    for r in rows.iter().map(R::borrow) {
        t.push_row(
            Some(&r.machine),
            vec![
                CellValue::Text(r.label.clone()),
                CellValue::Stat(r.device_bw),
                CellValue::Text(r.peak.to_string()),
                CellValue::Stat(r.host_to_host),
                class_cell(&r.d2d, LinkClass::A),
                class_cell(&r.d2d, LinkClass::B),
                class_cell(&r.d2d, LinkClass::C),
                class_cell(&r.d2d, LinkClass::D),
            ],
        );
    }
    t
}

/// Render rows in the paper's layout (legacy string-table view of
/// [`result`]; byte-identical output).
pub fn render(rows: &[Row]) -> Table {
    result(rows).to_table()
}

/// Render a paper-vs-measured comparison of the means.
pub fn render_comparison(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Table 5 (paper -> measured)",
        &["Rank/Name", "Device", "Host-to-Host", "A", "B", "C", "D"],
    );
    for r in rows {
        let Some(p) = paper::table5_row(&r.machine) else {
            continue;
        };
        let cmp_class = |i: usize, class: LinkClass| -> String {
            match (p.d2d[i], r.d2d.get(&class)) {
                (Some((mean, _)), Some(s)) => Comparison::new(mean, s.mean).to_string(),
                _ => String::new(),
            }
        };
        t.push_row(vec![
            r.label.clone(),
            Comparison::new(p.device_bw.0, r.device_bw.mean).to_string(),
            Comparison::new(p.host_to_host.0, r.host_to_host.mean).to_string(),
            cmp_class(0, LinkClass::A),
            cmp_class(1, LinkClass::B),
            cmp_class(2, LinkClass::C),
            cmp_class(3, LinkClass::D),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_row_shape_matches_paper() {
        let m = doe_machines::by_name("Frontier").unwrap();
        let row = run_machine(&m, &Campaign::quick());
        // Bandwidth within 10% of the paper on the quick sweep's smaller
        // vectors.
        assert!(
            (row.device_bw.mean - 1336.35).abs() / 1336.35 < 0.10,
            "bw={}",
            row.device_bw.mean
        );
        // Sub-microsecond MPI everywhere, roughly class-flat.
        assert!(row.host_to_host.mean < 1.0);
        assert_eq!(row.d2d.len(), 4);
        for (class, s) in &row.d2d {
            assert!(s.mean < 1.0, "{class}: {}", s.mean);
        }
    }

    #[test]
    fn summit_device_mpi_is_tens_of_microseconds() {
        let m = doe_machines::by_name("Summit").unwrap();
        let row = run_machine(&m, &Campaign::quick());
        assert_eq!(row.d2d.len(), 2);
        let a = row.d2d.get(&LinkClass::A).unwrap().mean;
        let b = row.d2d.get(&LinkClass::B).unwrap().mean;
        assert!((a - 18.10).abs() < 1.5, "A={a}");
        assert!(b > a, "B={b} should exceed A={a}");
    }

    #[test]
    fn device_pair_cores_are_device_local() {
        let m = doe_machines::by_name("Summit").unwrap();
        let (ca, cb) = device_pair_cores(&m.topo, DeviceId(0), DeviceId(3));
        assert_ne!(
            m.topo.numa_of_core(ca).unwrap(),
            m.topo.numa_of_core(cb).unwrap()
        );
        let (ca, cb) = device_pair_cores(&m.topo, DeviceId(0), DeviceId(1));
        assert_eq!(
            m.topo.numa_of_core(ca).unwrap(),
            m.topo.numa_of_core(cb).unwrap()
        );
        assert_ne!(ca, cb);
    }

    #[test]
    fn render_includes_class_columns() {
        let m = doe_machines::by_name("Polaris").unwrap();
        let rows = vec![run_machine(&m, &Campaign::quick())];
        let t = render(&rows);
        assert_eq!(t.headers.len(), 8);
        let ascii = t.to_ascii();
        assert!(ascii.contains("19. Polaris"));
        let cmp = render_comparison(&rows);
        assert!(!cmp.rows.is_empty());
    }
}
