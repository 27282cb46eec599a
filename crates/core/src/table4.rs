//! Table 4: memory bandwidth and MPI latency on non-accelerator machines.

use std::borrow::Borrow;

use doe_babelstream::{run_sim_cpu, CpuStreamReport};
use doe_benchlib::Summary;
use doe_machines::{paper, Machine};
use doe_osu::{on_node_pair, on_socket_pair, osu_latency};
use doe_report::{CellValue, Comparison, Table, TableResult, Unit};

use crate::campaign::Campaign;
use crate::sched::run_cells;

/// One regenerated row of Table 4.
#[derive(Clone, Debug)]
pub struct Row {
    /// `"<rank>. <name>"`.
    pub label: String,
    /// Machine name.
    pub machine: String,
    /// Single-thread memory bandwidth, GB/s.
    pub single: Summary,
    /// All-thread memory bandwidth, GB/s.
    pub all: Summary,
    /// The "Peak" citation string.
    pub peak: &'static str,
    /// On-socket MPI latency, µs.
    pub on_socket: Summary,
    /// On-node MPI latency, µs.
    pub on_node: Summary,
}

/// The BabelStream cell of one row.
fn stream_cell(m: &Machine, c: &Campaign) -> CpuStreamReport {
    run_sim_cpu(
        &m.topo,
        &m.host_mem,
        m.host_stream_jitter,
        c.seed_for(m.name, "babelstream"),
        &c.stream_cpu,
    )
}

/// One OSU latency cell: the pair layout names the bench for seeding.
fn latency_cell(m: &Machine, c: &Campaign, bench: &str) -> Summary {
    let cores = match bench {
        "osu-socket" => on_socket_pair(&m.topo),
        "osu-node" => on_node_pair(&m.topo),
        _ => unreachable!("table 4 latency cells"),
    }
    .expect("machine has >= 2 cores");
    osu_latency(&m.topo, &m.mpi, cores, &c.osu, c.seed_for(m.name, bench))
        .remove(0)
        .one_way_us
}

/// Run the Table 4 benchmarks for one CPU machine.
pub fn run_machine(m: &Machine, c: &Campaign) -> Row {
    assert!(!m.is_accelerated(), "Table 4 covers CPU machines");
    let stream = stream_cell(m, c);
    Row {
        label: m.table_label(),
        machine: m.name.to_string(),
        single: stream.single,
        all: stream.all,
        peak: m.host_peak_citation,
        on_socket: latency_cell(m, c, "osu-socket"),
        on_node: latency_cell(m, c, "osu-node"),
    }
}

/// Per-cell results, reassembled into a row after the grid runs.
enum Cell {
    Stream(CpuStreamReport),
    Latency(Summary),
}

/// Run all CPU machines: the (machine × cell) grid fans out over the
/// worker pool, and rows assemble in canonical machine order.
pub fn run(c: &Campaign) -> Vec<Row> {
    let machines = doe_machines::cpu_machines();
    let grid: Vec<(usize, &str)> = (0..machines.len())
        .flat_map(|mi| {
            ["babelstream", "osu-socket", "osu-node"]
                .into_iter()
                .map(move |bench| (mi, bench))
        })
        .collect();
    let mut results = run_cells(&grid, |&(mi, bench)| {
        let m = &machines[mi];
        match bench {
            "babelstream" => Cell::Stream(stream_cell(m, c)),
            _ => Cell::Latency(latency_cell(m, c, bench)),
        }
    })
    .into_iter();
    machines
        .iter()
        .map(|m| {
            let (
                Some(Cell::Stream(stream)),
                Some(Cell::Latency(on_socket)),
                Some(Cell::Latency(on_node)),
            ) = (results.next(), results.next(), results.next())
            else {
                unreachable!("three cells per machine, in order");
            };
            Row {
                label: m.table_label(),
                machine: m.name.to_string(),
                single: stream.single,
                all: stream.all,
                peak: m.host_peak_citation,
                on_socket,
                on_node,
            }
        })
        .collect()
}

/// Assemble rows, owned or borrowed, into the structured table (the
/// paper's layout, typed).
pub fn result<R: Borrow<Row>>(rows: &[R]) -> TableResult {
    let mut t = TableResult::new(
        "table4",
        "Table 4: memory bandwidth (GB/s) and MPI latency (us), non-accelerator systems",
    );
    t.push_column("Rank/Name", Unit::None);
    t.push_column("Single", Unit::GbPerS);
    t.push_column("All", Unit::GbPerS);
    t.push_column("Peak", Unit::GbPerS);
    t.push_column("On-Socket", Unit::Micros);
    t.push_column("On-Node", Unit::Micros);
    for r in rows.iter().map(R::borrow) {
        t.push_row(
            Some(&r.machine),
            vec![
                CellValue::Text(r.label.clone()),
                CellValue::Stat(r.single),
                CellValue::Stat(r.all),
                CellValue::Text(r.peak.to_string()),
                CellValue::Stat(r.on_socket),
                CellValue::Stat(r.on_node),
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
        "Table 4 (paper -> measured)",
        &["Rank/Name", "Single", "All", "On-Socket", "On-Node"],
    );
    for r in rows {
        if let Some(p) = paper::table4_row(&r.machine) {
            t.push_row(vec![
                r.label.clone(),
                Comparison::new(p.single.0, r.single.mean).to_string(),
                Comparison::new(p.all.0, r.all.mean).to_string(),
                Comparison::new(p.on_socket.0, r.on_socket.mean).to_string(),
                Comparison::new(p.on_node.0, r.on_node.mean).to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eagle_row_lands_near_paper_values() {
        let m = doe_machines::by_name("Eagle").unwrap();
        let row = run_machine(&m, &Campaign::quick());
        assert!(
            (row.single.mean - 13.45).abs() < 1.0,
            "single={}",
            row.single.mean
        );
        assert!((row.all.mean - 208.24).abs() < 12.0, "all={}", row.all.mean);
        assert!(
            (row.on_socket.mean - 0.17).abs() < 0.03,
            "sock={}",
            row.on_socket.mean
        );
        assert!(
            (row.on_node.mean - 0.38).abs() < 0.05,
            "node={}",
            row.on_node.mean
        );
    }

    #[test]
    fn render_produces_five_machine_rows() {
        let m = doe_machines::by_name("Manzano").unwrap();
        let rows = vec![run_machine(&m, &Campaign::quick())];
        let t = render(&rows);
        assert_eq!(t.headers.len(), 6);
        assert!(t.to_ascii().contains("141. Manzano"));
        let cmp = render_comparison(&rows);
        assert!(cmp.to_ascii().contains("->") || cmp.to_ascii().contains("→"));
    }

    #[test]
    #[should_panic(expected = "Table 4 covers CPU machines")]
    fn gpu_machine_rejected() {
        let m = doe_machines::by_name("Frontier").unwrap();
        run_machine(&m, &Campaign::quick());
    }
}
