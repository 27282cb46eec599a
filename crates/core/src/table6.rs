//! Table 6: Comm|Scope kernel and memcpy costs on accelerator machines.

use std::borrow::Borrow;

use doe_commscope::{run_commscope, CommScopeReport};
use doe_machines::{paper, Machine};
use doe_report::{CellValue, Comparison, Table, TableResult, Unit};
use doe_topo::LinkClass;

use crate::campaign::Campaign;
use crate::sched::run_cells;

/// One regenerated row of Table 6.
#[derive(Clone, Debug)]
pub struct Row {
    /// `"<rank>. <name>"`.
    pub label: String,
    /// Machine name.
    pub machine: String,
    /// The full Comm|Scope report (launch, wait, transfers, D2D classes).
    pub report: CommScopeReport,
}

impl std::ops::Deref for Row {
    type Target = CommScopeReport;
    fn deref(&self) -> &CommScopeReport {
        &self.report
    }
}

/// Run the Comm|Scope suite for one GPU machine.
pub fn run_machine(m: &Machine, c: &Campaign) -> Row {
    assert!(m.is_accelerated(), "Table 6 covers accelerator machines");
    let report = run_commscope(
        &m.topo,
        &m.gpu_models,
        &c.commscope,
        c.seed_for(m.name, "commscope"),
    );
    Row {
        label: m.table_label(),
        machine: m.name.to_string(),
        report,
    }
}

/// Run all GPU machines: one Comm|Scope cell per machine, fanned over the
/// worker pool in canonical machine order.
pub fn run(c: &Campaign) -> Vec<Row> {
    let machines = doe_machines::gpu_machines();
    run_cells(&machines, |m| run_machine(m, c))
}

fn class_cell(r: &Row, class: LinkClass) -> CellValue {
    r.d2d_latency_us
        .get(&class)
        .map(|s| CellValue::Stat(*s))
        .unwrap_or(CellValue::Missing)
}

/// Assemble rows, owned or borrowed, into the structured table (the
/// paper's layout, typed).
pub fn result<R: Borrow<Row>>(rows: &[R]) -> TableResult {
    let mut t = TableResult::new(
        "table6",
        "Table 6: kernel launch/wait latencies (us), memcpy latency (us) and bandwidth (GB/s)",
    );
    t.push_column("Rank/Name", Unit::None);
    t.push_column("Launch", Unit::Micros);
    t.push_column("Wait", Unit::Micros);
    t.push_column("(H2D+D2H)/2 Lat", Unit::Micros);
    t.push_column("(H2D+D2H)/2 BW", Unit::GbPerS);
    for class in ["A", "B", "C", "D"] {
        t.push_column(class, Unit::Micros);
    }
    for r in rows.iter().map(R::borrow) {
        t.push_row(
            Some(&r.machine),
            vec![
                CellValue::Text(r.label.clone()),
                CellValue::Stat(r.launch_us),
                CellValue::Stat(r.wait_us),
                CellValue::Stat(r.hd_latency_us),
                CellValue::Stat(r.hd_bandwidth_gb_s),
                class_cell(r, LinkClass::A),
                class_cell(r, LinkClass::B),
                class_cell(r, LinkClass::C),
                class_cell(r, LinkClass::D),
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
        "Table 6 (paper -> measured)",
        &[
            "Rank/Name",
            "Launch",
            "Wait",
            "HD Lat",
            "HD BW",
            "A",
            "B",
            "C",
            "D",
        ],
    );
    for r in rows {
        let Some(p) = paper::table6_row(&r.machine) else {
            continue;
        };
        let cmp_class = |i: usize, class: LinkClass| -> String {
            match (p.d2d[i], r.d2d_latency_us.get(&class)) {
                (Some((mean, _)), Some(s)) => Comparison::new(mean, s.mean).to_string(),
                _ => String::new(),
            }
        };
        t.push_row(vec![
            r.label.clone(),
            Comparison::new(p.launch.0, r.launch_us.mean).to_string(),
            Comparison::new(p.wait.0, r.wait_us.mean).to_string(),
            Comparison::new(p.hd_latency.0, r.hd_latency_us.mean).to_string(),
            Comparison::new(p.hd_bandwidth.0, r.hd_bandwidth_gb_s.mean).to_string(),
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
    fn frontier_row_matches_paper_decomposition() {
        let m = doe_machines::by_name("Frontier").unwrap();
        let row = run_machine(&m, &Campaign::quick());
        assert!(
            (row.launch_us.mean - 1.51).abs() < 0.1,
            "launch={}",
            row.launch_us.mean
        );
        assert!(
            (row.wait_us.mean - 0.14).abs() < 0.05,
            "wait={}",
            row.wait_us.mean
        );
        assert!(
            (row.hd_latency_us.mean - 12.91).abs() < 0.5,
            "hd={}",
            row.hd_latency_us.mean
        );
        assert_eq!(row.d2d_latency_us.len(), 4);
    }

    #[test]
    fn v100_vs_a100_launch_hierarchy() {
        let summit = run_machine(
            &doe_machines::by_name("Summit").unwrap(),
            &Campaign::quick(),
        );
        let perl = run_machine(
            &doe_machines::by_name("Perlmutter").unwrap(),
            &Campaign::quick(),
        );
        // The paper's headline hierarchy: 4-5 us on V100, under 2 us on A100.
        assert!(summit.launch_us.mean > 4.0);
        assert!(perl.launch_us.mean < 2.5);
        assert!(summit.wait_us.mean > 3.0);
        assert!(perl.wait_us.mean < 1.5);
    }

    #[test]
    fn render_contains_all_columns() {
        let m = doe_machines::by_name("Tioga").unwrap();
        let rows = vec![run_machine(&m, &Campaign::quick())];
        let t = render(&rows);
        assert_eq!(t.headers.len(), 9);
        assert!(t.to_markdown().contains("132. Tioga"));
        assert!(!render_comparison(&rows).rows.is_empty());
    }
}
