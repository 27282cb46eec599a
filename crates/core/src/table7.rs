//! Table 7: min–max summary ranges per accelerator generation.
//!
//! Derived entirely from the Table 5 and Table 6 results, exactly as the
//! paper derives it ("we can summarize the results of Table 5 and Table 6
//! by providing ranges for all of the mean values reported in the
//! tables").

use std::borrow::Borrow;

use doe_report::{CellValue, Table, TableResult, Unit};

use crate::{table5, table6};

/// The three accelerator generations of the study.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Accelerator {
    /// Summit, Sierra, Lassen.
    V100,
    /// Perlmutter, Polaris.
    A100,
    /// Frontier, RZVernal, Tioga.
    Mi250x,
}

impl Accelerator {
    /// All generations in the paper's row order.
    pub const ALL: [Accelerator; 3] = [Accelerator::V100, Accelerator::A100, Accelerator::Mi250x];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            Accelerator::V100 => "V100",
            Accelerator::A100 => "A100",
            Accelerator::Mi250x => "MI250X",
        }
    }

    /// Which generation a machine belongs to, by name.
    pub fn of_machine(name: &str) -> Option<Accelerator> {
        match name {
            "Summit" | "Sierra" | "Lassen" => Some(Accelerator::V100),
            "Perlmutter" | "Polaris" => Some(Accelerator::A100),
            "Frontier" | "RZVernal" | "Tioga" => Some(Accelerator::Mi250x),
            _ => None,
        }
    }
}

/// A `min–max` range over machine means.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Range {
    /// Smallest mean in the group.
    pub min: f64,
    /// Largest mean in the group.
    pub max: f64,
}

impl Range {
    fn from_values(values: impl IntoIterator<Item = f64>) -> Option<Range> {
        let mut it = values.into_iter();
        let first = it.next()?;
        let mut r = Range {
            min: first,
            max: first,
        };
        for v in it {
            r.min = r.min.min(v);
            r.max = r.max.max(v);
        }
        Some(r)
    }

    /// `"min-max"` with two decimals, like the paper's cells.
    pub fn cell(&self) -> String {
        format!("{:.2}-{:.2}", self.min, self.max)
    }
}

/// One regenerated row of Table 7.
#[derive(Clone, Debug)]
pub struct Row {
    /// Generation.
    pub accelerator: Accelerator,
    /// Device memory bandwidth range, GB/s.
    pub memory_bw: Range,
    /// Device MPI latency range, µs (all classes pooled).
    pub mpi_latency: Range,
    /// Kernel launch latency range, µs.
    pub kernel_launch: Range,
    /// Kernel wait latency range, µs.
    pub kernel_wait: Range,
    /// H2D/D2H latency range, µs.
    pub hd_latency: Range,
    /// H2D/D2H bandwidth range, GB/s.
    pub hd_bandwidth: Range,
    /// Device-to-device copy latency range, µs (all classes pooled).
    pub d2d_latency: Range,
}

/// Aggregate Table 5 + Table 6 rows into Table 7's ranges.
pub fn summarize(t5: &[table5::Row], t6: &[table6::Row]) -> Vec<Row> {
    summarize_by(t5, t6)
}

/// [`summarize`] over owned or borrowed rows.
pub(crate) fn summarize_by<R5: Borrow<table5::Row>, R6: Borrow<table6::Row>>(
    t5: &[R5],
    t6: &[R6],
) -> Vec<Row> {
    Accelerator::ALL
        .iter()
        .filter_map(|&acc| {
            let in5: Vec<&table5::Row> = t5
                .iter()
                .map(R5::borrow)
                .filter(|r| Accelerator::of_machine(&r.machine) == Some(acc))
                .collect();
            let in6: Vec<&table6::Row> = t6
                .iter()
                .map(R6::borrow)
                .filter(|r| Accelerator::of_machine(&r.machine) == Some(acc))
                .collect();
            if in5.is_empty() || in6.is_empty() {
                return None;
            }
            Some(Row {
                accelerator: acc,
                memory_bw: Range::from_values(in5.iter().map(|r| r.device_bw.mean))?,
                mpi_latency: Range::from_values(
                    in5.iter().flat_map(|r| r.d2d.values().map(|s| s.mean)),
                )?,
                kernel_launch: Range::from_values(in6.iter().map(|r| r.launch_us.mean))?,
                kernel_wait: Range::from_values(in6.iter().map(|r| r.wait_us.mean))?,
                hd_latency: Range::from_values(in6.iter().map(|r| r.hd_latency_us.mean))?,
                hd_bandwidth: Range::from_values(in6.iter().map(|r| r.hd_bandwidth_gb_s.mean))?,
                d2d_latency: Range::from_values(
                    in6.iter()
                        .flat_map(|r| r.d2d_latency_us.values().map(|s| s.mean)),
                )?,
            })
        })
        .collect()
}

/// Run Tables 5 and 6 and summarize (convenience for the bench/CLI).
pub fn run(c: &crate::Campaign) -> Vec<Row> {
    let t5 = table5::run(c);
    let t6 = table6::run(c);
    summarize(&t5, &t6)
}

impl Range {
    fn value(&self) -> CellValue {
        CellValue::Range {
            min: self.min,
            max: self.max,
        }
    }
}

/// Assemble rows into the structured table (the paper's layout, typed).
pub fn result(rows: &[Row]) -> TableResult {
    let mut t = TableResult::new(
        "table7",
        "Table 7: min-max ranges across accelerator generations",
    );
    t.push_column("Accelerator", Unit::None);
    t.push_column("Memory BW", Unit::GbPerS);
    t.push_column("MPI Lat.", Unit::Micros);
    t.push_column("Kernel Launch", Unit::Micros);
    t.push_column("Kernel Wait", Unit::Micros);
    t.push_column("H2D/D2H Lat.", Unit::Micros);
    t.push_column("H2D/D2H BW", Unit::GbPerS);
    t.push_column("D2D Lat.", Unit::Micros);
    for r in rows {
        t.push_row(
            None,
            vec![
                CellValue::Text(r.accelerator.label().to_string()),
                r.memory_bw.value(),
                r.mpi_latency.value(),
                r.kernel_launch.value(),
                r.kernel_wait.value(),
                r.hd_latency.value(),
                r.hd_bandwidth.value(),
                r.d2d_latency.value(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Campaign;

    #[test]
    fn machine_grouping() {
        assert_eq!(Accelerator::of_machine("Summit"), Some(Accelerator::V100));
        assert_eq!(Accelerator::of_machine("Polaris"), Some(Accelerator::A100));
        assert_eq!(Accelerator::of_machine("Tioga"), Some(Accelerator::Mi250x));
        assert_eq!(Accelerator::of_machine("Eagle"), None);
    }

    #[test]
    fn range_cell_format() {
        let r = Range {
            min: 0.44,
            max: 0.5,
        };
        assert_eq!(r.cell(), "0.44-0.50");
    }

    #[test]
    fn summarize_pools_classes_and_machines() {
        // Two MI250X machines suffice to exercise the pooling logic.
        let c = Campaign::quick();
        let machines: Vec<_> = ["Frontier", "RZVernal"]
            .iter()
            .map(|n| doe_machines::by_name(n).unwrap())
            .collect();
        let t5: Vec<_> = machines
            .iter()
            .map(|m| table5::run_machine(m, &c))
            .collect();
        let t6: Vec<_> = machines
            .iter()
            .map(|m| table6::run_machine(m, &c))
            .collect();
        let rows = summarize(&t5, &t6);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.accelerator, Accelerator::Mi250x);
        assert!(r.memory_bw.min <= r.memory_bw.max);
        // The MI250X hallmarks: sub-us device MPI, ~10-13 us D2D copies.
        assert!(r.mpi_latency.max < 1.0);
        assert!(r.d2d_latency.min > 5.0);
        assert!(render(&rows).to_ascii().contains("MI250X"));
    }
}
