//! Table and figure rendering with paper-reference comparison.
//!
//! The suite's deliverable is the paper's tables regenerated from
//! simulation. This crate owns the presentation layer: the typed
//! [`TableResult`] and a small string [`Table`], both written by one
//! set of ASCII / Markdown / CSV / JSON writers; the `mean ± σ` cell
//! format the paper uses; and [`Comparison`] cells that show
//! paper-vs-measured deltas for EXPERIMENTS.md.

use std::fmt::Write as _;

pub mod chart;
pub mod compare;
pub mod json;
pub mod result;
pub mod table;

pub use chart::{LineChart, Series};
pub use compare::Comparison;
pub use json::Json;
pub use result::{render, CellValue, Column, Format, ResultRow, TableResult, Unit};
pub use table::Table;

/// Format a mean/σ pair the way the paper's tables print them.
pub fn pm(mean: f64, std: f64) -> String {
    let mut out = String::new();
    write_pm(mean, std, &mut out);
    out
}

/// Append [`pm`]'s rendering to `out`.
// doebench::hot
fn write_pm(mean: f64, std: f64, out: &mut String) {
    let _ = write!(out, "{mean:.2} ± {std:.2}");
}

/// Format a [`doe_benchlib::Summary`] the same way.
pub fn pm_summary(s: &doe_benchlib::Summary) -> String {
    pm(s.mean, s.std)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pm_format() {
        assert_eq!(pm(12.916, 0.021), "12.92 ± 0.02");
        assert_eq!(pm(0.4449, 0.0), "0.44 ± 0.00");
    }
}
