//! Structured table results and the single render path.
//!
//! The table builders in `doebench` used to hand back a stringly
//! [`Table`] and let each CLI subcommand pick a renderer; the daemon
//! needs the *values* (means, sigmas, units) so cached cells can be
//! re-rendered into any format without re-running anything. This module
//! is that contract: a [`TableResult`] keeps typed cells
//! ([`CellValue`]), per-column [`Unit`]s, and the citation keys its
//! text cells reference, and [`TableResult::write`] is the one place any
//! surface — CLI, daemon, report bundle — turns it into ascii / markdown
//! / csv / json.
//!
//! Every format is written in one pass straight into the caller's
//! buffer. JSON goes out field by field in the canonical (sorted) key
//! order of [`crate::json`], through its string and number writers, with
//! no `Json` tree in between. The text formats format each cell once
//! into a per-thread arena and lay out from it (see [`crate::table`]),
//! the same writers [`Table`] renders through. A warm thread renders
//! without allocating.
//!
//! Rendering is a pure function of the value, so a `TableResult`
//! assembled from cached cells renders byte-identically to one from a
//! cold run — the property the daemon's cache-hit contract tests pin.

use std::fmt::Write as _;

use doe_benchlib::Summary;

use crate::json::{write_array, write_num, write_str};
use crate::table::{with_cells, write_ascii, write_csv, write_markdown, Cells, Table};
use crate::write_pm;

/// Physical unit of a column, carried for API consumers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless / textual.
    None,
    /// Gigabytes per second (the paper's bandwidth columns).
    GbPerS,
    /// Microseconds (the paper's latency columns).
    Micros,
    /// Bytes (message-size columns).
    Bytes,
}

impl Unit {
    /// Unit label used in the JSON rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::None => "",
            Unit::GbPerS => "GB/s",
            Unit::Micros => "us",
            Unit::Bytes => "B",
        }
    }
}

/// One column: header name plus unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Column {
    /// Header text (exactly the paper's column headers).
    pub name: String,
    /// Unit of the column's numeric cells.
    pub unit: Unit,
}

/// One typed cell.
#[derive(Clone, Debug, PartialEq)]
pub enum CellValue {
    /// Literal text (row labels, citation strings).
    Text(String),
    /// A `mean ± σ` statistic.
    Stat(Summary),
    /// A `min–max` range (Table 7 cells).
    Range {
        /// Smallest pooled mean.
        min: f64,
        /// Largest pooled mean.
        max: f64,
    },
    /// No value for this cell (e.g. absent link class).
    Missing,
}

impl CellValue {
    /// The display string — exactly what the legacy tables printed.
    pub fn display(&self) -> String {
        let mut out = String::new();
        self.write_display(&mut out);
        out
    }

    /// Append the display string to `out`.
    // doebench::hot
    fn write_display(&self, out: &mut String) {
        match self {
            CellValue::Text(s) => out.push_str(s),
            CellValue::Stat(s) => write_pm(s.mean, s.std, out),
            CellValue::Range { min, max } => {
                let _ = write!(out, "{min:.2}-{max:.2}");
            }
            CellValue::Missing => {}
        }
    }

    /// Append the canonical JSON value: a string, a statistic object, a
    /// range object or `null`.
    // doebench::hot
    fn write_json(&self, out: &mut String) {
        match self {
            CellValue::Text(s) => write_str(s, out),
            CellValue::Stat(s) => write_num_object(
                &[
                    ("ci95", s.ci95_half_width),
                    ("max", s.max),
                    ("mean", s.mean),
                    ("median", s.median),
                    ("min", s.min),
                    ("n", s.n as f64),
                    ("std", s.std),
                ],
                out,
            ),
            CellValue::Range { min, max } => write_num_object(&[("max", *max), ("min", *min)], out),
            CellValue::Missing => out.push_str("null"),
        }
    }
}

/// Append `{"key":number,…}`. `fields` come in sorted key order, and the
/// keys need no escaping.
// doebench::hot
fn write_num_object(fields: &[(&str, f64)], out: &mut String) {
    out.push('{');
    for (i, &(key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(key);
        out.push_str("\":");
        write_num(value, out);
    }
    out.push('}');
}

/// One row: the cells (first cell is the row label) plus the machine the
/// row depends on, which is what the daemon's per-machine cache
/// invalidation keys off.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultRow {
    /// Machine this row was computed from, if any.
    pub machine: Option<String>,
    /// Cells in column order.
    pub cells: Vec<CellValue>,
}

impl ResultRow {
    /// The row label (first cell's display string).
    pub fn label(&self) -> String {
        self.cells
            .first()
            .map(CellValue::display)
            .unwrap_or_default()
    }
}

/// A fully structured table: what `table4::run` & friends now return the
/// renderable essence of.
#[derive(Clone, Debug, PartialEq)]
pub struct TableResult {
    /// Stable identifier (`"table4"`, `"sweep"`, …).
    pub id: String,
    /// Table caption, exactly as printed.
    pub title: String,
    /// Columns with units.
    pub columns: Vec<Column>,
    /// Rows.
    pub rows: Vec<ResultRow>,
    /// Bracketed citation keys (`"[13]"`, …) referenced by text cells,
    /// sorted and deduplicated.
    pub citations: Vec<String>,
}

impl TableResult {
    /// An empty result with id and title.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        TableResult {
            id: id.into(),
            title: title.into(),
            columns: Vec::new(),
            rows: Vec::new(),
            citations: Vec::new(),
        }
    }

    /// Append a column.
    pub fn push_column(&mut self, name: impl Into<String>, unit: Unit) {
        self.columns.push(Column {
            name: name.into(),
            unit,
        });
    }

    /// Append a row and harvest citation keys from its text cells.
    pub fn push_row(&mut self, machine: Option<&str>, cells: Vec<CellValue>) {
        for c in &cells {
            if let CellValue::Text(s) = c {
                extract_citations(s, &mut self.citations);
            }
        }
        self.rows.push(ResultRow {
            machine: machine.map(str::to_string),
            cells,
        });
    }

    /// Lower to the stringly [`Table`] (the model the bundle, the
    /// EXPERIMENTS report and the benches print). Its cells are the
    /// display strings [`TableResult::write`] lays out, so both render
    /// the same bytes.
    pub fn to_table(&self) -> Table {
        let headers: Vec<&str> = self.columns.iter().map(|c| c.name.as_str()).collect();
        let mut t = Table::new(self.title.clone(), &headers);
        for row in &self.rows {
            t.push_row(row.cells.iter().map(CellValue::display).collect());
        }
        t
    }

    /// Append the table in format `f` to `out` — the one render path.
    // doebench::hot
    pub fn write(&self, f: Format, out: &mut String) {
        match f {
            Format::Json => self.write_json(out),
            Format::Ascii => with_cells(|cells| {
                self.lay_out(cells);
                write_ascii(&self.title, cells, out);
            }),
            Format::Markdown => with_cells(|cells| {
                self.lay_out(cells);
                write_markdown(&self.title, cells, out);
            }),
            Format::Csv => with_cells(|cells| {
                self.lay_out(cells);
                write_csv(cells, out);
            }),
        }
    }

    /// Format the header row and every cell once into `cells`.
    // doebench::hot
    fn lay_out(&self, cells: &mut Cells) {
        for c in &self.columns {
            cells.text.push_str(&c.name);
            cells.end_cell();
        }
        cells.end_row();
        for row in &self.rows {
            for c in &row.cells {
                c.write_display(&mut cells.text);
                cells.end_cell();
            }
            cells.end_row();
        }
    }

    /// Append the canonical JSON object. Keys go out in sorted order:
    /// `citations`, `columns` (`name`, `unit`), `id`, `rows` (`cells`,
    /// `machine`), `title`.
    // doebench::hot
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"citations\":");
        write_array(&self.citations, out, |c, out| write_str(c, out));
        out.push_str(",\"columns\":");
        write_array(&self.columns, out, |c, out| {
            out.push_str("{\"name\":");
            write_str(&c.name, out);
            out.push_str(",\"unit\":");
            write_str(c.unit.as_str(), out);
            out.push('}');
        });
        out.push_str(",\"id\":");
        write_str(&self.id, out);
        out.push_str(",\"rows\":");
        write_array(&self.rows, out, |r, out| {
            out.push_str("{\"cells\":");
            write_array(&r.cells, out, CellValue::write_json);
            out.push_str(",\"machine\":");
            match &r.machine {
                Some(m) => write_str(m, out),
                None => out.push_str("null"),
            }
            out.push('}');
        });
        out.push_str(",\"title\":");
        write_str(&self.title, out);
        out.push('}');
    }
}

/// Output format of the unified render path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Fixed-width terminal table (the CLI default).
    Ascii,
    /// GitHub-flavoured markdown.
    Markdown,
    /// RFC-4180-ish CSV.
    Csv,
    /// Canonical JSON (the daemon default).
    Json,
}

impl Format {
    /// Parse a format name (`ascii`, `md`, `markdown`, `csv`, `json`).
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "ascii" | "text" => Some(Format::Ascii),
            "md" | "markdown" => Some(Format::Markdown),
            "csv" => Some(Format::Csv),
            "json" => Some(Format::Json),
            _ => None,
        }
    }
}

/// [`TableResult::write`] into a fresh string.
pub fn render(t: &TableResult, f: Format) -> String {
    let mut out = String::new();
    t.write(f, &mut out);
    out
}

/// Harvest bracketed citation keys (`[13]`, `[4]`) from a cell string
/// into `out`, keeping it sorted and deduplicated.
pub fn extract_citations(text: &str, out: &mut Vec<String>) {
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(open) = bytes[i..].iter().position(|&b| b == b'[') {
        let start = i + open;
        let Some(close) = bytes[start + 1..].iter().position(|&b| b == b']') else {
            return;
        };
        let end = start + 1 + close;
        let inner = &text[start + 1..end];
        if !inner.is_empty() && inner.bytes().all(|b| b.is_ascii_digit()) {
            let key = &text[start..=end];
            if let Err(pos) = out.binary_search_by(|k| k.as_str().cmp(key)) {
                out.insert(pos, key.to_string());
            }
        }
        i = end + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(mean: f64, std: f64) -> Summary {
        Summary {
            n: 10,
            mean,
            std,
            min: mean - std,
            max: mean + std,
            median: mean,
            ci95_half_width: std / 2.0,
        }
    }

    fn sample() -> TableResult {
        let mut t = TableResult::new("demo", "Table X: demo");
        t.push_column("Rank/Name", Unit::None);
        t.push_column("Single", Unit::GbPerS);
        t.push_column("Peak", Unit::GbPerS);
        t.push_row(
            Some("Frontier"),
            vec![
                CellValue::Text("1. Frontier".into()),
                CellValue::Stat(stat(13.45, 0.02)),
                CellValue::Text("281.50 [13]".into()),
            ],
        );
        t
    }

    #[test]
    fn display_matches_legacy_cell_formats() {
        assert_eq!(
            CellValue::Stat(stat(12.916, 0.021)).display(),
            "12.92 ± 0.02"
        );
        assert_eq!(
            CellValue::Range {
                min: 0.44,
                max: 0.5
            }
            .display(),
            "0.44-0.50"
        );
        assert_eq!(CellValue::Missing.display(), "");
    }

    #[test]
    fn render_paths_agree_with_table_renderers() {
        let t = sample();
        let legacy = t.to_table();
        assert_eq!(render(&t, Format::Ascii), legacy.to_ascii());
        assert_eq!(render(&t, Format::Markdown), legacy.to_markdown());
        assert_eq!(render(&t, Format::Csv), legacy.to_csv());
    }

    #[test]
    fn json_rendering_is_canonical_and_typed() {
        let s = render(&sample(), Format::Json);
        assert!(s.contains(r#""id":"demo""#));
        assert!(s.contains(r#""unit":"GB/s""#));
        assert!(s.contains(r#""mean":13.45"#));
        // Canonical: reparse and re-render byte-stable.
        assert_eq!(crate::json::parse(&s).unwrap().canonical(), s);
    }

    #[test]
    fn citations_harvested_sorted_unique() {
        let mut t = sample();
        t.push_row(
            None,
            vec![CellValue::Text("> 450 [4] and [13] again".into())],
        );
        assert_eq!(t.citations, vec!["[13]".to_string(), "[4]".to_string()]);
    }

    #[test]
    fn non_numeric_brackets_ignored() {
        let mut out = Vec::new();
        extract_citations("(datasheet) [] [a3] -", &mut out);
        assert!(out.is_empty());
    }
}
