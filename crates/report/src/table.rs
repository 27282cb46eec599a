//! A minimal table model and the three text writers.
//!
//! Every text table — a [`Table`] of strings or a typed
//! [`crate::TableResult`] — is first laid out as `Cells`: each cell's
//! text formatted once into one arena, with its end offset and its width
//! in `chars()`. The ASCII, Markdown and CSV writers then pad, join or
//! quote from that arena straight into the caller's buffer. The arena is
//! per thread and reused, so a warm thread renders without allocating.

use std::cell::RefCell;

/// A rectangular table with a title, headers, and string cells.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows; ragged rows are padded with empty cells when rendering.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with a title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Lay the table out and hand the cells to `write`.
    fn write_with(&self, write: impl FnOnce(&mut Cells, &mut String)) -> String {
        let mut out = String::new();
        with_cells(|cells| {
            for row in std::iter::once(&self.headers).chain(&self.rows) {
                for c in row {
                    cells.text.push_str(c);
                    cells.end_cell();
                }
                cells.end_row();
            }
            write(cells, &mut out);
        });
        out
    }

    /// Fixed-width ASCII rendering for terminals.
    pub fn to_ascii(&self) -> String {
        self.write_with(|cells, out| write_ascii(&self.title, cells, out))
    }

    /// GitHub-flavoured Markdown rendering.
    pub fn to_markdown(&self) -> String {
        self.write_with(|cells, out| write_markdown(&self.title, cells, out))
    }

    /// RFC-4180-ish CSV rendering (quotes cells containing separators).
    pub fn to_csv(&self) -> String {
        self.write_with(|cells, out| write_csv(cells, out))
    }
}

/// A table's cells laid out for the text writers: row 0 holds the
/// headers, and rows may be ragged.
#[derive(Debug, Default)]
pub(crate) struct Cells {
    /// Every cell's text, back to back. A cell under construction is the
    /// tail after the last closed cell.
    pub(crate) text: String,
    /// Per closed cell: its end offset in `text` and its width in chars.
    spans: Vec<(usize, usize)>,
    /// One past each row's last span.
    rows: Vec<usize>,
    /// Column widths (ASCII only).
    widths: Vec<usize>,
}

thread_local! {
    static CELLS: RefCell<Cells> = RefCell::default();
}

/// Run `f` on this thread's arena, emptied first. The writers never
/// re-enter this function.
pub(crate) fn with_cells<R>(f: impl FnOnce(&mut Cells) -> R) -> R {
    CELLS.with(|cells| {
        let mut cells = cells.borrow_mut();
        cells.text.clear();
        cells.spans.clear();
        cells.rows.clear();
        f(&mut cells)
    })
}

impl Cells {
    /// Close the cell whose text was appended since the last one closed.
    pub(crate) fn end_cell(&mut self) {
        let start = self.spans.last().map_or(0, |&(end, _)| end);
        let end = self.text.len();
        self.spans
            .push((end, self.text[start..end].chars().count()));
    }

    /// Close the row of the cells closed since the last row closed.
    pub(crate) fn end_row(&mut self) {
        self.rows.push(self.spans.len());
    }

    fn n_rows(&self) -> usize {
        self.rows.len()
    }

    fn span_range(&self, r: usize) -> (usize, usize) {
        (if r == 0 { 0 } else { self.rows[r - 1] }, self.rows[r])
    }

    fn row_len(&self, r: usize) -> usize {
        let (lo, hi) = self.span_range(r);
        hi - lo
    }

    /// Cell `i` of row `r` and its width; past a ragged row's end, `""`.
    fn cell(&self, r: usize, i: usize) -> (&str, usize) {
        let (lo, hi) = self.span_range(r);
        let k = lo + i;
        if k >= hi {
            return ("", 0);
        }
        let start = if k == 0 { 0 } else { self.spans[k - 1].0 };
        let (end, width) = self.spans[k];
        (&self.text[start..end], width)
    }
}

/// Fixed-width ASCII: every row padded to the longest row, each column
/// to its widest cell.
// doebench::hot
pub(crate) fn write_ascii(title: &str, cells: &mut Cells, out: &mut String) {
    let cols = (0..cells.n_rows())
        .map(|r| cells.row_len(r))
        .max()
        .unwrap_or(0);
    cells.widths.clear();
    for i in 0..cols {
        let w = (0..cells.n_rows())
            .map(|r| cells.cell(r, i).1)
            .max()
            .unwrap_or(0);
        cells.widths.push(w);
    }
    let cells = &*cells;
    let rule = |out: &mut String| {
        for (i, &w) in cells.widths.iter().enumerate() {
            if i > 0 {
                out.push('+');
            }
            out.extend(std::iter::repeat_n('-', w + 2));
        }
        out.push('\n');
    };
    let row = |out: &mut String, r: usize| {
        for (i, &w) in cells.widths.iter().enumerate() {
            if i > 0 {
                out.push('|');
            }
            let (text, width) = cells.cell(r, i);
            out.push(' ');
            out.push_str(text);
            out.extend(std::iter::repeat_n(' ', w - width + 1));
        }
        out.push('\n');
    };
    out.push_str(title);
    out.push('\n');
    rule(out);
    row(out, 0);
    rule(out);
    for r in 1..cells.n_rows() {
        row(out, r);
    }
    rule(out);
}

/// GitHub-flavoured Markdown; rows stop at the header count.
// doebench::hot
pub(crate) fn write_markdown(title: &str, cells: &Cells, out: &mut String) {
    let cols = cells.row_len(0);
    out.push_str("**");
    out.push_str(title);
    out.push_str("**\n\n");
    let row = |out: &mut String, r: usize| {
        out.push_str("| ");
        for i in 0..cols {
            if i > 0 {
                out.push_str(" | ");
            }
            out.push_str(cells.cell(r, i).0);
        }
        out.push_str(" |\n");
    };
    row(out, 0);
    out.push('|');
    for i in 0..cols {
        if i > 0 {
            out.push('|');
        }
        out.push_str("---");
    }
    out.push_str("|\n");
    for r in 1..cells.n_rows() {
        row(out, r);
    }
}

/// CSV, quoting a cell that holds a comma, a quote or a newline; rows
/// stop at the header count.
// doebench::hot
pub(crate) fn write_csv(cells: &Cells, out: &mut String) {
    let cols = cells.row_len(0);
    for r in 0..cells.n_rows() {
        for i in 0..cols {
            if i > 0 {
                out.push(',');
            }
            let text = cells.cell(r, i).0;
            if text.contains([',', '"', '\n']) {
                out.push('"');
                for c in text.chars() {
                    if c == '"' {
                        out.push('"');
                    }
                    out.push(c);
                }
                out.push('"');
            } else {
                out.push_str(text);
            }
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Table X: demo", &["Machine", "Value"]);
        t.push_row(vec!["Frontier".into(), "1.51 ± 0.00".into()]);
        t.push_row(vec!["Summit".into(), "4.84 ± 0.01".into()]);
        t
    }

    #[test]
    fn ascii_aligns_columns() {
        let s = sample().to_ascii();
        assert!(s.contains("Table X: demo"));
        assert!(s.contains("Machine"));
        let lines: Vec<&str> = s.lines().collect();
        // All body lines have equal width.
        let body: Vec<&str> = lines.iter().skip(1).copied().collect();
        let lens: Vec<usize> = body.iter().map(|l| l.chars().count()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{lens:?}");
    }

    #[test]
    fn markdown_has_header_separator() {
        let s = sample().to_markdown();
        assert!(s.contains("| Machine | Value |"));
        assert!(s.contains("|---|---|"));
        assert!(s.contains("| Frontier | 1.51 ± 0.00 |"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(vec!["x,y".into(), "say \"hi\"".into()]);
        let s = t.to_csv();
        assert!(s.contains("\"x,y\""));
        assert!(s.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn ragged_rows_pad() {
        let mut t = Table::new("t", &["a", "b", "c"]);
        t.push_row(vec!["only".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| only |  |  |"));
    }
}
