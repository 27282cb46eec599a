//! The one-pass writers against independent oracles.
//!
//! JSON: every rendering must equal the canonical serialization of a
//! `Json` tree this test builds itself, field by field, so key order,
//! escaping, non-finite numbers, `null` machines and empty tables are
//! all checked against the `BTreeMap` ordering rather than against the
//! writer's own idea of it. Text: every rendering must equal a naive
//! per-cell `format!`/`join` reference (the shape of the renderers the
//! writers replaced), and the layout quirks the paper tables rely on are
//! pinned as literal expected strings.

use doe_benchlib::Summary;
use doe_report::json::{self, Json};
use doe_report::{render, CellValue, Format, Table, TableResult, Unit};
use proptest::prelude::*;

/// Characters that stress escaping and width counting: quotes,
/// backslashes, control characters, multi-byte and astral code points,
/// CSV separators and citation brackets.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', '1', '3', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}',
    '\u{7f}', '±', 'µ', 'σ', '😀', ',', '[', ']', '-', '|',
];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(ALPHABET.to_vec()), 0..8)
        .prop_map(|cs| cs.into_iter().collect())
}

fn number() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e6f64..1e6,
        prop::sample::select(vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1e300,
            5e-324,
            0.1,
        ]),
    ]
}

fn cell() -> impl Strategy<Value = CellValue> {
    prop_oneof![
        text().prop_map(CellValue::Text),
        (0usize..1000, number(), number(), number(), number()).prop_map(
            |(n, mean, std, min, max)| CellValue::Stat(Summary {
                n,
                mean,
                std,
                min,
                max,
                median: mean,
                ci95_half_width: std,
            })
        ),
        (number(), number()).prop_map(|(min, max)| CellValue::Range { min, max }),
        Just(CellValue::Missing),
    ]
}

fn unit() -> impl Strategy<Value = Unit> {
    prop::sample::select(vec![Unit::None, Unit::GbPerS, Unit::Micros, Unit::Bytes])
}

/// Tables of 0–3 columns and 0–3 rows of 0–4 cells: ragged, empty and
/// column-less tables included.
fn table() -> impl Strategy<Value = TableResult> {
    (
        text(),
        text(),
        prop::collection::vec((text(), unit()), 0..4),
        prop::collection::vec(
            (any::<bool>(), text(), prop::collection::vec(cell(), 0..5)),
            0..4,
        ),
    )
        .prop_map(|(id, title, columns, rows)| {
            let mut t = TableResult::new(id, title);
            for (name, unit) in columns {
                t.push_column(name, unit);
            }
            for (has_machine, machine, cells) in rows {
                t.push_row(has_machine.then_some(machine.as_str()), cells);
            }
            t
        })
}

fn cell_tree(c: &CellValue) -> Json {
    match c {
        CellValue::Text(s) => Json::s(s.clone()),
        CellValue::Stat(s) => Json::obj([
            ("mean", Json::Num(s.mean)),
            ("std", Json::Num(s.std)),
            ("n", Json::Num(s.n as f64)),
            ("min", Json::Num(s.min)),
            ("max", Json::Num(s.max)),
            ("median", Json::Num(s.median)),
            ("ci95", Json::Num(s.ci95_half_width)),
        ]),
        CellValue::Range { min, max } => {
            Json::obj([("min", Json::Num(*min)), ("max", Json::Num(*max))])
        }
        CellValue::Missing => Json::Null,
    }
}

fn table_tree(t: &TableResult) -> Json {
    Json::obj([
        ("id", Json::s(t.id.clone())),
        ("title", Json::s(t.title.clone())),
        (
            "columns",
            Json::Arr(
                t.columns
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::s(c.name.clone())),
                            ("unit", Json::s(c.unit.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "rows",
            Json::Arr(
                t.rows
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("machine", r.machine.clone().map_or(Json::Null, Json::Str)),
                            ("cells", Json::Arr(r.cells.iter().map(cell_tree).collect())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "citations",
            Json::Arr(t.citations.iter().cloned().map(Json::Str).collect()),
        ),
    ])
}

fn padded(row: &[String], i: usize) -> &str {
    row.get(i).map_or("", String::as_str)
}

fn reference_ascii(title: &str, headers: &[String], rows: &[Vec<String>]) -> String {
    let cols = rows
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
        .max(headers.len());
    let mut w = vec![0; cols];
    for row in std::iter::once(headers).chain(rows.iter().map(Vec::as_slice)) {
        for (i, c) in row.iter().enumerate() {
            w[i] = w[i].max(c.chars().count());
        }
    }
    let rule = w
        .iter()
        .map(|&n| "-".repeat(n + 2))
        .collect::<Vec<_>>()
        .join("+");
    let line = |row: &[String]| {
        (0..cols)
            .map(|i| format!(" {:<width$} ", padded(row, i), width = w[i]))
            .collect::<Vec<_>>()
            .join("|")
    };
    let mut out = format!("{title}\n{rule}\n{}\n{rule}\n", line(headers));
    for row in rows {
        out += &format!("{}\n", line(row));
    }
    out + &rule + "\n"
}

fn reference_markdown(title: &str, headers: &[String], rows: &[Vec<String>]) -> String {
    let mut out = format!(
        "**{title}**\n\n| {} |\n|{}|\n",
        headers.join(" | "),
        vec!["---"; headers.len()].join("|")
    );
    for row in rows {
        let cells: Vec<&str> = (0..headers.len()).map(|i| padded(row, i)).collect();
        out += &format!("| {} |\n", cells.join(" | "));
    }
    out
}

fn reference_csv(headers: &[String], rows: &[Vec<String>]) -> String {
    let esc = |s: &str| {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let mut out = String::new();
    for row in std::iter::once(headers).chain(rows.iter().map(Vec::as_slice)) {
        let cells: Vec<String> = (0..headers.len()).map(|i| esc(padded(row, i))).collect();
        out += &cells.join(",");
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_writer_equals_the_canonical_tree(t in table()) {
        let written = render(&t, Format::Json);
        prop_assert_eq!(&written, &table_tree(&t).canonical());
        // Canonical: it parses, and re-renders byte-stable.
        prop_assert_eq!(json::parse(&written).unwrap().canonical(), written);
    }

    #[test]
    fn text_writers_equal_the_format_join_reference(t in table()) {
        let cells: Vec<Vec<String>> = t
            .rows
            .iter()
            .map(|r| r.cells.iter().map(CellValue::display).collect())
            .collect();
        let headers: Vec<String> = t.columns.iter().map(|c| c.name.clone()).collect();
        prop_assert_eq!(render(&t, Format::Ascii), reference_ascii(&t.title, &headers, &cells));
        prop_assert_eq!(
            render(&t, Format::Markdown),
            reference_markdown(&t.title, &headers, &cells)
        );
        prop_assert_eq!(render(&t, Format::Csv), reference_csv(&headers, &cells));
    }
}

#[test]
fn non_finite_numbers_render_as_null() {
    let mut t = TableResult::new("x", "X");
    t.push_row(
        None,
        vec![CellValue::Range {
            min: f64::NAN,
            max: f64::INFINITY,
        }],
    );
    assert_eq!(
        render(&t, Format::Json),
        r#"{"citations":[],"columns":[],"id":"x","rows":[{"cells":[{"max":null,"min":null}],"machine":null}],"title":"X"}"#
    );
}

#[test]
fn an_empty_table_is_a_title_and_its_rules() {
    let t = TableResult::new("e", "Empty");
    assert_eq!(render(&t, Format::Ascii), "Empty\n\n\n\n\n");
    assert_eq!(render(&t, Format::Markdown), "**Empty**\n\n|  |\n||\n");
    assert_eq!(render(&t, Format::Csv), "\n");
    assert_eq!(
        render(&t, Format::Json),
        r#"{"citations":[],"columns":[],"id":"e","rows":[],"title":"Empty"}"#
    );
}

#[test]
fn ascii_pads_to_the_longest_row_and_markdown_and_csv_stop_at_the_headers() {
    let mut t = Table::new("T", &["a", "bb"]);
    t.push_row(vec!["x".into()]);
    t.push_row(vec!["1".into(), "2".into(), "333".into()]);
    assert_eq!(
        t.to_ascii(),
        "T\n\
         ---+----+-----\n \
         a | bb |     \n\
         ---+----+-----\n \
         x |    |     \n \
         1 | 2  | 333 \n\
         ---+----+-----\n"
    );
    assert_eq!(
        t.to_markdown(),
        "**T**\n\n| a | bb |\n|---|---|\n| x |  |\n| 1 | 2 |\n"
    );
    assert_eq!(t.to_csv(), "a,bb\nx,\n1,2\n");
}

#[test]
fn csv_quotes_separators_quotes_and_newlines() {
    let mut t = Table::new("t", &["name", "note"]);
    t.push_row(vec!["x,y".into(), "say \"hi\"".into()]);
    t.push_row(vec!["multi\nline".into(), "plain".into()]);
    assert_eq!(
        t.to_csv(),
        "name,note\n\"x,y\",\"say \"\"hi\"\"\"\n\"multi\nline\",plain\n"
    );
}

#[test]
fn ascii_width_counts_plus_minus_as_one_column() {
    let mut t = TableResult::new("s", "S");
    t.push_column("v", Unit::GbPerS);
    t.push_row(
        None,
        vec![CellValue::Stat(Summary {
            n: 1,
            mean: 1.0,
            std: 0.0,
            min: 1.0,
            max: 1.0,
            median: 1.0,
            ci95_half_width: 0.0,
        })],
    );
    assert_eq!(
        render(&t, Format::Ascii),
        "S\n\
         -------------\n \
         v           \n\
         -------------\n \
         1.00 ± 0.00 \n\
         -------------\n"
    );
}
