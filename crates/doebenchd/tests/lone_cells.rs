//! A batch of one cold cell (a one-machine query, or an override) fans
//! out over that cell's sub-benchmarks and runs their rep loops inline;
//! a batch of several cells fans out over the cells. The numbers must not
//! depend on which: every machine's lone cell must equal its row in the
//! all-machine batch, and the daemon's answer must equal the offline one,
//! byte for byte.

use doe_report::{Format, ResultRow, TableResult};
use doebench::benchlib::set_jobs;
use doebench::machines::{catalog, Machine};
use doebench::osu::{on_node_pair, on_socket_pair};
use doebench::query::{run_query, Query, QueryResult};
use doebenchd::QueryService;

fn offline(q: &str) -> QueryResult {
    run_query(&Query::parse_shorthand(q).unwrap()).unwrap()
}

/// `q` answered by `svc` as one cold cell, checked against the offline
/// answer in every format.
fn served_lone(svc: &QueryService, q: &str) -> QueryResult {
    let (served, meta) = svc.answer(&Query::parse_shorthand(q).unwrap()).unwrap();
    assert_eq!(
        (meta.executed, meta.cached, meta.coalesced),
        (1, 0, 0),
        "{q}"
    );
    let want = offline(q);
    for f in [Format::Ascii, Format::Markdown, Format::Csv, Format::Json] {
        assert_eq!(served.body(f), want.body(f), "{q} {f:?}");
    }
    served
}

fn row_of<'a>(t: &'a TableResult, machine: &str) -> &'a ResultRow {
    t.rows
        .iter()
        .find(|r| r.machine.as_deref() == Some(machine))
        .unwrap_or_else(|| panic!("{} has no row for {machine}", t.id))
}

/// Each of `machines`' lone `table` cells against its row in the
/// all-machine batch.
fn check_table(table: &str, machines: &[&Machine]) {
    let all = offline(table);
    let svc = QueryService::new();
    for m in machines {
        let q = format!("{table} {}", m.name);
        let lone = served_lone(&svc, &q);
        assert_eq!(lone.tables.len(), 1, "{q}");
        assert_eq!(
            lone.tables[0].rows,
            [row_of(&all.tables[0], m.name).clone()],
            "{q}"
        );
    }
}

/// Each of `machines`' lone sweep cells against its two columns in the
/// sweep of all of them.
fn check_sweep(sweep: &str, machines: &[&Machine]) {
    let names: Vec<&str> = machines.iter().map(|m| m.name).collect();
    let all = offline(&format!("{sweep} {}", names.join(" ")));
    let all = &all.tables[0];
    let svc = QueryService::new();
    for (i, name) in names.iter().enumerate() {
        let q = format!("{sweep} {name}");
        let lone = served_lone(&svc, &q);
        let lone = &lone.tables[0];
        let cols = 1 + 2 * i..3 + 2 * i;
        assert_eq!(lone.columns[1..], all.columns[cols.clone()], "{q}");
        assert_eq!(lone.rows.len(), all.rows.len(), "{q}");
        for (r, a) in lone.rows.iter().zip(&all.rows) {
            assert_eq!(r.cells[0], a.cells[0], "{q}");
            assert_eq!(r.cells[1..], a.cells[cols.clone()], "{q}");
        }
    }
}

fn cpu() -> Vec<&'static Machine> {
    catalog().iter().filter(|m| !m.is_accelerated()).collect()
}

fn gpu() -> Vec<&'static Machine> {
    catalog().iter().filter(|m| m.is_accelerated()).collect()
}

fn sweepable() -> Vec<&'static Machine> {
    catalog()
        .iter()
        .filter(|m| on_socket_pair(&m.topo).is_some() && on_node_pair(&m.topo).is_some())
        .collect()
}

#[test]
fn quick_lone_cells_equal_their_rows_in_the_batch() {
    check_table("table4", &cpu());
    check_table("table5", &gpu());
    check_table("table6", &gpu());
    check_sweep("sweep", &sweepable());
}

#[test]
fn paper_lone_cells_equal_their_rows_in_the_batch() {
    let eagle = doebench::machines::find("Eagle").unwrap();
    let frontier = doebench::machines::find("Frontier").unwrap();
    check_table("table4@paper", &[eagle]);
    check_table("table5@paper", &[frontier]);
    check_table("table6@paper", &[frontier]);
    let pair: Vec<&Machine> = sweepable()
        .into_iter()
        .filter(|m| m.name == "Eagle" || m.name == "Summit")
        .collect();
    assert_eq!(pair.len(), 2, "Eagle and Summit sweep");
    check_sweep("sweep@paper", &pair);
}

/// One test, because the jobs override is process-global.
#[test]
fn batches_and_lone_cells_are_equal_at_one_and_eight_jobs() {
    let bodies = |jobs: usize| {
        set_jobs(jobs);
        [
            "table5@paper",
            "table5@paper Summit",
            "table6 Frontier",
            "sweep Eagle",
        ]
        .map(|q| offline(q).body(Format::Json))
    };
    let serial = bodies(1);
    let parallel = bodies(8);
    set_jobs(0);
    assert_eq!(serial, parallel);
}
