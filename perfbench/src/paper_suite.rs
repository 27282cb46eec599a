//! `paper-suite`: regenerate Tables 4–7 under the paper's protocol the
//! way a reader does, `query::run_query(suite@paper)` plus the ASCII
//! body, in-process on a one-worker pool.

use std::sync::Arc;
use std::time::Instant;

use doebench::benchlib::par::set_jobs;
use doebench::experiments::{Manifest, Results};
use doebench::query::{self, fnv1a64, Query, QueryError, RowValue, CODE_VERSION};
use doebench::report::Format;
use doebench::{sched, table7, verify};

use crate::calib::{Calibrator, Timing};
use crate::report::{self, measure, RunResult, Window};
use crate::stats::{Rng, Samples, Tally};
use crate::trace::{secs, Attribution, Mirror};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One untraced operation: parse, run, render.
fn regenerate(text: &str) -> Result<String, QueryError> {
    let q = Query::parse_shorthand(text)?;
    Ok(query::run_query(&q)?.body(Format::Ascii))
}

/// Recompute the suite cell by cell, check every paper claim on its rows,
/// and return the assembled body. Each table's cells run as their own
/// fan-out so the manifest records per-table wall time.
fn verify_claims(text: &str, notes: &mut Vec<String>) -> Result<(String, bool), String> {
    let q = Query::parse_shorthand(text).map_err(|e| e.to_string())?;
    let plan = query::plan(&q).map_err(|e| e.to_string())?;
    let mut values: Vec<Option<Arc<RowValue>>> = vec![None; plan.cells().len()];
    let mut wall = [0.0; 3];
    for (table, w) in ["table4", "table5", "table6"].into_iter().zip(&mut wall) {
        let idx: Vec<usize> = (0..plan.cells().len())
            .filter(|&i| plan.cells()[i].key.table == table)
            .collect();
        let t = Instant::now();
        let computed = sched::run_cells(&idx, |&i| Arc::new(plan.compute(i)));
        *w = secs(t);
        for (i, v) in idx.into_iter().zip(computed) {
            values[i] = Some(v);
        }
    }
    let values: Vec<Arc<RowValue>> = values
        .into_iter()
        .map(|v| v.ok_or("a suite cell belongs to no table"))
        .collect::<Result<_, _>>()?;
    let (mut t4, mut t5, mut t6) = (Vec::new(), Vec::new(), Vec::new());
    for v in &values {
        match v.as_ref() {
            RowValue::T4(r) => t4.push(r.clone()),
            RowValue::T5(r) => t5.push(r.clone()),
            RowValue::T6(r) => t6.push(r.clone()),
            RowValue::Sweep(_) => return Err("suite plan holds a sweep cell".into()),
        }
    }
    let c = plan.campaign();
    let results = Results {
        table7: table7::summarize(&t5, &t6),
        table4: t4,
        table5: t5,
        table6: t6,
        manifest: Manifest {
            suite_version: CODE_VERSION,
            seed: c.seed,
            reps: (
                c.stream_cpu.reps,
                c.stream_gpu.reps,
                c.osu.reps,
                c.commscope.reps,
            ),
            wall_secs: (wall[0], wall[1], wall[2]),
        },
    };
    let claims = verify::claims(&results);
    let failed: Vec<_> = claims.iter().filter(|c| !c.pass).collect();
    notes.push(format!(
        "paper claims: {} of {} pass",
        claims.len() - failed.len(),
        claims.len()
    ));
    for c in &failed {
        notes.push(format!("claim failed: {} ({})", c.name, c.detail));
    }
    let body = plan
        .assemble(&values)
        .map_err(|e| e.to_string())?
        .body(Format::Ascii);
    Ok((body, failed.is_empty()))
}

/// What the window measured.
#[derive(Default)]
struct Ops {
    latency: Timing,
    tally: Tally,
    bodies: Vec<(u64, usize)>,
    attribution: Attribution,
    traced: Samples,
    untraced: Samples,
    errors: Vec<String>,
}

/// Run the workload.
pub fn run(seed: u64, seconds: u64, trace: bool) -> RunResult {
    let qseed = Rng::new(seed, 3).next_u64();
    let text = format!("suite@paper seed={qseed:#x}");
    let warm = format!("suite seed={qseed:#x}");

    // Set-up: pin the pool, resolve the query, and warm every code path
    // and the machine registry with one quick-profile suite.
    let mut cal = Calibrator::default();
    let mut setup = Timing::default();
    for _ in 0..SETUPS {
        let (done, dt, factor) = cal.bracket(|| {
            set_jobs(1);
            let planned = Query::parse_shorthand(&text).and_then(|q| query::plan(&q));
            planned.and_then(|_| regenerate(&warm))
        });
        if let Err(e) = done {
            return RunResult::failed(format!("set-up: {e}"));
        }
        setup.push(dt, factor);
    }

    let mirror = trace.then(Mirror::uncached);
    let win: Window<Ops> = measure(seconds, |deadline| {
        let mut ops = Ops::default();
        let mut op = 0u64;
        while Instant::now() < deadline {
            let traced = trace && op % 2 == 1;
            op += 1;
            let (body, dt, factor) = cal.bracket(|| match &mirror {
                Some(m) if traced => m.replay(&text, false, Format::Ascii).map(|r| {
                    ops.attribution.add(r.spans.total, None, &r.spans);
                    ops.traced.push(r.spans.total);
                    r.body
                }),
                _ => regenerate(&text).map_err(|e| e.to_string()),
            });
            match body {
                Ok(b) => {
                    if trace && !traced {
                        ops.untraced.push(dt);
                    }
                    ops.latency.push(dt, factor);
                    ops.tally.record(true);
                    ops.bodies.push((fnv1a64(b.as_bytes()), b.len()));
                }
                Err(e) => {
                    ops.tally.record(false);
                    ops.errors.push(e);
                }
            }
        }
        ops
    });
    let Window {
        out: mut ops,
        seconds: window_s,
        shard_windows,
        shard_cross_events,
        rss_mb,
        steal_frac,
    } = win;

    let mut notes = vec![
        format!("query: {text}, pool workers: 1"),
        format!("host steal during the window: {:.2}%", steal_frac * 100.0),
    ];
    notes.append(&mut ops.errors);
    let mut correct = ops.tally.failed == 0 && ops.latency.len() > 0;
    match verify_claims(&text, &mut notes) {
        Ok((body, claims_pass)) => {
            let expect = (fnv1a64(body.as_bytes()), body.len());
            let differ = ops.bodies.iter().filter(|&&b| b != expect).count();
            if differ > 0 {
                notes.push(format!(
                    "{differ} of {} bodies differ from the cell-by-cell answer",
                    ops.bodies.len()
                ));
                ops.tally.failed += differ as u64;
            }
            correct &= claims_pass && differ == 0;
        }
        Err(e) => {
            notes.push(format!("verification: {e}"));
            correct = false;
        }
    }
    let metrics = if trace {
        let (m, mut shares) = report::per_layer(
            &ops.attribution,
            &mut ops.traced,
            &mut ops.untraced,
            shard_windows,
            shard_cross_events,
        );
        notes.append(&mut shares);
        m
    } else {
        report::end_to_end(
            &mut setup,
            &mut ops.latency,
            1,
            (window_s, steal_frac),
            ops.tally,
            (rss_mb, "VmHWM when the window closed, MiB".to_string()),
            &mut cal.probes,
        )
    };
    RunResult {
        correct,
        tally: ops.tally,
        metrics,
        notes,
    }
}
