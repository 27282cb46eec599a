//! The query service: plan → acquire cells → batch-execute the cold
//! ones → assemble.
//!
//! One query's cold cells go to the worker pool as a **single**
//! `sched::run_cells` fan-out, not one dispatch per cell, exactly like
//! the offline path, and cache-hit cells cost no scheduling at all. A
//! batch of one cold cell (an override, or a one-machine query) runs
//! inline and fans out over that cell's sub-benchmarks instead
//! (`doebench::sched`). Cells owned by *another* in-flight query are
//! waited on after this query's own batch completes, so two
//! overlapping queries never compute a shared cell twice.

use std::sync::Arc;

use doebench::query::{self, Query, QueryError, QueryResult, RowValue};
use doebench::sched;

use crate::cache::{Acquire, Cache, Key};

/// How each cell of an answer was obtained (sums to the cell count).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeMeta {
    /// Cells answered from the ready cache.
    pub cached: usize,
    /// Cells this query computed (it owned the flight).
    pub executed: usize,
    /// Cells coalesced onto another query's in-flight computation.
    pub coalesced: usize,
}

impl ServeMeta {
    /// `"hit"` when nothing ran, `"miss"` when everything ran, else
    /// `"partial"` — the `X-Doebench-Cache` header value.
    pub fn verdict(&self) -> &'static str {
        if self.executed == 0 && self.coalesced == 0 {
            "hit"
        } else if self.cached == 0 && self.coalesced == 0 {
            "miss"
        } else {
            "partial"
        }
    }
}

/// The daemon's shared state: one process-wide cell cache.
pub struct QueryService {
    cache: Cache<Arc<RowValue>>,
}

impl QueryService {
    /// A service with an empty cache.
    pub fn new() -> QueryService {
        QueryService {
            cache: Cache::new(),
        }
    }

    /// The underlying cache (stats endpoint, tests).
    pub fn cache(&self) -> &Cache<Arc<RowValue>> {
        &self.cache
    }

    /// Answer a query, reporting how many cells were cached, executed,
    /// and coalesced. The body assembled here is byte-identical to an
    /// offline `query::run_query` answer: cell values are pure content,
    /// and serving metadata never touches the payload.
    pub fn answer(&self, q: &Query) -> Result<(QueryResult, ServeMeta), QueryError> {
        let plan = query::plan(q)?;
        let n = plan.cells().len();
        let mut meta = ServeMeta::default();
        let mut values: Vec<Option<Arc<RowValue>>> = vec![None; n];

        // Classify every cell in one pass: hits resolve immediately,
        // cold cells are claimed (becoming this query's batch), and
        // cells already in flight elsewhere are parked for later.
        let mut owned: Vec<(usize, crate::cache::OwnerToken<Arc<RowValue>>)> = Vec::new();
        let mut waiting: Vec<(usize, Key)> = Vec::new();
        for (i, cell) in plan.cells().iter().enumerate() {
            let key = Key::new(&cell.key.canon);
            match self.cache.acquire(&key) {
                Acquire::Hit(v) => {
                    meta.cached += 1;
                    values[i] = Some(v);
                }
                Acquire::Owner(token) => {
                    meta.executed += 1;
                    owned.push((i, token));
                }
                Acquire::Waiter(_) => {
                    // Park the key, not the flight: if the owner aborts
                    // we must re-acquire from scratch anyway.
                    meta.coalesced += 1;
                    waiting.push((i, key));
                }
            }
        }

        // One fan-out for the whole cold batch. `run_cells` preserves
        // index order, so results zip back onto their owner tokens.
        let indices: Vec<usize> = owned.iter().map(|&(i, _)| i).collect();
        let computed = sched::run_cells(&indices, |&i| Arc::new(plan.compute(i)));
        for ((i, token), v) in owned.into_iter().zip(computed) {
            token.publish(Arc::clone(&v));
            values[i] = Some(v);
        }

        // Collect cells other queries were computing. An aborted owner
        // (panicked request) degrades to computing the cell here.
        for (i, key) in waiting {
            let v = self
                .cache
                .get_or_compute(&key, || Arc::new(plan.compute(i)));
            values[i] = Some(v);
        }

        let values: Vec<Arc<RowValue>> = values
            .into_iter()
            .map(|v| v.expect("every cell resolved"))
            .collect();
        Ok((plan.assemble(&values)?, meta))
    }
}

impl Default for QueryService {
    fn default() -> Self {
        QueryService::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doe_report::Format;
    use doebench::query::{MachineSel, OverrideField, QueryParams, SpecOverride, TableId};

    fn table4_all() -> Query {
        Query::Table {
            id: TableId::Table4,
            machines: MachineSel::All,
            params: QueryParams::quick(),
        }
    }

    #[test]
    fn second_answer_is_pure_hit_and_byte_identical() {
        let svc = QueryService::new();
        let (r1, m1) = svc.answer(&table4_all()).unwrap();
        assert_eq!(m1.cached, 0);
        assert_eq!(m1.verdict(), "miss");
        assert!(m1.executed > 0);
        let (r2, m2) = svc.answer(&table4_all()).unwrap();
        assert_eq!(m2.executed, 0);
        assert_eq!(m2.coalesced, 0);
        assert_eq!(m2.verdict(), "hit");
        assert_eq!(m2.cached, m1.executed);
        for f in [Format::Ascii, Format::Markdown, Format::Csv, Format::Json] {
            assert_eq!(r1.body(f), r2.body(f), "bodies must match for {f:?}");
        }
    }

    #[test]
    fn daemon_body_matches_offline_run() {
        let svc = QueryService::new();
        let q = table4_all();
        let (served, _) = svc.answer(&q).unwrap();
        let offline = query::run_query(&q).unwrap();
        assert_eq!(served.body(Format::Ascii), offline.body(Format::Ascii));
        assert_eq!(served.body(Format::Json), offline.body(Format::Json));
    }

    #[test]
    fn override_invalidates_only_the_touched_machine() {
        let svc = QueryService::new();
        let q = Query::Table {
            id: TableId::Table4,
            machines: MachineSel::All,
            params: QueryParams::quick(),
        };
        let (_, cold) = svc.answer(&q).unwrap();
        let cells = cold.executed;
        assert!(cells >= 2, "need several machines to see precision");
        let tweaked = Query::Table {
            id: TableId::Table4,
            machines: MachineSel::All,
            params: QueryParams {
                overrides: vec![SpecOverride {
                    machine: "Eagle".into(),
                    field: OverrideField::MpiShmLatencyUs,
                    value: 0.3,
                }],
                ..QueryParams::quick()
            },
        };
        let (_, m) = svc.answer(&tweaked).unwrap();
        assert_eq!(m.executed, 1, "only Eagle's cell recomputes");
        assert_eq!(m.cached, cells - 1, "every other machine served from cache");
        assert_eq!(m.verdict(), "partial");
    }

    #[test]
    fn table7_reuses_table5_and_6_cells() {
        let svc = QueryService::new();
        let q5 = Query::Table {
            id: TableId::Table5,
            machines: MachineSel::All,
            params: QueryParams::quick(),
        };
        let q6 = Query::Table {
            id: TableId::Table6,
            machines: MachineSel::All,
            params: QueryParams::quick(),
        };
        let q7 = Query::Table {
            id: TableId::Table7,
            machines: MachineSel::All,
            params: QueryParams::quick(),
        };
        svc.answer(&q5).unwrap();
        svc.answer(&q6).unwrap();
        let (r7, m7) = svc.answer(&q7).unwrap();
        assert_eq!(m7.executed, 0, "table7 is fully derived from cached cells");
        assert_eq!(m7.verdict(), "hit");
        assert_eq!(r7.tables.len(), 1);
        assert!(!r7.tables[0].rows.is_empty());
    }
}
