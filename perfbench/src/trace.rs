//! The traced replay: one query answered through the same public calls
//! the program makes, layer by layer, with a span around each call.
//!
//! `query::plan` → `doebenchd::cache` acquire → `sched::run_cells` over
//! the cold cells, each cell running the suite functions of
//! `babelstream`, `osu` and `commscope` that its table calls → cache
//! publish → `QueryPlan::assemble` → `QueryResult::body`. Every replayed
//! body is compared with the program's own answer to the same query, so
//! an attribution that stops matching the program shows up as a failure
//! rather than as wrong numbers.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use doebench::babelstream::{run_sim_cpu, run_sim_gpu};
use doebench::benchlib::par::effective_jobs;
use doebench::commscope::run_commscope;
use doebench::machines::Machine;
use doebench::osu::{on_node_pair, on_socket_pair, osu_latency, osu_latency_device, OsuConfig};
use doebench::query::{
    self, OverrideField, Query, QueryParams, QueryPlan, RowValue, SweepPoint, SweepRow,
};
use doebench::report::Format;
use doebench::simtime::SimDuration;
use doebench::topo::CoreId;
use doebench::{sched, table4, table5, table6};
use doebenchd::cache::{Acquire, Cache, Key};

/// Index of each harness suite in [`Spans::harness`] and [`HARNESS`].
const COMMSCOPE: usize = 0;
const OSU_HOST: usize = 1;
const OSU_DEVICE: usize = 2;
const STREAM_GPU: usize = 3;
const STREAM_CPU: usize = 4;

/// Per-layer metric name of each harness suite, and the runtime it drives.
pub const HARNESS: [(&str, &str); 5] = [
    ("harness.commscope_ms", "gpurt"),
    ("harness.osu_host_ms", "mpisim"),
    ("harness.osu_device_ms", "mpisim"),
    ("harness.stream_gpu_ms", "gpusim"),
    ("harness.stream_cpu_ms", "memmodel+ompsim"),
];

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Parse a request the way the daemon does: JSON bodies with
/// `Query::parse`, everything else as shorthand.
pub fn parse_request(text: &str, json: bool) -> Result<Query, String> {
    let q = if json {
        Query::parse(text)
    } else {
        Query::parse_shorthand(text)
    };
    q.map_err(|e| format!("bad query '{text}': {e}"))
}

/// Span durations (seconds) and counts of one replayed query.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    /// `Query::parse` / `Query::parse_shorthand`.
    pub parse: f64,
    /// `query::plan`, including cell-key derivation.
    pub plan: f64,
    /// Cache acquire, publish and waits on other flights.
    pub cache: f64,
    /// `QueryPlan::assemble`.
    pub assemble: f64,
    /// `QueryResult::body`.
    pub render: f64,
    /// Plan start to assemble end: the in-process answer.
    pub answer: f64,
    /// Parse start to render end.
    pub total: f64,
    /// Wall time of the `sched::run_cells` fan-out (0 when every cell hit).
    pub fanout: f64,
    /// Workers the fan-out could use: `min(pool size, cold cells)`.
    pub workers: usize,
    /// Sum of the cells' own wall times.
    pub cell_sum: f64,
    /// Sum of each harness suite's wall time over the cells.
    pub harness: [f64; 5],
    /// Cells in the plan.
    pub cells: usize,
    /// Rendered body length.
    pub body_bytes: usize,
    /// Cells served from the replay's cache.
    pub cached: usize,
    /// Cells the replay computed.
    pub executed: usize,
    /// Cells that waited on another flight.
    pub coalesced: usize,
}

/// A replayed answer.
pub struct Replay {
    /// The rendered body.
    pub body: String,
    /// Where its time went.
    pub spans: Spans,
}

/// The replay's own cell cache (daemon workloads) or none (the offline
/// path, where every cell is computed), and the machine registry, built
/// once so that resolving a cell's machine costs a clone: `query::plan`
/// resolves machines before the cells run, and the replay must not
/// charge that work to the cells a second time.
pub struct Mirror {
    cache: Option<Cache<Arc<RowValue>>>,
    registry: BTreeMap<&'static str, Machine>,
}

impl Mirror {
    fn new(cache: Option<Cache<Arc<RowValue>>>) -> Mirror {
        Mirror {
            cache,
            registry: doebench::machines::all_machines()
                .into_iter()
                .map(|m| (m.name, m))
                .collect(),
        }
    }

    /// A replay of the daemon's service path, with an empty cache.
    pub fn cached() -> Mirror {
        Mirror::new(Some(Cache::new()))
    }

    /// A replay of `query::run_query`: no cache.
    pub fn uncached() -> Mirror {
        Mirror::new(None)
    }

    /// Answer one request through the layer calls, timing each.
    pub fn replay(&self, text: &str, json: bool, format: Format) -> Result<Replay, String> {
        let mut s = Spans::default();
        let t_start = Instant::now();
        let q = parse_request(text, json)?;
        s.parse = secs(t_start);

        let t_plan = Instant::now();
        let plan = query::plan(&q).map_err(|e| format!("plan failed: {e}"))?;
        s.plan = secs(t_plan);
        check_overrides(q.params())?;
        let n = plan.cells().len();
        s.cells = n;

        let mut values: Vec<Option<Arc<RowValue>>> = vec![None; n];
        let mut owned = Vec::new();
        let mut tokens = Vec::new();
        let mut waiting = Vec::new();
        let t_acquire = Instant::now();
        match &self.cache {
            None => owned.extend(0..n),
            Some(cache) => {
                for (i, cell) in plan.cells().iter().enumerate() {
                    let key = Key::new(&cell.key.canon);
                    match cache.acquire(&key) {
                        Acquire::Hit(v) => values[i] = Some(v),
                        Acquire::Owner(token) => {
                            owned.push(i);
                            tokens.push(token);
                        }
                        Acquire::Waiter(_) => waiting.push((i, key)),
                    }
                }
                s.cache += secs(t_acquire);
            }
        }
        s.executed = owned.len();
        s.coalesced = waiting.len();
        s.cached = n - owned.len() - waiting.len();

        if !owned.is_empty() {
            s.workers = effective_jobs().min(owned.len());
            let t_fan = Instant::now();
            let computed = sched::run_cells(&owned, |&i| {
                compute_cell(&self.registry, &plan, q.params(), i)
            });
            s.fanout = secs(t_fan);
            let t_publish = Instant::now();
            let mut tokens = tokens.into_iter();
            for (&i, (value, times)) in owned.iter().zip(computed) {
                s.cell_sum += times.total;
                for (acc, t) in s.harness.iter_mut().zip(times.harness) {
                    *acc += t;
                }
                let value = Arc::new(value);
                if let Some(token) = tokens.next() {
                    token.publish(Arc::clone(&value));
                }
                values[i] = Some(value);
            }
            if self.cache.is_some() {
                s.cache += secs(t_publish);
            }
        }
        if let Some(cache) = &self.cache {
            let t_wait = Instant::now();
            for (i, key) in waiting {
                let v = cache.get_or_compute(&key, || {
                    Arc::new(compute_cell(&self.registry, &plan, q.params(), i).0)
                });
                values[i] = Some(v);
            }
            s.cache += secs(t_wait);
        }

        let values: Vec<Arc<RowValue>> = values
            .into_iter()
            .map(|v| v.expect("every cell resolved"))
            .collect();
        let t_assemble = Instant::now();
        let result = plan
            .assemble(&values)
            .map_err(|e| format!("assemble failed: {e}"))?;
        s.assemble = secs(t_assemble);
        s.answer = secs(t_plan);

        let t_render = Instant::now();
        let body = result.body(format);
        s.render = secs(t_render);
        s.total = secs(t_start);
        s.body_bytes = body.len();
        Ok(Replay { body, spans: s })
    }
}

/// The overrides [`resolve_machine`] can replay.
fn check_overrides(params: &QueryParams) -> Result<(), String> {
    match params.overrides.iter().find(|o| {
        !matches!(
            o.field,
            OverrideField::MpiShmLatencyUs | OverrideField::GpuLaunchUs
        )
    }) {
        Some(o) => Err(format!("override {} is not replayed", o.field.as_str())),
        None => Ok(()),
    }
}

/// The registry machine with the query's overrides applied, as
/// `query::plan` resolves it.
fn resolve_machine(
    registry: &BTreeMap<&'static str, Machine>,
    name: &str,
    params: &QueryParams,
) -> Machine {
    let mut m = registry.get(name).expect("planned machine exists").clone();
    for o in params.overrides.iter().filter(|o| o.machine == name) {
        let us = SimDuration::from_us(o.value);
        match o.field {
            OverrideField::MpiShmLatencyUs => m.mpi.shm_latency = us,
            OverrideField::GpuLaunchUs => {
                for g in &mut m.gpu_models {
                    g.launch_overhead = us;
                }
            }
            other => unreachable!("{} rejected by check_overrides", other.as_str()),
        }
    }
    m
}

/// Wall time of one cell and of each harness suite inside it.
struct CellTimes {
    total: f64,
    harness: [f64; 5],
}

/// Time `f`, adding its duration to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    *acc += secs(t);
    v
}

/// Compute plan cell `i` with the suite calls its table makes
/// (`table4::run_machine`, `table5::run_machine`, `table6::run_machine`,
/// the query sweep), timing each suite call.
fn compute_cell(
    registry: &BTreeMap<&'static str, Machine>,
    plan: &QueryPlan,
    params: &QueryParams,
    i: usize,
) -> (RowValue, CellTimes) {
    let t_cell = Instant::now();
    let key = &plan.cells()[i].key;
    let m = resolve_machine(registry, &key.machine, params);
    let c = plan.campaign();
    let mut h = [0.0; 5];
    let socket = on_socket_pair(&m.topo).expect("machine has >= 2 cores");
    let host_latency = |h: &mut [f64; 5], cores: (CoreId, CoreId), osu: &OsuConfig, bench: &str| {
        timed(&mut h[OSU_HOST], || {
            osu_latency(&m.topo, &m.mpi, cores, osu, c.seed_for(m.name, bench))
        })
    };
    let value = match key.table {
        "table4" => {
            let stream = timed(&mut h[STREAM_CPU], || {
                run_sim_cpu(
                    &m.topo,
                    &m.host_mem,
                    m.host_stream_jitter,
                    c.seed_for(m.name, "babelstream"),
                    &c.stream_cpu,
                )
            });
            let node = on_node_pair(&m.topo).expect("machine has >= 2 cores");
            RowValue::T4(table4::Row {
                label: m.table_label(),
                machine: m.name.to_string(),
                single: stream.single,
                all: stream.all,
                peak: m.host_peak_citation,
                on_socket: host_latency(&mut h, socket, &c.osu, "osu-socket")
                    .remove(0)
                    .one_way_us,
                on_node: host_latency(&mut h, node, &c.osu, "osu-node")
                    .remove(0)
                    .one_way_us,
            })
        }
        "table5" => {
            let mut d2d = BTreeMap::new();
            for (class, (da, db)) in m.topo.representative_pairs() {
                let cores = table5::device_pair_cores(&m.topo, da, db);
                let points = timed(&mut h[OSU_DEVICE], || {
                    osu_latency_device(
                        &m.topo,
                        &m.mpi,
                        cores,
                        (da, db),
                        &c.osu,
                        c.seed_for(m.name, &format!("osu-d2d-{class}")),
                    )
                });
                d2d.insert(class, points[0].one_way_us);
            }
            let stream = timed(&mut h[STREAM_GPU], || {
                run_sim_gpu(
                    Arc::clone(&m.topo),
                    &m.gpu_models,
                    c.seed_for(m.name, "babelstream-gpu"),
                    &c.stream_gpu,
                )
            });
            RowValue::T5(table5::Row {
                label: m.table_label(),
                machine: m.name.to_string(),
                device_bw: stream.device,
                peak: m.device_peak_citation.unwrap_or("-"),
                host_to_host: host_latency(&mut h, socket, &c.osu, "osu-h2h")
                    .remove(0)
                    .one_way_us,
                d2d,
            })
        }
        "table6" => {
            let report = timed(&mut h[COMMSCOPE], || {
                run_commscope(
                    &m.topo,
                    &m.gpu_models,
                    &c.commscope,
                    c.seed_for(m.name, "commscope"),
                )
            });
            RowValue::T6(table6::Row {
                label: m.table_label(),
                machine: m.name.to_string(),
                report,
            })
        }
        "sweep" => {
            let cfg = query::sweep_config(params.profile);
            let node = on_node_pair(&m.topo).expect("validated at plan time");
            let lat_s = host_latency(&mut h, socket, &cfg, "sweep-socket");
            let lat_n = host_latency(&mut h, node, &cfg, "sweep-node");
            RowValue::Sweep(SweepRow {
                machine: m.name.to_string(),
                label: m.table_label(),
                points: lat_s
                    .iter()
                    .zip(&lat_n)
                    .map(|(s, n)| SweepPoint {
                        bytes: s.bytes,
                        socket: s.one_way_us,
                        node: n.one_way_us,
                    })
                    .collect(),
            })
        }
        other => unreachable!("query::plan emits no '{other}' cells"),
    };
    let times = CellTimes {
        total: secs(t_cell),
        harness: h,
    };
    (value, times)
}

/// Self times summed over the traced operations of a run. A layer's self
/// time is its span minus the spans of the layers it calls. Inside a
/// fan-out over `k` workers, cell time counts `1/k` toward the wall time,
/// so `sched` keeps the fan-out's wall time minus the cells' share: its
/// dispatch cost plus load imbalance.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Traced operations.
    pub ops: usize,
    /// Traced end-to-end time.
    pub e2e: f64,
    /// HTTP round trips (daemon workloads).
    pub roundtrip: f64,
    /// Round trip minus the in-process answer and render.
    pub http: f64,
    /// `query` layer: parse, plan, assemble.
    pub parse: f64,
    /// See [`Spans::plan`].
    pub plan: f64,
    /// See [`Spans::assemble`].
    pub assemble: f64,
    /// `cache` layer self time.
    pub cache: f64,
    /// In-process answers (plan start to assemble end).
    pub answer: f64,
    /// `sched` self time.
    pub sched: f64,
    /// Harness suites' wall-time share, per [`HARNESS`].
    pub harness: [f64; 5],
    /// `render` layer.
    pub render: f64,
    /// Fan-out wall time.
    pub fanout: f64,
    /// Fan-out wall time times the workers it could use.
    pub capacity: f64,
    /// Sum of cell wall times.
    pub cell_sum: f64,
    /// Plan cells.
    pub cells: usize,
    /// Body bytes rendered.
    pub body_bytes: usize,
}

impl Attribution {
    /// Add one traced operation: its end-to-end time, its HTTP round trip
    /// if it had one, and the replay's spans.
    pub fn add(&mut self, e2e: f64, roundtrip: Option<f64>, s: &Spans) {
        self.ops += 1;
        self.e2e += e2e;
        if let Some(rt) = roundtrip {
            self.roundtrip += rt;
            self.http += rt - s.total;
        }
        self.parse += s.parse;
        self.plan += s.plan;
        self.assemble += s.assemble;
        self.cache += s.cache;
        self.answer += s.answer;
        self.render += s.render;
        if s.workers > 0 {
            let k = s.workers as f64;
            self.sched += s.fanout - s.cell_sum / k;
            for (acc, t) in self.harness.iter_mut().zip(s.harness) {
                *acc += t / k;
            }
            self.fanout += s.fanout;
            self.capacity += s.fanout * k;
            self.cell_sum += s.cell_sum;
        }
        self.cells += s.cells;
        self.body_bytes += s.body_bytes;
    }

    /// Add another thread's operations.
    pub fn merge(&mut self, o: &Attribution) {
        self.ops += o.ops;
        self.e2e += o.e2e;
        self.roundtrip += o.roundtrip;
        self.http += o.http;
        self.parse += o.parse;
        self.plan += o.plan;
        self.assemble += o.assemble;
        self.cache += o.cache;
        self.answer += o.answer;
        self.sched += o.sched;
        for (acc, t) in self.harness.iter_mut().zip(o.harness) {
            *acc += t;
        }
        self.render += o.render;
        self.fanout += o.fanout;
        self.capacity += o.capacity;
        self.cell_sum += o.cell_sum;
        self.cells += o.cells;
        self.body_bytes += o.body_bytes;
    }

    /// Self time per layer, in call order.
    pub fn layers(&self) -> Vec<(&'static str, f64)> {
        let mut v = vec![
            ("http", self.http),
            ("query.parse", self.parse),
            ("query.plan", self.plan),
            ("cache", self.cache),
            ("sched", self.sched),
        ];
        for ((name, _), t) in HARNESS.iter().zip(self.harness) {
            v.push((name.trim_end_matches("_ms"), t));
        }
        v.push(("query.assemble", self.assemble));
        v.push(("render", self.render));
        v
    }

    /// End-to-end time no layer span covers.
    pub fn unattributed(&self) -> f64 {
        self.e2e - self.layers().iter().map(|(_, t)| t).sum::<f64>()
    }

    /// Mean per traced operation of a total.
    pub fn per_op(&self, total: f64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            total / self.ops as f64
        }
    }

    /// `Σ cell time / (fan-out wall time × workers)`; 0 without fan-outs.
    pub fn efficiency(&self) -> f64 {
        if self.capacity > 0.0 {
            self.cell_sum / self.capacity
        } else {
            0.0
        }
    }
}
