//! The daemon workloads: an in-process `doebenchd::Server` on loopback,
//! driven by closed-loop client threads that each keep at most one
//! connection open (the server closes every connection after one reply).
//!
//! * `daemon-hit` — the cache is warmed during set-up, so every reply is a
//!   hit: HTTP, parse, plan, cache and render, and no compute.
//! * `daemon-seed-sweep` — fresh seeds miss and insert cells, one request
//!   in four repeats an earlier one (a hit), and one in eight adds a
//!   one-machine override to an earlier one (a partial miss).

use std::collections::BTreeMap;
use std::time::Instant;

use doebench::machines;
use doebench::query::{self, fnv1a64, Query, QueryResult};
use doebench::report::json::{self, Json};
use doebench::report::Format;
use doebenchd::client::{self, ClientResponse};
use doebenchd::Server;

use crate::calib::{Calibrator, Timing};
use crate::report::{self, measure, RunResult, Window};
use crate::stats::{Rng, Samples, Tally};
use crate::trace::{parse_request, secs, Attribution, Mirror};

/// Formats requests ask for, by `format=` name.
const FORMATS: [(&str, Format); 4] = [
    ("ascii", Format::Ascii),
    ("json", Format::Json),
    ("csv", Format::Csv),
    ("md", Format::Markdown),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Longest a client goes between host-speed probes.
const CALIBRATE_EVERY_S: f64 = 0.05;

/// `daemon-seed-sweep` reads its peak resident set after this many
/// requests rather than at the end, so the memory figure measures a fixed
/// amount of cache growth and not how many requests fit in the window.
const RSS_AFTER: u64 = 1000;

/// One request: the query as shorthand (GET) or canonical JSON (POST).
#[derive(Clone, Debug)]
struct Req {
    text: String,
    json: bool,
    fmt: usize,
    /// Index of the query in the workload's fixed list (`daemon-hit`).
    query: usize,
}

impl Req {
    fn new(shorthand: &str, json: bool, fmt: usize, query: usize) -> Req {
        let text = if json {
            Query::parse_shorthand(shorthand)
                .expect("generated shorthand parses")
                .canonical()
        } else {
            shorthand.to_string()
        };
        Req {
            text,
            json,
            fmt,
            query,
        }
    }

    fn format(&self) -> Format {
        FORMATS[self.fmt].1
    }

    fn send(&self, addr: &str) -> Result<ClientResponse, String> {
        let fmt = FORMATS[self.fmt].0;
        let r = if self.json {
            client::query_json(addr, &self.text, fmt)
        } else {
            client::query_shorthand(addr, &self.text, fmt)
        };
        r.map_err(|e| e.to_string())
    }
}

/// How a reply's cells were obtained, from its `X-Doebench-Cells-*`
/// headers, or summed over replies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Cells served from the cache.
    pub cached: u64,
    /// Cells computed.
    pub executed: u64,
    /// Cells that waited on another request's computation.
    pub coalesced: u64,
}

impl CellCounts {
    fn from_headers(r: &ClientResponse) -> Option<CellCounts> {
        let get = |name: &str| r.header(name)?.parse().ok();
        Some(CellCounts {
            cached: get("x-doebench-cells-cached")?,
            executed: get("x-doebench-cells-executed")?,
            coalesced: get("x-doebench-cells-coalesced")?,
        })
    }

    fn add(&mut self, o: CellCounts) {
        self.cached += o.cached;
        self.executed += o.executed;
        self.coalesced += o.coalesced;
    }

    /// Share of cells served from the cache (0 when there were none).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cached + self.executed + self.coalesced;
        if total == 0 {
            0.0
        } else {
            self.cached as f64 / total as f64
        }
    }
}

/// A running server plus the header sums of every reply it sent.
struct Daemon {
    server: Server,
    addr: String,
    seen: CellCounts,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let server = Server::start(0).map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr().to_string();
        Ok(Daemon {
            server,
            addr,
            seen: CellCounts::default(),
        })
    }

    /// Send `req` and require a 200 with cell headers.
    fn expect_ok(&mut self, req: &Req) -> Result<ClientResponse, String> {
        let r = req.send(&self.addr)?;
        if let Some(c) = CellCounts::from_headers(&r) {
            self.seen.add(c);
        }
        if r.status != 200 {
            return Err(format!(
                "'{}' answered {}: {}",
                req.text,
                r.status,
                r.text()
            ));
        }
        Ok(r)
    }

    /// Cross-check `/stats` against the headers the clients saw; returns
    /// the number of ready cache entries.
    fn cross_check(&self) -> Result<u64, String> {
        let r = client::request(&self.addr, "GET", "/stats", &[]).map_err(|e| e.to_string())?;
        let stats = json::parse(&r.text()).map_err(|e| format!("/stats: {e}"))?;
        let num = |v: Option<&Json>| v.and_then(Json::as_f64).map(|x| x as u64);
        let cells = stats.get("cells");
        let served = CellCounts {
            cached: num(cells.and_then(|c| c.get("hits"))).ok_or("/stats lacks cells.hits")?,
            executed: num(cells.and_then(|c| c.get("executed")))
                .ok_or("/stats lacks cells.executed")?,
            coalesced: num(cells.and_then(|c| c.get("coalesced")))
                .ok_or("/stats lacks cells.coalesced")?,
        };
        if served != self.seen {
            return Err(format!(
                "traffic cross-check failed: /stats says {served:?}, headers sum to {:?}",
                self.seen
            ));
        }
        num(stats.get("entries")).ok_or_else(|| "/stats lacks entries".to_string())
    }
}

/// What one client thread measured.
#[derive(Default)]
struct ClientStats {
    latency: Timing,
    probes: Samples,
    tally: Tally,
    seen: CellCounts,
    attribution: Attribution,
    traced: Samples,
    untraced: Samples,
    errors: Vec<String>,
    /// Peak resident set after the fixed request count, if reached.
    rss_mb: Option<f64>,
}

impl ClientStats {
    fn fail(&mut self, msg: String) {
        self.tally.record(false);
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    fn merge(&mut self, o: ClientStats) {
        self.latency.extend(&o.latency);
        self.probes.extend(&o.probes);
        self.tally.merge(o.tally);
        self.seen.add(o.seen);
        self.attribution.merge(&o.attribution);
        self.traced.extend(&o.traced);
        self.untraced.extend(&o.untraced);
        self.errors.extend(o.errors);
        self.rss_mb = self.rss_mb.or(o.rss_mb);
    }
}

/// Closed loop until `deadline`. With a replay mirror, every other
/// request is traced: the mirror answers it in-process first, then the
/// request goes over HTTP and the two bodies and cell counts must agree.
/// Untraced requests that computed anything are replayed untimed
/// afterwards, so the mirror's cache follows the server's. The peak
/// resident set is read once `rss_after` requests have been attempted.
fn client_loop(
    addr: &str,
    deadline: Instant,
    mirror: Option<&Mirror>,
    rss_after: u64,
    mut next: impl FnMut() -> Req,
    mut check: impl FnMut(&Req, &[u8]) -> bool,
) -> ClientStats {
    let mut st = ClientStats::default();
    let mut cal = Calibrator::default();
    let mut op = 0u64;
    while Instant::now() < deadline {
        cal.refresh(CALIBRATE_EVERY_S);
        if st.rss_mb.is_none() && st.tally.attempted >= rss_after {
            st.rss_mb = Some(report::peak_rss_mb());
        }
        let req = next();
        let traced = mirror.is_some() && op % 2 == 1;
        op += 1;
        let replay = match mirror.filter(|_| traced) {
            Some(m) => match m.replay(&req.text, req.json, req.format()) {
                Ok(r) => Some(r),
                Err(e) => {
                    st.fail(format!("replay of '{}': {e}", req.text));
                    continue;
                }
            },
            None => None,
        };
        let t = Instant::now();
        let sent = req.send(addr);
        let rt = secs(t);
        let resp = match sent {
            Ok(r) => r,
            Err(e) => {
                st.fail(format!("'{}': {e}", req.text));
                continue;
            }
        };
        let counts = CellCounts::from_headers(&resp);
        if let Some(c) = counts {
            st.seen.add(c);
        }
        let Some(counts) = counts.filter(|_| resp.status == 200) else {
            st.fail(format!("'{}' answered {}", req.text, resp.status));
            continue;
        };
        if !check(&req, &resp.body) {
            st.fail(format!(
                "'{}' body differs from the offline answer",
                req.text
            ));
            continue;
        }
        match (&replay, mirror) {
            (Some(r), _) => {
                let s = &r.spans;
                let same_cells = (s.cached as u64, s.executed as u64, s.coalesced as u64)
                    == (counts.cached, counts.executed, counts.coalesced);
                if r.body.as_bytes() != resp.body.as_slice() || !same_cells {
                    st.fail(format!(
                        "replay of '{}' disagrees with the server",
                        req.text
                    ));
                    continue;
                }
                st.attribution.add(rt, Some(rt), s);
                st.traced.push(rt);
            }
            (None, Some(m)) => {
                st.untraced.push(rt);
                if counts.executed + counts.coalesced > 0 {
                    if let Err(e) = m.replay(&req.text, req.json, req.format()) {
                        st.fail(format!("replay of '{}': {e}", req.text));
                        continue;
                    }
                }
            }
            (None, None) => {}
        }
        st.tally.record(true);
        st.latency.push(rt, cal.factor());
    }
    st.probes = cal.probes;
    st
}

/// Names of the machines a two-machine sweep can use.
fn sweepable() -> Vec<&'static str> {
    machines::all_machines()
        .into_iter()
        .map(|m| m.name)
        .filter(|name| {
            let q = Query::parse_shorthand(&format!("sweep {name}")).expect("sweep parses");
            query::plan(&q).is_ok()
        })
        .collect()
}

/// Two distinct entries of `from`.
fn pick_two(rng: &mut Rng, from: &[&'static str]) -> [&'static str; 2] {
    let a = rng.below(from.len());
    let b = (a + 1 + rng.below(from.len() - 1)) % from.len();
    [from[a], from[b]]
}

/// Shared tail of both daemon workloads: cross-check, metrics, verdict.
fn finish(
    daemon: &mut Daemon,
    mut setup: Timing,
    win: Window<ClientStats>,
    clients: usize,
    trace: bool,
    mut correct: bool,
    mut notes: Vec<String>,
) -> RunResult {
    let Window {
        out: mut stats,
        seconds,
        shard_windows,
        shard_cross_events,
        rss_mb,
        steal_frac,
    } = win;
    notes.push(format!(
        "host steal during the window: {:.2}%",
        steal_frac * 100.0
    ));
    daemon.seen.add(stats.seen);
    let entries = match daemon.cross_check() {
        Ok(e) => e,
        Err(e) => {
            correct = false;
            notes.push(e);
            0
        }
    };
    daemon.server.stop();
    correct &= stats.tally.failed == 0 && stats.latency.len() > 0;
    notes.append(&mut stats.errors);
    let metrics = if trace {
        let (mut m, mut shares) = report::per_layer(
            &stats.attribution,
            &mut stats.traced,
            &mut stats.untraced,
            shard_windows,
            shard_cross_events,
        );
        report::set_cache(&mut m, stats.seen, entries);
        notes.append(&mut shares);
        m
    } else {
        let rss = match stats.rss_mb {
            Some(mb) => (mb, format!("VmHWM after {RSS_AFTER} requests, MiB")),
            None => (rss_mb, "VmHWM when the window closed, MiB".to_string()),
        };
        report::end_to_end(
            &mut setup,
            &mut stats.latency,
            clients,
            (seconds, steal_frac),
            stats.tally,
            rss,
            &mut stats.probes,
        )
    };
    RunResult {
        correct,
        tally: stats.tally,
        metrics,
        notes,
    }
}

/// `daemon-hit`: every reply is a cache hit.
pub fn hit(seed: u64, seconds: u64, trace: bool, nproc: usize) -> RunResult {
    let mut rng = Rng::new(seed, 1);
    let qseed = rng.next_u64();
    let [a, b] = pick_two(&mut rng, &sweepable());
    let shorthands: Vec<String> = [
        "table4",
        "table5@paper",
        "table6@paper",
        "table7@paper",
        "suite@paper",
    ]
    .iter()
    .map(|q| format!("{q} seed={qseed:#x}"))
    .chain([format!("sweep {a} {b} seed={qseed:#x}")])
    .collect();

    let mut setup = Timing::default();
    let mut cal = Calibrator::default();
    let mut daemon = None;
    for _ in 0..SETUPS {
        let (d, dt, factor) = cal.bracket(|| {
            let mut d = Daemon::start()?;
            for (i, s) in shorthands.iter().enumerate() {
                d.expect_ok(&Req::new(s, false, 0, i))?;
            }
            Ok::<_, String>(d)
        });
        match d {
            Ok(d) => daemon = Some(d),
            Err(e) => return RunResult::failed(e),
        }
        setup.push(dt, factor);
    }
    let mut daemon = daemon.expect("at least one set-up");

    // The offline answers every reply must equal byte for byte.
    let mut refs: Vec<Vec<Vec<u8>>> = Vec::new();
    for s in &shorthands {
        let r = match query::run_query(&Query::parse_shorthand(s).expect("parses")) {
            Ok(r) => r,
            Err(e) => return RunResult::failed(format!("offline '{s}': {e}")),
        };
        refs.push(
            FORMATS
                .iter()
                .map(|(_, f)| r.body(*f).into_bytes())
                .collect(),
        );
    }
    let mirror = trace.then(Mirror::cached);
    if let Some(m) = &mirror {
        for s in &shorthands {
            if let Err(e) = m.replay(s, false, Format::Ascii) {
                return RunResult::failed(e);
            }
        }
    }

    let clients = nproc.clamp(1, 2);
    let addr = daemon.addr.clone();
    let win = measure(seconds, |deadline| {
        let mut stats = ClientStats::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|t| {
                    let (addr, mirror, shorthands, refs) =
                        (&addr, mirror.as_ref(), &shorthands, &refs);
                    s.spawn(move || {
                        let mut rng = Rng::new(seed, 100 + t as u64);
                        client_loop(
                            addr,
                            deadline,
                            mirror,
                            u64::MAX,
                            || {
                                let q = rng.below(shorthands.len());
                                let json = rng.below(2) == 1;
                                Req::new(&shorthands[q], json, rng.below(FORMATS.len()), q)
                            },
                            |req, body| refs[req.query][req.fmt] == body,
                        )
                    })
                })
                .collect();
            for h in handles {
                stats.merge(h.join().expect("client thread panicked"));
            }
        });
        stats
    });
    let mut notes = vec![format!(
        "client threads: {clients}, queries: {shorthands:?}"
    )];
    let ratio = win.out.seen.hit_ratio();
    let correct = ratio == 1.0;
    if !correct {
        notes.push(format!("cache hit ratio {ratio} in the window; expected 1"));
    }
    finish(&mut daemon, setup, win, clients, trace, correct, notes)
}

/// A seed-sweep query as first sent, before any override.
struct Sent {
    shorthand: String,
    machines: Vec<&'static str>,
    /// The override field that changes this query's cells.
    field: &'static str,
}

/// The seed-sweep traffic: fresh seeds, repeats, and overrides.
struct SweepTraffic {
    rng: Rng,
    sent: Vec<Sent>,
    cpu: Vec<&'static str>,
    gpu: Vec<&'static str>,
    sweepable: Vec<&'static str>,
}

impl SweepTraffic {
    fn new(seed: u64) -> SweepTraffic {
        let names = |v: Vec<machines::Machine>| v.into_iter().map(|m| m.name).collect();
        SweepTraffic {
            rng: Rng::new(seed, 2),
            sent: Vec::new(),
            cpu: names(machines::cpu_machines()),
            gpu: names(machines::gpu_machines()),
            sweepable: sweepable(),
        }
    }

    fn next(&mut self) -> Req {
        let roll = if self.sent.is_empty() {
            7
        } else {
            self.rng.below(8)
        };
        let shorthand = match roll {
            // A repeat of an earlier query: a hit.
            0 | 1 => self.sent[self.rng.below(self.sent.len())].shorthand.clone(),
            // An earlier query with one machine overridden: a partial miss.
            2 => {
                let base = &self.sent[self.rng.below(self.sent.len())];
                let machine = base.machines[self.rng.below(base.machines.len())];
                let value = 0.1 + self.rng.below(40) as f64 / 100.0;
                format!("{} set {machine}.{}={value:.2}", base.shorthand, base.field)
            }
            // A fresh seed: a miss.
            _ => {
                let seed = self.rng.next_u64();
                let sent = match self.rng.below(4) {
                    0 => Sent {
                        shorthand: format!("table4 seed={seed:#x}"),
                        machines: self.cpu.clone(),
                        field: "mpi_shm_latency_us",
                    },
                    1 => Sent {
                        shorthand: format!("table5 seed={seed:#x}"),
                        machines: self.gpu.clone(),
                        field: "mpi_shm_latency_us",
                    },
                    2 => Sent {
                        shorthand: format!("table6 seed={seed:#x}"),
                        machines: self.gpu.clone(),
                        field: "gpu_launch_us",
                    },
                    _ => {
                        let pair = pick_two(&mut self.rng, &self.sweepable);
                        Sent {
                            shorthand: format!("sweep {} {} seed={seed:#x}", pair[0], pair[1]),
                            machines: pair.to_vec(),
                            field: "mpi_shm_latency_us",
                        }
                    }
                };
                let s = sent.shorthand.clone();
                self.sent.push(sent);
                s
            }
        };
        let json = self.rng.below(2) == 1;
        Req::new(&shorthand, json, self.rng.below(FORMATS.len()), 0)
    }
}

/// `daemon-seed-sweep`: misses that grow the cache, with repeats and
/// partial misses mixed in.
pub fn seed_sweep(seed: u64, seconds: u64, trace: bool) -> RunResult {
    let warm = Req::new("suite", false, 0, 0);
    let mut setup = Timing::default();
    let mut cal = Calibrator::default();
    let mut daemon = None;
    for _ in 0..SETUPS {
        let (d, dt, factor) = cal.bracket(|| {
            let mut d = Daemon::start()?;
            d.expect_ok(&warm)?;
            Ok::<_, String>(d)
        });
        match d {
            Ok(d) => daemon = Some(d),
            Err(e) => return RunResult::failed(e),
        }
        setup.push(dt, factor);
    }
    let mut daemon = daemon.expect("at least one set-up");
    let mirror = trace.then(Mirror::cached);

    // Bodies are checked against the offline answers after the window.
    let mut seen_bodies: Vec<(Req, u64, usize)> = Vec::new();
    let mut traffic = SweepTraffic::new(seed);
    let addr = daemon.addr.clone();
    let mut win = measure(seconds, |deadline| {
        client_loop(
            &addr,
            deadline,
            mirror.as_ref(),
            RSS_AFTER,
            || traffic.next(),
            |req, body| {
                seen_bodies.push((req.clone(), fnv1a64(body), body.len()));
                true
            },
        )
    });
    let mut offline: BTreeMap<String, QueryResult> = BTreeMap::new();
    let mut mismatched = 0;
    for (req, hash, len) in &seen_bodies {
        let q = parse_request(&req.text, req.json).expect("generated queries parse");
        let canon = q.canonical();
        if !offline.contains_key(&canon) {
            match query::run_query(&q) {
                Ok(r) => {
                    offline.insert(canon.clone(), r);
                }
                Err(e) => return RunResult::failed(format!("offline '{}': {e}", req.text)),
            }
        }
        let body = offline[&canon].body(req.format());
        if (fnv1a64(body.as_bytes()), body.len()) != (*hash, *len) {
            mismatched += 1;
        }
    }
    let mut notes = vec![format!(
        "bodies checked offline: {}, distinct queries: {}",
        seen_bodies.len(),
        offline.len()
    )];
    if mismatched > 0 {
        notes.push(format!(
            "{mismatched} bodies differ from the offline answer"
        ));
        win.out.tally.failed += mismatched;
    }
    finish(&mut daemon, setup, win, 1, trace, true, notes)
}
