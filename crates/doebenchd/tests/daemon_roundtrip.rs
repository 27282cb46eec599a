//! End-to-end daemon tests: real sockets, real threads, one process.
//!
//! The coalescing assertion is interleaving-proof: across N concurrent
//! identical queries, the *sum* of executed cells must equal the plan's
//! cell count — every cell computed exactly once, no matter how the
//! threads raced — and every body must be byte-identical.

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpStream};
use std::thread;
use std::time::Instant;

use doe_report::json::{self, Json};
use doe_report::Format;
use doebench::query::Query;
use doebenchd::client;
use doebenchd::server::{BACKLOG, CONN_TIMEOUT};
use doebenchd::Server;

fn start() -> (Server, String) {
    let server = Server::start(0).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    (server, addr)
}

fn meta_count(resp: &client::ClientResponse, name: &str) -> usize {
    resp.header(name)
        .unwrap_or_else(|| panic!("missing header {name}"))
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric header {name}"))
}

#[test]
fn health_stats_and_index() {
    let (mut server, addr) = start();
    let health = client::request(&addr, "GET", "/healthz", &[]).unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), "ok\n");

    let index = client::request(&addr, "GET", "/", &[]).unwrap();
    assert!(index.text().contains("/query"));

    let stats = client::request(&addr, "GET", "/stats", &[]).unwrap();
    assert_eq!(stats.status, 200);
    // The fields traffic monitors read; a fresh daemon has served nothing.
    let stats = json::parse(&stats.text()).expect("/stats is JSON");
    let num = |v: Option<&Json>| v.and_then(Json::as_f64);
    let cells = stats.get("cells").expect("/stats has cells");
    assert_eq!(num(stats.get("entries")), Some(0.0));
    assert_eq!(num(cells.get("hits")), Some(0.0));
    assert_eq!(num(cells.get("executed")), Some(0.0));
    assert_eq!(num(cells.get("coalesced")), Some(0.0));

    let missing = client::request(&addr, "GET", "/nope", &[]).unwrap();
    assert_eq!(missing.status, 404);
    let wrong_method = client::request(&addr, "POST", "/healthz", &[]).unwrap();
    assert_eq!(wrong_method.status, 405);
    server.stop();
}

#[test]
fn bad_queries_are_400() {
    let (mut server, addr) = start();
    let r = client::query_shorthand(&addr, "table9", "ascii").unwrap();
    assert_eq!(r.status, 400);
    let r = client::query_shorthand(&addr, "table4", "pdf").unwrap();
    assert_eq!(r.status, 400);
    let r = client::request(&addr, "GET", "/query", &[]).unwrap();
    assert_eq!(r.status, 400);
    let r = client::query_json(&addr, "{\"kind\":\"suite\",", "ascii").unwrap();
    assert_eq!(r.status, 400);
    let r = client::query_shorthand(&addr, "table4 NoSuchMachine", "ascii").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.text().contains("unknown machine"));
    let r = client::query_shorthand(&addr, "table4 set Nosuch.mpi_shm_latency_us=0.3", "ascii")
        .unwrap();
    assert_eq!(r.status, 400);
    assert!(r.text().contains("unknown machine: Nosuch"));
    server.stop();
}

/// An override outside its field's range is a bad request, not a cell
/// that panics (a 500) or a nonsense answer (a 200), and the daemon goes
/// on answering.
#[test]
fn out_of_range_overrides_are_400() {
    let (mut server, addr) = start();
    for bad in [
        "table6 Frontier set Frontier.gpu_launch_us=1e13",
        "table4 Eagle set Eagle.mpi_shm_latency_us=1e13",
        "table4 Eagle set Eagle.host_peak_bw_gb_s=0",
        "table4 Eagle set Eagle.mpi_shm_latency_us=-1",
    ] {
        let r = client::query_shorthand(&addr, bad, "ascii").unwrap();
        assert_eq!(r.status, 400, "{bad}: {}", r.text());
        assert!(r.text().contains("out of range"), "{bad}: {}", r.text());
        let ok = client::query_shorthand(&addr, "table4 Eagle", "ascii").unwrap();
        assert_eq!(ok.status, 200, "after {bad}");
    }
    let r = client::query_json(
        &addr,
        r#"{"kind":"suite","overrides":[{"machine":"Eagle","field":"host_sustained_efficiency","value":0}]}"#,
        "ascii",
    )
    .unwrap();
    assert_eq!(r.status, 400);
    assert!(
        r.text().contains("host_sustained_efficiency"),
        "{}",
        r.text()
    );
    server.stop();
}

#[test]
fn concurrent_identical_queries_execute_once() {
    let (mut server, addr) = start();
    const N: usize = 6;
    let handles: Vec<_> = (0..N)
        .map(|_| {
            let addr = addr.clone();
            thread::spawn(move || client::query_shorthand(&addr, "table4", "ascii").unwrap())
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for r in &responses {
        assert_eq!(r.status, 200);
    }
    // Every response saw the same cell universe...
    let cells = meta_count(&responses[0], "x-doebench-cells-cached")
        + meta_count(&responses[0], "x-doebench-cells-executed")
        + meta_count(&responses[0], "x-doebench-cells-coalesced");
    assert!(cells > 0);
    // ...and each cell ran exactly once across ALL requests combined.
    let total_executed: usize = responses
        .iter()
        .map(|r| meta_count(r, "x-doebench-cells-executed"))
        .sum();
    assert_eq!(total_executed, cells, "each cell computes exactly once");

    // Bodies are byte-identical regardless of who computed what.
    for r in &responses[1..] {
        assert_eq!(r.body, responses[0].body);
        assert_eq!(
            r.header("x-doebench-key"),
            responses[0].header("x-doebench-key")
        );
    }

    // A later identical query is a pure cache hit, still byte-identical.
    let warm = client::query_shorthand(&addr, "table4", "ascii").unwrap();
    assert_eq!(warm.header("x-doebench-cache"), Some("hit"));
    assert_eq!(meta_count(&warm, "x-doebench-cells-executed"), 0);
    assert_eq!(warm.body, responses[0].body);
    server.stop();
}

#[test]
fn json_post_equals_shorthand_get() {
    let (mut server, addr) = start();
    let get = client::query_shorthand(&addr, "table4 Eagle", "json").unwrap();
    assert_eq!(get.status, 200);
    let post = client::query_json(
        &addr,
        r#"{"kind":"table","table":"table4","machines":["Eagle"]}"#,
        "json",
    )
    .unwrap();
    assert_eq!(post.status, 200);
    assert_eq!(get.body, post.body, "same query, same bytes");
    assert_eq!(post.header("x-doebench-cache"), Some("hit"));
    server.stop();
}

#[test]
fn override_recomputes_only_dependent_cells() {
    let (mut server, addr) = start();
    let cold = client::query_shorthand(&addr, "table4", "ascii").unwrap();
    let cells = meta_count(&cold, "x-doebench-cells-executed");
    assert!(cells >= 2);

    let tweaked =
        client::query_shorthand(&addr, "table4 set Eagle.host_peak_bw_gb_s=500", "ascii").unwrap();
    assert_eq!(tweaked.status, 200);
    assert_eq!(meta_count(&tweaked, "x-doebench-cells-executed"), 1);
    assert_eq!(meta_count(&tweaked, "x-doebench-cells-cached"), cells - 1);
    assert_eq!(tweaked.header("x-doebench-cache"), Some("partial"));
    assert_ne!(tweaked.body, cold.body, "override must change the numbers");
    server.stop();
}

#[test]
fn table_shortcut_and_sweep() {
    let (mut server, addr) = start();
    let t4 = client::request(&addr, "GET", "/table/4?format=md", &[]).unwrap();
    assert_eq!(t4.status, 200);
    assert!(t4.text().contains("| Rank/Name"));
    let bad = client::request(&addr, "GET", "/table/9", &[]).unwrap();
    assert_eq!(bad.status, 404);

    let sweep = client::query_shorthand(&addr, "sweep Eagle Theta", "csv").unwrap();
    assert_eq!(sweep.status, 200);
    assert!(sweep.text().contains("Eagle On-Socket"));
    server.stop();
}

#[test]
fn each_format_is_served_with_its_media_type_and_the_offline_bytes() {
    let (mut server, addr) = start();
    let offline = doebench::query::run_query(&Query::parse_shorthand("table7").unwrap()).unwrap();
    for (name, media) in [
        ("ascii", "text/plain; charset=utf-8"),
        ("md", "text/markdown; charset=utf-8"),
        ("csv", "text/csv; charset=utf-8"),
        ("json", "application/json"),
    ] {
        let r = client::query_shorthand(&addr, "table7", name).unwrap();
        assert_eq!(r.status, 200, "{name}");
        assert_eq!(r.header("content-type"), Some(media), "{name}");
        let format = Format::parse(name).unwrap();
        assert_eq!(r.text(), offline.body(format), "{name}");
    }
    server.stop();
}

#[test]
fn idle_connection_is_closed_and_the_daemon_keeps_answering() {
    let (mut server, addr) = start();
    let before = client::query_shorthand(&addr, "table4 Eagle", "json").unwrap();
    assert_eq!(before.status, 200);

    // Connect and never send: the daemon must give up on the connection
    // by itself. The client-side bound only keeps a regression from
    // hanging the test.
    let mut idle = TcpStream::connect(&addr).unwrap();
    idle.set_read_timeout(Some(CONN_TIMEOUT * 6)).unwrap();
    let mut reply = Vec::new();
    idle.read_to_end(&mut reply)
        .expect("the daemon closes an idle connection");

    let after = client::query_shorthand(&addr, "table4 Eagle", "json").unwrap();
    assert_eq!(after.status, 200);
    assert_eq!(after.body, before.body, "same query, same bytes");
    server.stop();
}

#[test]
fn a_silent_connection_does_not_hold_up_another_client() {
    let (mut server, addr) = start();
    let silent = TcpStream::connect(&addr).unwrap();
    let started = Instant::now();
    let r = client::query_shorthand(&addr, "table4 Eagle", "json").unwrap();
    assert_eq!(r.status, 200);
    assert!(
        started.elapsed() < CONN_TIMEOUT / 2,
        "answered only after {:?}",
        started.elapsed()
    );
    drop(silent);
    server.stop();
}

#[test]
fn a_full_backlog_is_answered_503_until_it_drains() {
    let (mut server, addr) = start();
    // The backlog is first in, first out, so the first `held` silent
    // connections go to the workers and the next `BACKLOG` fill it.
    let held = server.workers();
    let silent: Vec<TcpStream> = (0..held + BACKLOG)
        .map(|_| TcpStream::connect(&addr).unwrap())
        .collect();

    // The next connection is refused well before `CONN_TIMEOUT`. A
    // worker that takes its connection late frees one slot, which a
    // probe then fills; so at most `held` probes queue before one is
    // refused.
    let mut queued = Vec::new();
    let reply = loop {
        assert!(queued.len() <= held, "no connection was refused");
        let mut probe = TcpStream::connect(&addr).unwrap();
        probe.set_read_timeout(Some(CONN_TIMEOUT / 2)).unwrap();
        let mut reply = Vec::new();
        let _ = probe.read_to_end(&mut reply);
        if reply.is_empty() {
            queued.push(probe);
        } else {
            break String::from_utf8_lossy(&reply).into_owned();
        }
    };
    assert!(reply.starts_with("HTTP/1.1 503 "), "got {reply:?}");
    assert!(reply.contains("\r\nRetry-After: 1\r\n"), "got {reply:?}");

    // The backlogged connections hang up; the ones the workers hold stay
    // silent until the daemon times them out. Once the daemon has closed
    // every one of them, the backlog is empty again.
    for conn in silent[held..].iter().chain(&queued) {
        let _ = conn.shutdown(Shutdown::Write);
    }
    for mut conn in silent.into_iter().chain(queued) {
        conn.set_read_timeout(Some(CONN_TIMEOUT * 6)).unwrap();
        let mut rest = Vec::new();
        let _ = conn.read_to_end(&mut rest);
    }
    let after = client::query_shorthand(&addr, "table4 Eagle", "json").unwrap();
    assert_eq!(after.status, 200);
    server.stop();
}

#[test]
fn unterminated_request_line_is_400_before_it_ends() {
    let (mut server, addr) = start();
    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.set_read_timeout(Some(CONN_TIMEOUT * 6)).unwrap();
    // 1 MiB of request line and no newline. The daemon stops reading once
    // its header budget is spent, so the write may fail part-way; the
    // reply must arrive either way, well before the connection timeout.
    let mut writer = conn.try_clone().unwrap();
    let flood = thread::spawn(move || {
        let mut line = b"GET /query?q=".to_vec();
        line.resize(1 << 20, b'a');
        let _ = writer.write_all(&line);
    });
    let started = std::time::Instant::now();
    let mut reply = Vec::new();
    let _ = conn.read_to_end(&mut reply);
    flood.join().unwrap();
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 400"), "got {reply:?}");
    assert!(reply.contains("too large"), "got {reply:?}");
    assert!(
        started.elapsed() < CONN_TIMEOUT,
        "answered only at the timeout"
    );

    let after = client::query_shorthand(&addr, "table4 Eagle", "json").unwrap();
    assert_eq!(after.status, 200);
    server.stop();
}

#[test]
fn shutdown_endpoint_stops_the_daemon() {
    let (mut server, addr) = start();
    let r = client::request(&addr, "POST", "/shutdown", &[]).unwrap();
    assert_eq!(r.status, 200);
    // join() returns only once the accept loop has exited.
    server.join();
    // Further connections now fail (or are refused mid-handshake).
    assert!(client::request(&addr, "GET", "/healthz", &[]).is_err());
}
