//! The daemon: an HTTP server over [`QueryService`] with a fixed
//! worker pool.
//!
//! One accept thread hands each connection through a bounded backlog
//! ([`BACKLOG`]) to `max(2, available_parallelism())` worker threads that
//! live as long as the server; no thread is spawned per request. When
//! the backlog is full, the accept thread itself answers `503` with
//! `Retry-After: 1`. A handler that panics answers `500`, and its worker
//! goes on to the next connection.
//!
//! Routes:
//!
//! | Method | Path        | Meaning                                      |
//! |--------|-------------|----------------------------------------------|
//! | GET    | `/`         | route index                                  |
//! | GET    | `/healthz`  | liveness probe (`ok`)                        |
//! | GET    | `/stats`    | cache + request counters (JSON)              |
//! | GET    | `/query`    | `?q=<shorthand>&format=ascii|md|csv|json`    |
//! | POST   | `/query`    | body = canonical JSON query (or shorthand)   |
//! | GET    | `/table/N`  | shortcut for `?q=tableN` (N in 4..=7)        |
//! | POST   | `/shutdown` | graceful stop                                |
//!
//! Serving metadata travels in `X-Doebench-*` response headers, never
//! in the body: a cache-hit body is byte-identical to the cold body,
//! which is byte-identical to the offline CLI output. The daemon holds
//! no wall clock — nothing in this crate can observe time, so nothing
//! can leak it into a cached payload.

use std::io::Write as _;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use doe_report::json::Json;
use doe_report::Format;
use doebench::query::{Query, QueryError, CODE_VERSION};

use crate::http::{read_request, Request, Response};
use crate::service::{QueryService, ServeMeta};

/// The default TCP port.
pub const DEFAULT_PORT: u16 = 7733;

/// How long a connection may stall — sending its request, or taking the
/// reply — before the daemon gives up on it. Without a bound, a client
/// that connects and never sends pins its worker forever.
pub const CONN_TIMEOUT: Duration = Duration::from_secs(5);

/// Connections accepted but not yet taken by a worker. A connection that
/// arrives while this many wait is answered `503` at once.
pub const BACKLOG: usize = 64;

struct ServerState {
    service: QueryService,
    stop: AtomicBool,
    queries: AtomicU64,
    addr: std::net::SocketAddr,
}

/// A running daemon bound to a local address.
pub struct Server {
    addr: std::net::SocketAddr,
    state: Arc<ServerState>,
    workers: usize,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving on `127.0.0.1:port` (`port = 0` picks an
    /// ephemeral port; read it back from [`Server::addr`]).
    pub fn start(port: u16) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            service: QueryService::new(),
            stop: AtomicBool::new(false),
            queries: AtomicU64::new(0),
            addr,
        });
        let (backlog, queue) = mpsc::sync_channel(BACKLOG);
        let queue = Arc::new(Mutex::new(queue));
        let workers = thread::available_parallelism()
            .map_or(1, |n| n.get())
            .max(2);
        // Workers are not joined: one may be waiting out a silent
        // client's `CONN_TIMEOUT`, and stopping must not wait on a client.
        // Each exits once the accept thread has dropped the backlog's
        // sender and the backlog is drained; handler panics are caught,
        // so a detached worker hides none.
        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            let state = Arc::clone(&state);
            thread::Builder::new()
                .name("doebenchd-worker".into())
                .spawn(move || {
                    let mut bufs = Buffers::default();
                    worker_loop(&queue, |stream| {
                        handle_connection(stream, &state, &mut bufs)
                    })
                })?;
        }
        let accept_state = Arc::clone(&state);
        let accept_thread = thread::Builder::new()
            .name("doebenchd-accept".into())
            .spawn(move || accept_loop(listener, &accept_state, backlog))?;
        Ok(Server {
            addr,
            state,
            workers,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// How many worker threads serve connections.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Request a stop and wait for the accept loop to exit. Idempotent.
    pub fn stop(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }

    /// Block until the server stops (foreground `doebench serve`).
    pub fn join(&mut self) {
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, state: &ServerState, backlog: SyncSender<TcpStream>) {
    for stream in listener.incoming() {
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // `Disconnected` cannot happen: the workers hold the receiver and
        // never exit while this sender lives.
        if let Err(TrySendError::Full(mut stream)) = backlog.try_send(stream) {
            // A fresh socket's send buffer is empty, so this short reply
            // fits without waiting; non-blocking mode makes sure a client
            // cannot stall the accept thread.
            let _ = stream.set_nonblocking(true);
            let busy = Response::text(503, "busy: every worker is serving; retry\n")
                .header("Retry-After", "1");
            finish(&mut stream, &busy, &mut Vec::new());
        }
    }
}

/// Serve connections from `queue` with `handle` until the queue's sender
/// is gone. A panicking `handle` answers 500, and the loop goes on.
fn worker_loop(queue: &Mutex<Receiver<TcpStream>>, mut handle: impl FnMut(&mut TcpStream)) {
    loop {
        // The guard lives to the end of this statement: one idle worker
        // waits in `recv`, the others on the mutex. Nothing panics while
        // holding it, so poisoning cannot happen.
        let next = queue.lock().expect("backlog lock is never poisoned").recv();
        let Ok(mut stream) = next else { return };
        if panic::catch_unwind(AssertUnwindSafe(|| handle(&mut stream))).is_err() {
            let error = Response::text(500, "internal error\n");
            finish(&mut stream, &error, &mut Vec::new());
        }
    }
}

/// Send `response`, serialized in `msg`, and the FIN. Closing a socket
/// with unread input (a request cut short at its size limit, or one never
/// read) resets the connection, and the reset would otherwise discard
/// whatever of the reply the kernel still holds back.
fn finish(stream: &mut TcpStream, response: &Response, msg: &mut Vec<u8>) {
    let _ = response.write_to(stream, msg);
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Write);
}

/// What a worker keeps from one connection to the next: the body a
/// query answer renders into, and the message that carries it.
#[derive(Default)]
struct Buffers {
    body: String,
    msg: Vec<u8>,
}

fn handle_connection(stream: &mut TcpStream, state: &ServerState, bufs: &mut Buffers) {
    // A stalled read or write then fails with a timeout error: the read
    // side answers 400 below, and either way the worker moves on and the
    // socket closes. Setting a nonzero timeout cannot fail.
    let _ = stream.set_read_timeout(Some(CONN_TIMEOUT));
    let _ = stream.set_write_timeout(Some(CONN_TIMEOUT));
    let Buffers { body, msg } = bufs;
    body.clear();
    let (response, shutdown) = match read_request(stream) {
        Ok(req) => {
            let shutdown = req.method == "POST" && req.path == "/shutdown";
            (route(&req, state, body), shutdown)
        }
        Err(e) => (Response::text(400, format!("bad request: {e}\n")), false),
    };
    finish(stream, &response, msg);
    if shutdown {
        // Only now that the reply is on the wire: stop the accept loop
        // (a throwaway self-connection makes the blocking accept()
        // re-check the flag). Doing this before the write would let the
        // process exit and cut the reply short.
        state.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(state.addr);
    }
}

const INDEX: &str = "\
doebenchd: DOE Top500 microbenchmark query daemon

  GET  /healthz                   liveness
  GET  /stats                     cache counters (JSON)
  GET  /query?q=<shorthand>       e.g. q=table4, q=table5@paper+Frontier
  POST /query                     body = JSON query
  GET  /table/4 .. /table/7       table shortcuts
  POST /shutdown                  graceful stop

Formats: &format=ascii|md|csv|json (default ascii).
Serving metadata is in X-Doebench-* response headers; bodies are
byte-identical whether served cold or from cache.
";

/// Answer `req`; a query answer renders its body into `body`.
fn route<'a>(req: &Request, state: &ServerState, body: &'a mut String) -> Response<'a> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/") => Response::text(200, INDEX),
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/stats") => stats(state),
        // The stop flag is set in `handle_connection` after this reply
        // has been written, so the client always sees the 200.
        ("POST", "/shutdown") => Response::text(200, "shutting down\n"),
        ("GET", "/query") => match req.param("q") {
            Some(q) => answer_shorthand(&q, req, state, body),
            None => Response::text(400, "missing ?q=<shorthand query>\n"),
        },
        ("POST", "/query") => {
            let text = String::from_utf8_lossy(&req.body);
            let text = text.trim();
            let parsed = if text.starts_with('{') {
                Query::parse(text)
            } else {
                Query::parse_shorthand(text)
            };
            match parsed {
                Ok(q) => answer(&q, req, state, body),
                Err(e) => Response::text(400, format!("bad query: {e}\n")),
            }
        }
        ("GET", path) if path.starts_with("/table/") => {
            let n = &path["/table/".len()..];
            match n {
                "4" | "5" | "6" | "7" => answer_shorthand(&format!("table{n}"), req, state, body),
                _ => Response::text(404, "no such table (try /table/4 .. /table/7)\n"),
            }
        }
        (_, "/query") | (_, "/shutdown") | (_, "/healthz") | (_, "/stats") => {
            Response::text(405, "method not allowed\n")
        }
        _ => Response::text(404, "not found\n"),
    }
}

fn stats(state: &ServerState) -> Response<'static> {
    let s = &state.service.cache().stats;
    let body = Json::obj([
        ("code_version", Json::s(CODE_VERSION)),
        (
            "queries",
            Json::Num(state.queries.load(Ordering::Relaxed) as f64),
        ),
        ("entries", Json::Num(state.service.cache().len() as f64)),
        (
            "cells",
            Json::obj([
                ("hits", Json::Num(s.hits.load(Ordering::Relaxed) as f64)),
                (
                    "executed",
                    Json::Num(s.executed.load(Ordering::Relaxed) as f64),
                ),
                (
                    "coalesced",
                    Json::Num(s.coalesced.load(Ordering::Relaxed) as f64),
                ),
            ]),
        ),
    ]);
    Response::json(200, body.canonical() + "\n")
}

fn answer_shorthand<'a>(
    q: &str,
    req: &Request,
    state: &ServerState,
    body: &'a mut String,
) -> Response<'a> {
    match Query::parse_shorthand(q) {
        Ok(query) => answer(&query, req, state, body),
        Err(e) => Response::text(400, format!("bad query: {e}\n")),
    }
}

fn parse_format(req: &Request) -> Result<Format, QueryError> {
    match req.param("format") {
        None => Ok(Format::Ascii),
        Some(f) => Format::parse(&f).ok_or_else(|| QueryError(format!("unknown format '{f}'"))),
    }
}

/// The media type of a body format: RFC 4180 for CSV, RFC 7763 for
/// Markdown.
fn content_type(f: Format) -> &'static str {
    match f {
        Format::Ascii => "text/plain; charset=utf-8",
        Format::Markdown => "text/markdown; charset=utf-8",
        Format::Csv => "text/csv; charset=utf-8",
        Format::Json => "application/json",
    }
}

fn answer<'a>(q: &Query, req: &Request, state: &ServerState, body: &'a mut String) -> Response<'a> {
    let format = match parse_format(req) {
        Ok(f) => f,
        Err(e) => return Response::text(400, format!("{e}\n")),
    };
    state.queries.fetch_add(1, Ordering::Relaxed);
    match state.service.answer(q) {
        Ok((result, meta)) => {
            result.write_body(format, body);
            let body: &'a String = body;
            let resp = Response::new(200, content_type(format), body.as_bytes());
            attach_meta(resp, &result.key, &meta)
        }
        Err(e) => Response::text(400, format!("query failed: {e}\n")),
    }
}

fn attach_meta<'a>(resp: Response<'a>, key: &str, meta: &ServeMeta) -> Response<'a> {
    resp.header("X-Doebench-Cache", meta.verdict())
        .header("X-Doebench-Cells-Cached", meta.cached.to_string())
        .header("X-Doebench-Cells-Executed", meta.executed.to_string())
        .header("X-Doebench-Cells-Coalesced", meta.coalesced.to_string())
        .header("X-Doebench-Key", key)
        .header("X-Doebench-Code-Version", CODE_VERSION)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_handler_answers_500_and_the_worker_serves_on() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind ephemeral port");
        let addr = listener.local_addr().expect("bound address").to_string();
        let (backlog, queue) = mpsc::sync_channel(1);
        let worker = thread::spawn(move || {
            worker_loop(&Mutex::new(queue), |stream| {
                let req = read_request(stream).expect("well-formed request");
                assert_ne!(req.path, "/boom", "the handler fails on /boom");
                finish(stream, &Response::text(200, "fine\n"), &mut Vec::new());
            })
        });
        for (path, status) in [("/boom", 500), ("/fine", 200)] {
            let addr = addr.clone();
            let client = thread::spawn(move || crate::client::request(&addr, "GET", path, &[]));
            let (stream, _) = listener.accept().expect("accept the client");
            backlog.send(stream).expect("the worker is alive");
            let reply = client.join().expect("client thread").expect("a reply");
            assert_eq!(reply.status, status, "GET {path}");
        }
        // Dropping the sender ends the worker.
        drop(backlog);
        worker.join().expect("the worker exits cleanly");
    }
}
