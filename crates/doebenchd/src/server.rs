//! The daemon: a thread-per-connection HTTP server over
//! [`QueryService`].
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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
/// that connects and never sends pins its connection thread forever.
pub const CONN_TIMEOUT: Duration = Duration::from_secs(5);

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
        let accept_state = Arc::clone(&state);
        let accept_thread = thread::Builder::new()
            .name("doebenchd-accept".into())
            .spawn(move || accept_loop(listener, accept_state))
            .expect("spawn accept thread");
        Ok(Server {
            addr,
            state,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
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

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    for stream in listener.incoming() {
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let state = Arc::clone(&state);
        let _ = thread::Builder::new()
            .name("doebenchd-conn".into())
            .spawn(move || handle_connection(stream, state));
    }
}

fn handle_connection(mut stream: TcpStream, state: Arc<ServerState>) {
    // A stalled read or write then fails with a timeout error: the read
    // side answers 400 below, and either way the thread returns and the
    // socket closes. Setting a nonzero timeout cannot fail.
    let _ = stream.set_read_timeout(Some(CONN_TIMEOUT));
    let _ = stream.set_write_timeout(Some(CONN_TIMEOUT));
    let (response, shutdown) = match read_request(&mut stream) {
        Ok(req) => {
            let shutdown = req.method == "POST" && req.path == "/shutdown";
            (route(&req, &state), shutdown)
        }
        Err(e) => (Response::text(400, format!("bad request: {e}\n")), false),
    };
    let _ = response.write_to(&mut stream);
    let _ = stream.flush();
    // Send the reply and the FIN now. Closing a socket with unread input
    // (a request cut short at its size limit) resets the connection, and
    // the reset would otherwise discard whatever of the reply the kernel
    // still holds back.
    let _ = stream.shutdown(Shutdown::Write);
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

fn route(req: &Request, state: &Arc<ServerState>) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/") => Response::text(200, INDEX),
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/stats") => stats(state),
        // The stop flag is set in `handle_connection` after this reply
        // has been written, so the client always sees the 200.
        ("POST", "/shutdown") => Response::text(200, "shutting down\n"),
        ("GET", "/query") => match req.param("q") {
            Some(q) => answer_shorthand(&q, req, state),
            None => Response::text(400, "missing ?q=<shorthand query>\n"),
        },
        ("POST", "/query") => {
            let body = String::from_utf8_lossy(&req.body);
            let text = body.trim();
            let parsed = if text.starts_with('{') {
                Query::parse(text)
            } else {
                Query::parse_shorthand(text)
            };
            match parsed {
                Ok(q) => answer(&q, req, state),
                Err(e) => Response::text(400, format!("bad query: {e}\n")),
            }
        }
        ("GET", path) if path.starts_with("/table/") => {
            let n = &path["/table/".len()..];
            match n {
                "4" | "5" | "6" | "7" => answer_shorthand(&format!("table{n}"), req, state),
                _ => Response::text(404, "no such table (try /table/4 .. /table/7)\n"),
            }
        }
        (_, "/query") | (_, "/shutdown") | (_, "/healthz") | (_, "/stats") => {
            Response::text(405, "method not allowed\n")
        }
        _ => Response::text(404, "not found\n"),
    }
}

fn stats(state: &Arc<ServerState>) -> Response {
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

fn answer_shorthand(q: &str, req: &Request, state: &Arc<ServerState>) -> Response {
    match Query::parse_shorthand(q) {
        Ok(query) => answer(&query, req, state),
        Err(e) => Response::text(400, format!("bad query: {e}\n")),
    }
}

fn parse_format(req: &Request) -> Result<Format, QueryError> {
    match req.param("format") {
        None => Ok(Format::Ascii),
        Some(f) => Format::parse(&f).ok_or_else(|| QueryError(format!("unknown format '{f}'"))),
    }
}

fn answer(q: &Query, req: &Request, state: &Arc<ServerState>) -> Response {
    let format = match parse_format(req) {
        Ok(f) => f,
        Err(e) => return Response::text(400, format!("{e}\n")),
    };
    state.queries.fetch_add(1, Ordering::Relaxed);
    match state.service.answer(q) {
        Ok((result, meta)) => {
            let body = result.body(format);
            let resp = if format == Format::Json {
                Response::json(200, body)
            } else {
                Response::text(200, body)
            };
            attach_meta(resp, &result.key, &meta)
        }
        Err(e) => Response::text(400, format!("query failed: {e}\n")),
    }
}

fn attach_meta(resp: Response, key: &str, meta: &ServeMeta) -> Response {
    resp.header("X-Doebench-Cache", meta.verdict())
        .header("X-Doebench-Cells-Cached", meta.cached.to_string())
        .header("X-Doebench-Cells-Executed", meta.executed.to_string())
        .header("X-Doebench-Cells-Coalesced", meta.coalesced.to_string())
        .header("X-Doebench-Key", key)
        .header("X-Doebench-Code-Version", CODE_VERSION)
}
