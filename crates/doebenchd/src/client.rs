//! A minimal blocking HTTP client for the daemon — used by the
//! `doebench query` subcommand and the round-trip tests, so the CI
//! smoke job needs no external HTTP tooling.

use std::io::{Read, Write};
use std::net::TcpStream;

use crate::http::percent_encode;

/// A fetched response.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers, lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A client-side failure (connect, I/O, malformed response).
#[derive(Debug)]
pub struct ClientError(pub String);

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ClientError {}

fn err(msg: impl std::fmt::Display) -> ClientError {
    ClientError(msg.to_string())
}

/// Issue one request (`Connection: close`; the server never keeps
/// connections alive) and read the full response.
pub fn request(
    addr: &str,
    method: &str,
    target: &str,
    body: &[u8],
) -> Result<ClientResponse, ClientError> {
    let mut stream = TcpStream::connect(addr).map_err(|e| err(format!("connect {addr}: {e}")))?;
    // Head and body go out in one write.
    let mut msg = format!("{method} {target} HTTP/1.1\r\nHost: {addr}\r\n");
    if !body.is_empty() {
        msg.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    msg.push_str("Connection: close\r\n\r\n");
    let mut msg = msg.into_bytes();
    msg.extend_from_slice(body);
    stream.write_all(&msg).map_err(err)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(err)?;
    parse_response(&raw)
}

/// GET the daemon's answer to a shorthand query.
pub fn query_shorthand(
    addr: &str,
    shorthand: &str,
    format: &str,
) -> Result<ClientResponse, ClientError> {
    let target = format!(
        "/query?q={}&format={}",
        percent_encode(shorthand),
        percent_encode(format)
    );
    request(addr, "GET", &target, &[])
}

/// POST a JSON query document.
pub fn query_json(addr: &str, json: &str, format: &str) -> Result<ClientResponse, ClientError> {
    let target = format!("/query?format={}", percent_encode(format));
    request(addr, "POST", &target, json.as_bytes())
}

fn parse_response(raw: &[u8]) -> Result<ClientResponse, ClientError> {
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| err("response has no header terminator"))?;
    let head = std::str::from_utf8(&raw[..header_end]).map_err(err)?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| err("empty response"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(format!("bad status line: {status_line}")))?;
    let headers = lines
        .filter_map(|l| {
            let (k, v) = l.split_once(':')?;
            Some((k.trim().to_ascii_lowercase(), v.trim().to_string()))
        })
        .collect();
    Ok(ClientResponse {
        status,
        headers,
        body: raw[header_end + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_plain_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nX-Doebench-Cache: hit\r\n\r\nbody bytes";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-doebench-cache"), Some("hit"));
        assert_eq!(r.header("X-DOEBENCH-CACHE"), Some("hit"));
        assert_eq!(r.text(), "body bytes");
    }
}
