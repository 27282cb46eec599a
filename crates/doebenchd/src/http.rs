//! A deliberately small HTTP/1.1 layer over `std::net`.
//!
//! Hand-rolled because the build environment has no crates.io access
//! (no hyper, no tokio). The daemon's needs are narrow: parse a request
//! line, a handful of headers, and an optional `Content-Length` body;
//! write a status line, headers, and a body; `Connection: close` on
//! every response so connection lifecycle stays trivial. No chunked
//! encoding, no keep-alive, no TLS.
//!
//! Every read is bounded while it happens: the request line and headers
//! share one 16 KiB budget, so a client that never sends a
//! newline gets its 400 once the budget is spent, not after buffering
//! whatever it sends until the connection times out.

use std::borrow::Cow;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Cap on the request line plus headers, and on the body; a query is at
/// most a few KB.
const MAX_HEADER_BYTES: usize = 16 * 1024;
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request.
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path component, percent-decoded (`/query`).
    pub path: String,
    /// Raw query string (undecoded; split first, decode per value).
    pub query: String,
    /// Body bytes (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of a query-string parameter, percent-decoded.
    pub fn param(&self, name: &str) -> Option<String> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then(|| percent_decode(v))
        })
    }
}

/// A malformed request (mapped to 400 by the server loop).
#[derive(Debug)]
pub struct HttpError(pub String);

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn err(msg: impl Into<String>) -> HttpError {
    HttpError(msg.into())
}

/// Decode `%XX` escapes and `+` (form-style spaces). An escape is `%`
/// and exactly two ASCII hex digits; any other `%` stays literal.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let hex = |k: usize| bytes.get(k).and_then(|&b| char::from(b).to_digit(16));
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => match (hex(i + 1), hex(i + 2)) {
                (Some(hi), Some(lo)) => {
                    out.push((hi << 4 | lo) as u8);
                    i += 2;
                }
                _ => out.push(b'%'),
            },
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Encode a string for use inside a query-string value.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => {
                out.push('%');
                out.push_str(&format!("{b:02X}"));
            }
        }
    }
    out
}

/// Read one line into `line`, taking it out of `budget`. A line that
/// spends the whole budget is rejected as soon as the budget runs out.
fn read_line_within(
    reader: &mut impl BufRead,
    line: &mut String,
    budget: &mut usize,
    what: &str,
) -> Result<usize, HttpError> {
    let n = reader
        .take(*budget as u64)
        .read_line(line)
        .map_err(|e| err(format!("read {what}: {e}")))?;
    if n == *budget {
        return Err(err(format!("{what} too large")));
    }
    *budget -= n;
    Ok(n)
}

/// Read and parse one request from a stream. Never panics: malformed or
/// oversized input, or a failed read, is an [`HttpError`].
pub fn read_request(stream: &mut impl Read) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut budget = MAX_HEADER_BYTES;

    read_line_within(&mut reader, &mut line, &mut budget, "request line")?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| err("empty request line"))?;
    let target = parts
        .next()
        .ok_or_else(|| err("request line has no target"))?;
    let version = parts
        .next()
        .ok_or_else(|| err("request line has no version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(err(format!("unsupported version {version}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };

    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        let n = read_line_within(&mut reader, &mut h, &mut budget, "header block")?;
        let h = h.trim_end();
        if n == 0 || h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| err("bad Content-Length"))?;
                if content_length > MAX_BODY_BYTES {
                    return Err(err("body too large"));
                }
            }
        }
    }

    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader
            .read_exact(&mut body)
            .map_err(|e| err(format!("read body: {e}")))?;
    }

    Ok(Request {
        method: method.to_string(),
        path: percent_decode(path),
        query: query.to_string(),
        body,
    })
}

/// A response under construction.
pub struct Response<'a> {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (name, value) beyond the standard set.
    pub headers: Vec<(String, String)>,
    /// Body bytes, owned or borrowed from a caller's render buffer.
    pub body: Cow<'a, [u8]>,
    /// `Content-Type` value.
    pub content_type: &'static str,
}

impl Response<'static> {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response::new(
            status,
            "text/plain; charset=utf-8",
            body.into().into_bytes(),
        )
    }

    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response::new(status, "application/json", body.into().into_bytes())
    }
}

impl<'a> Response<'a> {
    /// A response with a body of any media type.
    pub fn new(
        status: u16,
        content_type: &'static str,
        body: impl Into<Cow<'a, [u8]>>,
    ) -> Response<'a> {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
            content_type,
        }
    }

    /// Append a header.
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialize into `msg` (emptied first) and send it over a stream
    /// in one write (always `Connection: close`): status line, headers,
    /// then the body.
    pub fn write_to(&self, stream: &mut TcpStream, msg: &mut Vec<u8>) -> std::io::Result<()> {
        msg.clear();
        write!(
            msg,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )?;
        for (k, v) in &self.headers {
            msg.extend_from_slice(k.as_bytes());
            msg.extend_from_slice(b": ");
            msg.extend_from_slice(v.as_bytes());
            msg.extend_from_slice(b"\r\n");
        }
        msg.extend_from_slice(b"Connection: close\r\n\r\n");
        msg.extend_from_slice(&self.body);
        stream.write_all(msg)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::{collection, sample};

    #[test]
    fn percent_roundtrip() {
        let raw = "table5@paper Frontier seed=0x7";
        let enc = percent_encode(raw);
        assert!(!enc.contains(' '));
        assert_eq!(percent_decode(&enc), raw);
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        // An escape needs exactly two hex digits: a sign is not one (the
        // `+` then decodes as a space), and a short or non-hex tail stays
        // literal.
        assert_eq!(percent_decode("%+f"), "% f");
        assert_eq!(percent_decode("%2"), "%2");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    /// Well-formed requests the mutation fuzzer starts from.
    const REQUESTS: &[&str] = &[
        "GET /query?q=table4%40paper&format=json HTTP/1.1\r\nHost: x\r\n\r\n",
        "GET /healthz HTTP/1.0\r\n\r\n",
        "POST /query HTTP/1.1\r\nContent-Length: 6\r\nX-A: b\r\n\r\ntable5",
        "POST /shutdown HTTP/1.1\r\ncontent-length: 0\r\n\r\n",
    ];

    /// Apply `(op, at, byte)` edits: overwrite, insert, delete, truncate.
    fn mutate(seed: &str, edits: &[(u8, usize, u8)]) -> Vec<u8> {
        let mut bytes = seed.as_bytes().to_vec();
        for &(op, at, b) in edits {
            let at = at % (bytes.len() + 1);
            match op {
                0 if at < bytes.len() => bytes[at] = b,
                1 => bytes.insert(at, b),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.truncate(at),
            }
        }
        bytes
    }

    #[test]
    fn seed_requests_parse() {
        for seed in REQUESTS {
            let req = read_request(&mut seed.as_bytes()).expect(seed);
            assert!(req.path.starts_with('/'), "{seed:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..512)) {
            if let Ok(req) = read_request(&mut &bytes[..]) {
                prop_assert!(req.body.len() <= MAX_BODY_BYTES);
            }
        }

        #[test]
        fn mutated_requests_never_panic(
            seed in sample::select(REQUESTS.to_vec()),
            edits in collection::vec((0u8..4, any::<usize>(), any::<u8>()), 1..8),
        ) {
            if let Ok(req) = read_request(&mut &mutate(seed, &edits)[..]) {
                prop_assert!(req.body.len() <= MAX_BODY_BYTES);
            }
        }

        #[test]
        fn a_line_past_the_header_budget_is_an_error(
            prefix in sample::select(vec!["", "GET / HTTP/1.1\r\n"]),
            len in MAX_HEADER_BYTES..MAX_HEADER_BYTES + 4096,
            fill in any::<u8>(),
        ) {
            let fill = if fill == b'\n' { b'a' } else { fill };
            let mut bytes = prefix.as_bytes().to_vec();
            bytes.resize(prefix.len() + len, fill);
            prop_assert!(read_request(&mut &bytes[..]).is_err());
        }

        #[test]
        fn percent_decode_inverts_percent_encode(
            chars in collection::vec(prop_oneof![0u32..0x80, 0u32..0x11_0000], 0..24),
        ) {
            let s: String = chars.into_iter().filter_map(char::from_u32).collect();
            prop_assert_eq!(percent_decode(&percent_encode(&s)), s);
        }
    }
}
