//! The HTTP/1.1 subset shared by the server and the bundled client.
//!
//! The build environment is offline and std-only, so this is a hand-rolled
//! implementation covering exactly what the service needs: request lines
//! with query strings, `Content-Length` or chunked request bodies, fixed
//! responses, and `Transfer-Encoding: chunked` responses for row
//! streaming. Connections are persistent by default (HTTP/1.1 keep-alive):
//! every response is explicitly framed (`Content-Length` or chunked) and
//! carries an explicit `Connection:` header, so the peer always knows
//! whether another request may follow on the same socket.

use std::io::{BufRead, Read, Write};

use crate::error::ServerError;

/// Maximum accepted size of a request/response head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Maximum accepted request body (fit payloads: schema + CSV text).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// A parsed request: method, decoded path, query pairs, headers, body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …).
    pub method: String,
    /// The percent-decoded path, without the query string.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` or a chunked body was sent).
    pub body: Vec<u8>,
    /// `true` for `HTTP/1.1` requests (persistent by default), `false` for
    /// `HTTP/1.0` (close by default).
    pub http11: bool,
}

impl Request {
    /// Reads one request from `reader`. A body is framed by
    /// `Content-Length` or by `Transfer-Encoding: chunked`, each bounded by
    /// [`MAX_BODY_BYTES`]. Any other transfer coding, and a transfer coding
    /// together with `Content-Length` (the request-smuggling shape of
    /// RFC 9112 §6.3), is refused.
    ///
    /// # Errors
    /// Returns [`ServerError::Protocol`] on malformed, oversized or refused
    /// framing and [`ServerError::Io`] on socket failure.
    pub fn read_from<R: BufRead>(reader: &mut R) -> Result<Self, ServerError> {
        let line = read_crlf_line(reader)?;
        let mut parts = line.split(' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or_else(|| ServerError::Protocol("empty request line".into()))?
            .to_string();
        let target = parts
            .next()
            .ok_or_else(|| ServerError::Protocol("request line lacks a target".into()))?;
        let http11 = match parts.next() {
            Some("HTTP/1.1") => true,
            Some("HTTP/1.0") => false,
            _ => return Err(ServerError::Protocol("unsupported HTTP version".into())),
        };
        let (raw_path, raw_query) = match target.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (target, None),
        };
        let path = percent_decode(raw_path)?;
        let query = match raw_query {
            Some(q) => parse_query(q)?,
            None => Vec::new(),
        };
        let headers = read_headers(reader)?;
        let mut body = Vec::new();
        match (
            header_value(&headers, "transfer-encoding"),
            header_value(&headers, "content-length"),
        ) {
            (Some(_), Some(_)) => {
                return Err(ServerError::Protocol(
                    "Transfer-Encoding together with Content-Length is refused".into(),
                ))
            }
            (Some(coding), None) if coding.trim().eq_ignore_ascii_case("chunked") => {
                read_chunked_into(reader, &mut body)?;
            }
            (Some(coding), None) => {
                return Err(ServerError::Protocol(format!(
                    "unsupported transfer coding `{coding}`"
                )))
            }
            (None, Some(raw)) => {
                let len: usize = raw
                    .trim()
                    .parse()
                    .map_err(|_| ServerError::Protocol(format!("bad Content-Length `{raw}`")))?;
                if len > MAX_BODY_BYTES {
                    return Err(ServerError::Protocol(format!(
                        "body of {len} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                    )));
                }
                read_exact_into(reader, &mut body, len)?;
            }
            (None, None) => {}
        }
        Ok(Self { method, path, query, headers, body, http11 })
    }

    /// Whether the peer wants the connection kept open after this request:
    /// HTTP/1.1 unless `Connection: close`, HTTP/1.0 only with an explicit
    /// `Connection: keep-alive`.
    #[must_use]
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }

    /// The first query value for `key`, if present.
    #[must_use]
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The first header value for lower-case `name`, if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        header_value(&self.headers, name)
    }

    /// The path split on `/`, without empty leading/trailing segments.
    #[must_use]
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// A parsed response (client side).
#[derive(Debug, Clone)]
pub struct Response {
    /// The HTTP status code.
    pub code: u16,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The reassembled body (chunked transfers are already decoded).
    pub body: Vec<u8>,
}

impl Response {
    /// Reads one response from `reader`, decoding chunked transfer encoding
    /// and `Content-Length` bodies (anything else reads to end-of-stream,
    /// valid here because the server always closes the connection).
    ///
    /// # Errors
    /// Returns [`ServerError::Protocol`] on malformed framing and
    /// [`ServerError::Io`] on socket failure.
    pub fn read_from<R: BufRead>(reader: &mut R) -> Result<Self, ServerError> {
        let (resp, truncated) = Self::read_partial(reader)?;
        match truncated {
            None => Ok(resp),
            Some(e) => Err(e),
        }
    }

    /// Like [`Response::read_from`], but a body truncated mid-transfer (the
    /// connection died, a chunk was cut short) is *not* a hard failure: the
    /// head must parse, and the return value is the response with every
    /// body byte that did arrive, plus the error that ended the transfer if
    /// there was one. This is what lets the retrying client keep the prefix
    /// of an interrupted row stream and resume from the cursor instead of
    /// re-downloading from row zero.
    ///
    /// # Errors
    /// Returns [`ServerError::Protocol`]/[`ServerError::Io`] only when the
    /// status line or headers are unreadable — before any body exists.
    pub fn read_partial<R: BufRead>(
        reader: &mut R,
    ) -> Result<(Self, Option<ServerError>), ServerError> {
        let line = read_crlf_line(reader)?;
        let mut parts = line.split(' ');
        match parts.next() {
            Some("HTTP/1.1" | "HTTP/1.0") => {}
            _ => return Err(ServerError::Protocol("bad status line".into())),
        }
        let code: u16 = parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| ServerError::Protocol("bad status code".into()))?;
        let headers = read_headers(reader)?;
        let mut body = Vec::new();
        let outcome = if header_value(&headers, "transfer-encoding")
            .is_some_and(|v| v.trim().eq_ignore_ascii_case("chunked"))
        {
            read_chunked_into(reader, &mut body)
        } else if let Some(raw) = header_value(&headers, "content-length") {
            match raw.trim().parse::<usize>() {
                Ok(len) if len <= MAX_BODY_BYTES => read_exact_into(reader, &mut body, len),
                Ok(len) => Err(ServerError::Protocol(format!("body of {len} bytes is oversized"))),
                Err(_) => Err(ServerError::Protocol(format!("bad Content-Length `{raw}`"))),
            }
        } else {
            reader.read_to_end(&mut body).map(|_| ()).map_err(ServerError::from)
        };
        Ok((Self { code, headers, body }, outcome.err()))
    }

    /// The first header value for lower-case `name`, if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        header_value(&self.headers, name)
    }

    /// The body as UTF-8 text (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// The canonical reason phrase for the status codes the service emits.
#[must_use]
pub fn reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        402 => "Payment Required",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a complete fixed-length response. `extra_headers` are emitted
/// after the standard ones (the server passes its `X-PrivBayes-Api` version
/// marker through here so **every** response — success or error — carries
/// it). `keep_alive` selects the `Connection:` disposition the head
/// advertises; it must match what the serving loop actually does next.
///
/// # Errors
/// Propagates socket write failures.
pub fn write_response<W: Write + ?Sized>(
    out: &mut W,
    code: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    keep_alive: bool,
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        out,
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reason(code),
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    write_connection_header(out, keep_alive)?;
    out.write_all(body)?;
    out.flush()
}

fn write_connection_header<W: Write + ?Sized>(
    out: &mut W,
    keep_alive: bool,
) -> std::io::Result<()> {
    if keep_alive {
        out.write_all(b"Connection: keep-alive\r\n\r\n")
    } else {
        out.write_all(b"Connection: close\r\n\r\n")
    }
}

/// An in-progress `Transfer-Encoding: chunked` response. Each [`write`]
/// becomes one HTTP chunk on the wire, so the receiver can consume rows as
/// they are produced; [`finish`] emits the terminating zero-length chunk.
///
/// [`write`]: ChunkedResponse::write
/// [`finish`]: ChunkedResponse::finish
#[derive(Debug)]
pub struct ChunkedResponse<W: Write> {
    out: W,
}

impl<W: Write> ChunkedResponse<W> {
    /// Writes the response head and returns the chunk writer.
    /// `extra_headers` are emitted after the standard ones, so chunked
    /// streams carry the same `Content-Type`/`X-PrivBayes-Api` discipline
    /// as fixed responses.
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn begin(
        mut out: W,
        code: u16,
        content_type: &str,
        extra_headers: &[(&str, &str)],
        keep_alive: bool,
    ) -> std::io::Result<Self> {
        write!(
            out,
            "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\n",
            reason(code)
        )?;
        for (name, value) in extra_headers {
            write!(out, "{name}: {value}\r\n")?;
        }
        write_connection_header(&mut out, keep_alive)?;
        Ok(Self { out })
    }

    /// Emits `data` as one chunk (empty input is skipped — a zero-length
    /// chunk would terminate the stream).
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn write(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.out, "{:X}\r\n", data.len())?;
        self.out.write_all(data)?;
        self.out.write_all(b"\r\n")
    }

    /// Terminates the stream and flushes.
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.out.write_all(b"0\r\n\r\n")?;
        self.out.flush()
    }
}

/// Reads one CRLF-terminated line (the trailing `\r\n` is stripped; a bare
/// `\n` is tolerated), bounded by [`MAX_HEAD_BYTES`]. The cap is enforced
/// *while* reading (via [`Read::take`]), so a peer sending an endless
/// newline-free stream is cut off at the limit instead of buffered into
/// memory.
fn read_crlf_line<R: BufRead>(reader: &mut R) -> Result<String, ServerError> {
    let mut line = String::new();
    let mut limited = reader.by_ref().take(MAX_HEAD_BYTES as u64 + 1);
    let n = limited.read_line(&mut line)?;
    if n == 0 {
        // EOF where a line was expected: the peer vanished. Classified as
        // an I/O failure (not a protocol violation) so retrying clients
        // treat a connection torn mid-head like any other dead socket.
        return Err(ServerError::Io("unexpected end of stream".into()));
    }
    if line.len() > MAX_HEAD_BYTES {
        return Err(ServerError::Protocol("header line exceeds the size limit".into()));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Reads headers until the blank line, lower-casing names.
fn read_headers<R: BufRead>(reader: &mut R) -> Result<Vec<(String, String)>, ServerError> {
    let mut headers = Vec::new();
    let mut total = 0usize;
    loop {
        let line = read_crlf_line(reader)?;
        if line.is_empty() {
            return Ok(headers);
        }
        total += line.len();
        if total > MAX_HEAD_BYTES {
            return Err(ServerError::Protocol("headers exceed the size limit".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ServerError::Protocol(format!("malformed header `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
}

/// Reads exactly `len` bytes, appending incrementally so that on a
/// truncated transfer every byte that did arrive is already in `body`
/// (unlike `read_exact`, which leaves its buffer unspecified on failure).
fn read_exact_into<R: Read>(
    reader: &mut R,
    body: &mut Vec<u8>,
    len: usize,
) -> Result<(), ServerError> {
    let mut remaining = len;
    let mut buf = [0u8; 8192];
    while remaining > 0 {
        let want = remaining.min(buf.len());
        let n = reader.read(&mut buf[..want])?;
        if n == 0 {
            return Err(ServerError::Protocol(format!(
                "body truncated with {remaining} of {len} bytes outstanding"
            )));
        }
        body.extend_from_slice(&buf[..n]);
        remaining -= n;
    }
    Ok(())
}

/// Decodes a chunked body — `SIZE-in-hex CRLF data CRLF`, terminated by a
/// zero-size chunk — appending into `body` as data arrives, so a
/// mid-stream failure leaves the decoded prefix intact.
fn read_chunked_into<R: BufRead>(reader: &mut R, body: &mut Vec<u8>) -> Result<(), ServerError> {
    loop {
        let line = read_crlf_line(reader)?;
        // Chunk extensions (after `;`) are allowed by the RFC; ignore them.
        let size_text = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_text, 16)
            .map_err(|_| ServerError::Protocol(format!("bad chunk size `{line}`")))?;
        if body.len().saturating_add(size) > MAX_BODY_BYTES {
            return Err(ServerError::Protocol("chunked body is oversized".into()));
        }
        if size == 0 {
            // Trailer section: read lines until the final blank one.
            loop {
                if read_crlf_line(reader)?.is_empty() {
                    return Ok(());
                }
            }
        }
        read_exact_into(reader, body, size)?;
        let sep = read_crlf_line(reader)?;
        if !sep.is_empty() {
            return Err(ServerError::Protocol("chunk data not followed by CRLF".into()));
        }
    }
}

/// Parses `a=1&b=two` into decoded pairs.
fn parse_query(raw: &str) -> Result<Vec<(String, String)>, ServerError> {
    let mut pairs = Vec::new();
    for piece in raw.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = piece.split_once('=').unwrap_or((piece, ""));
        pairs.push((percent_decode(k)?, percent_decode(v)?));
    }
    Ok(pairs)
}

/// Decodes `%XX` escapes and `+` (as space); rejects invalid escapes and
/// non-UTF-8 results.
fn percent_decode(raw: &str) -> Result<String, ServerError> {
    if !raw.contains('%') && !raw.contains('+') {
        return Ok(raw.to_string());
    }
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| {
                        ServerError::Protocol(format!("invalid percent escape in `{raw}`"))
                    })?;
                out.push(hex);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out)
        .map_err(|_| ServerError::Protocol(format!("query is not UTF-8: `{raw}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_with_query_and_body() {
        let raw = b"POST /models/adult/synth?rows=10&seed=7&format=csv HTTP/1.1\r\n\
                    Host: localhost\r\nContent-Length: 5\r\n\r\nhello";
        let mut reader = &raw[..];
        let req = Request::read_from(&mut reader).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.segments(), vec!["models", "adult", "synth"]);
        assert_eq!(req.query("rows"), Some("10"));
        assert_eq!(req.query("seed"), Some("7"));
        assert_eq!(req.query("missing"), None);
        assert_eq!(req.body, b"hello");
        assert!(req.http11);
        assert!(req.wants_keep_alive(), "HTTP/1.1 is persistent by default");
    }

    #[test]
    fn chunked_request_bodies_are_decoded_and_ambiguous_framing_is_refused() {
        let raw = b"POST /v1/models/m/synth HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    6\r\n{\"rows\r\n5;ext=1\r\n\": 5}\r\n0\r\n\r\n\
                    GET /healthz HTTP/1.1\r\n\r\n";
        let mut reader = &raw[..];
        let req = Request::read_from(&mut reader).unwrap();
        assert_eq!(req.body, b"{\"rows\": 5}");
        // The chunk lines were consumed: the next request parses cleanly.
        assert_eq!(Request::read_from(&mut reader).unwrap().path, "/healthz");
        for framing in [
            "Transfer-Encoding: chunked\r\nContent-Length: 5",
            "Content-Length: 5\r\nTransfer-Encoding: chunked",
            "Transfer-Encoding: gzip, chunked",
        ] {
            let raw = format!("POST / HTTP/1.1\r\n{framing}\r\n\r\n0\r\n\r\n");
            let err = Request::read_from(&mut raw.as_bytes()).unwrap_err();
            assert!(matches!(err, ServerError::Protocol(_)), "{framing}: {err}");
        }
    }

    #[test]
    fn connection_disposition_follows_version_and_header() {
        let parse = |raw: &[u8]| Request::read_from(&mut &raw[..]).unwrap();
        assert!(parse(b"GET / HTTP/1.1\r\n\r\n").wants_keep_alive());
        assert!(!parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").wants_keep_alive());
        assert!(!parse(b"GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n").wants_keep_alive());
        assert!(!parse(b"GET / HTTP/1.0\r\n\r\n").wants_keep_alive());
        assert!(parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").wants_keep_alive());
    }

    #[test]
    fn percent_decoding_applies_to_path_and_query() {
        let raw = b"GET /models/a%2Db?comment=hi+there%21 HTTP/1.1\r\n\r\n";
        let req = Request::read_from(&mut &raw[..]).unwrap();
        assert_eq!(req.path, "/models/a-b");
        assert_eq!(req.query("comment"), Some("hi there!"));
    }

    #[test]
    fn rejects_malformed_requests() {
        for raw in [
            &b"\r\n\r\n"[..],
            &b"GET\r\n\r\n"[..],
            &b"GET / HTTP/3.0\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"[..],
            &b"GET /%zz HTTP/1.1\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
        ] {
            assert!(Request::read_from(&mut &raw[..]).is_err(), "{raw:?}");
        }
    }

    #[test]
    fn newline_free_flood_is_cut_off_at_the_head_limit() {
        // An endless stream with no `\n` must be rejected after at most
        // MAX_HEAD_BYTES + 1 bytes, not buffered until memory runs out.
        struct Flood(usize);
        impl std::io::Read for Flood {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.0 += buf.len();
                buf.fill(b'A');
                Ok(buf.len())
            }
        }
        let mut reader = std::io::BufReader::new(Flood(0));
        let err = Request::read_from(&mut reader).unwrap_err();
        assert!(err.to_string().contains("size limit"), "{err}");
        assert!(
            reader.get_ref().0 <= 2 * MAX_HEAD_BYTES,
            "read {} bytes before giving up",
            reader.get_ref().0
        );
    }

    #[test]
    fn fixed_response_round_trips() {
        let mut wire = Vec::new();
        write_response(
            &mut wire,
            404,
            "application/json",
            &[("X-PrivBayes-Api", "v1")],
            false,
            b"{\"error\":\"not-found\"}",
        )
        .unwrap();
        let resp = Response::read_from(&mut &wire[..]).unwrap();
        assert_eq!(resp.code, 404);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.header("x-privbayes-api"), Some("v1"));
        assert_eq!(resp.header("connection"), Some("close"));
        assert_eq!(resp.text(), "{\"error\":\"not-found\"}");

        let mut wire = Vec::new();
        write_response(&mut wire, 200, "application/json", &[], true, b"{}").unwrap();
        let resp = Response::read_from(&mut &wire[..]).unwrap();
        assert_eq!(resp.header("connection"), Some("keep-alive"));
    }

    #[test]
    fn chunked_response_round_trips() {
        let mut wire = Vec::new();
        let mut chunked =
            ChunkedResponse::begin(&mut wire, 200, "text/csv", &[("X-PrivBayes-Api", "v1")], true)
                .unwrap();
        chunked.write(b"a,b\n").unwrap();
        chunked.write(b"").unwrap(); // skipped, must not terminate the stream
        chunked.write(b"0,1\n1,0\n").unwrap();
        chunked.finish().unwrap();
        let resp = Response::read_from(&mut &wire[..]).unwrap();
        assert_eq!(resp.code, 200);
        assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
        assert_eq!(resp.header("x-privbayes-api"), Some("v1"));
        assert_eq!(resp.header("connection"), Some("keep-alive"));
        assert_eq!(resp.text(), "a,b\n0,1\n1,0\n");
    }

    #[test]
    fn content_length_response_reads_exact() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbodyEXTRA";
        let resp = Response::read_from(&mut &wire[..]).unwrap();
        assert_eq!(resp.body, b"body");
    }

    #[test]
    fn eof_terminated_response_reads_to_end() {
        let wire = b"HTTP/1.1 200 OK\r\n\r\neverything until close";
        let resp = Response::read_from(&mut &wire[..]).unwrap();
        assert_eq!(resp.text(), "everything until close");
    }

    #[test]
    fn rejects_bad_chunk_framing() {
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nZZ\r\n";
        assert!(Response::read_from(&mut &wire[..]).is_err());
    }

    #[test]
    fn reason_phrases_cover_emitted_codes() {
        for code in [200, 201, 400, 402, 404, 405, 408, 409, 413, 500, 503] {
            assert!(!reason(code).is_empty());
        }
        assert_eq!(reason(408), "Request Timeout");
        assert_eq!(reason(503), "Service Unavailable");
    }

    #[test]
    fn read_partial_keeps_the_prefix_of_a_truncated_chunked_stream() {
        // A stream cut mid-chunk: head + one full chunk + half of another.
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                     4\r\na,b\n\r\n8\r\n0,1\n";
        let (resp, err) = Response::read_partial(&mut &wire[..]).unwrap();
        assert_eq!(resp.code, 200);
        assert_eq!(resp.text(), "a,b\n0,1\n", "all delivered bytes survive");
        assert!(err.is_some(), "the truncation is reported alongside the prefix");

        // The strict reader rejects the same wire bytes outright.
        assert!(Response::read_from(&mut &wire[..]).is_err());
    }

    #[test]
    fn read_partial_keeps_the_prefix_of_a_short_content_length_body() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        let (resp, err) = Response::read_partial(&mut &wire[..]).unwrap();
        assert_eq!(resp.body, b"abc");
        assert!(err.is_some());
    }

    #[test]
    fn read_partial_of_a_complete_response_reports_no_error() {
        let mut wire = Vec::new();
        let mut chunked = ChunkedResponse::begin(&mut wire, 200, "text/csv", &[], false).unwrap();
        chunked.write(b"a,b\nrow\n").unwrap();
        chunked.finish().unwrap();
        let (resp, err) = Response::read_partial(&mut &wire[..]).unwrap();
        assert!(err.is_none());
        assert_eq!(resp.text(), "a,b\nrow\n");
    }
}
