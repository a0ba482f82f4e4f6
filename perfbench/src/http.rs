//! A minimal HTTP/1.1 client for the measured traffic: one request at a time
//! on a kept-alive [`Session`] or a one-shot connection, chunked bodies
//! decoded into a buffer the caller reuses. Every failure the benchmark
//! counts — a 4xx or 5xx status, a socket error or reset, a truncated
//! body — is a [`Failure`].

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Timeout of every socket read and write.
const TIMEOUT: Duration = Duration::from_secs(60);

/// A kept-alive connection idle this long is reopened before use: the
/// server closes connections idle past its five-second deadline.
const STALE_AFTER: Duration = Duration::from_secs(4);

#[derive(Debug)]
pub enum Failure {
    Io(String),
    Status(u16, String),
    Truncated(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Io(e) => write!(f, "socket error: {e}"),
            Failure::Status(code, body) => write!(f, "HTTP {code}: {body}"),
            Failure::Truncated(e) => write!(f, "truncated response: {e}"),
        }
    }
}

fn io(e: std::io::Error) -> Failure {
    Failure::Io(e.to_string())
}

fn truncated(e: std::io::Error) -> Failure {
    Failure::Truncated(e.to_string())
}

/// The response head.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    /// Header names in lower case.
    pub headers: Vec<(String, String)>,
    /// Whether the server keeps the connection open.
    pub keep_alive: bool,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    idle_since: Instant,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, Failure> {
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream.set_read_timeout(Some(TIMEOUT)).map_err(io)?;
        stream.set_write_timeout(Some(TIMEOUT)).map_err(io)?;
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone().map_err(io)?);
        Ok(Self { reader, writer: stream, idle_since: Instant::now() })
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        keep_alive: bool,
        out: &mut Vec<u8>,
    ) -> Result<Reply, Failure> {
        out.clear();
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut head =
            format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: {connection}\r\n");
        if let Some(body) = body {
            head.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        head.push_str("\r\n");
        let mut request = head.into_bytes();
        request.extend_from_slice(body.unwrap_or_default());
        self.writer.write_all(&request).map_err(io)?;

        let mut reply = self.head()?;
        if reply.header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
            self.chunked(out)?;
        } else if let Some(len) = reply.header("content-length") {
            let len: usize = len
                .parse()
                .map_err(|_| Failure::Truncated(format!("bad content-length `{len}`")))?;
            out.resize(len, 0);
            self.reader.read_exact(out).map_err(truncated)?;
        } else {
            self.reader.read_to_end(out).map_err(truncated)?;
            reply.keep_alive = false;
        }
        self.idle_since = Instant::now();
        if reply.status >= 400 {
            let text = String::from_utf8_lossy(&out[..out.len().min(300)]).into_owned();
            return Err(Failure::Status(reply.status, text));
        }
        Ok(reply)
    }

    /// Reads one line; the end of the stream where a line belongs is a
    /// truncation.
    fn line(&mut self, line: &mut String) -> Result<(), Failure> {
        line.clear();
        match self.reader.read_line(line) {
            Ok(0) => Err(Failure::Truncated("connection closed mid-response".into())),
            Ok(_) => Ok(()),
            Err(e) => Err(io(e)),
        }
    }

    fn head(&mut self) -> Result<Reply, Failure> {
        let mut line = String::new();
        self.line(&mut line)?;
        let status =
            line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
                Failure::Truncated(format!("bad status line `{}`", line.trim_end()))
            })?;
        let mut headers = Vec::new();
        loop {
            self.line(&mut line)?;
            let text = line.trim_end();
            if text.is_empty() {
                break;
            }
            if let Some((name, value)) = text.split_once(':') {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let keep_alive =
            headers.iter().any(|(k, v)| k == "connection" && v.eq_ignore_ascii_case("keep-alive"));
        Ok(Reply { status, headers, keep_alive })
    }

    fn chunked(&mut self, out: &mut Vec<u8>) -> Result<(), Failure> {
        let mut line = String::new();
        loop {
            self.line(&mut line)?;
            let size_text = line.trim_end().split(';').next().unwrap_or_default().trim();
            let size = usize::from_str_radix(size_text, 16)
                .map_err(|_| Failure::Truncated(format!("bad chunk size `{size_text}`")))?;
            if size == 0 {
                // Trailers, up to the blank line that ends the message.
                loop {
                    self.line(&mut line)?;
                    if line.trim_end().is_empty() {
                        return Ok(());
                    }
                }
            }
            let start = out.len();
            out.resize(start + size, 0);
            self.reader.read_exact(&mut out[start..]).map_err(truncated)?;
            self.line(&mut line)?;
        }
    }
}

/// One client's kept-alive connection. It is reopened when the server
/// closed it after the last response (`Connection: close`, e.g. at the
/// per-connection request cap) or when it sat idle near the server's idle
/// deadline; a failed request drops it.
pub struct Session {
    addr: SocketAddr,
    conn: Option<Conn>,
}

impl Session {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, conn: None }
    }

    /// Sends one request and reads its whole response body into `out`.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        out: &mut Vec<u8>,
    ) -> Result<Reply, Failure> {
        let mut conn = match self.conn.take() {
            Some(conn) if conn.idle_since.elapsed() < STALE_AFTER => conn,
            _ => Conn::open(self.addr)?,
        };
        let reply = conn.exchange(method, path, body, true, out)?;
        if reply.keep_alive {
            self.conn = Some(conn);
        }
        Ok(reply)
    }
}

/// One request on a fresh connection that closes after the response.
pub fn one_shot(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    out: &mut Vec<u8>,
) -> Result<Reply, Failure> {
    Conn::open(addr)?.exchange(method, path, body, false, out)
}
