//! Client transports: how a request reaches a daemon and how its event
//! stream comes back.
//!
//! The protocol itself ([`protocol`](crate::protocol)) is
//! transport-agnostic JSON lines; a transport only has to deliver one
//! [`Request`] and hand back a readable stream of [`Event`] lines.
//! [`Endpoint`] is the parsed form of a user-supplied daemon address,
//! one variant per transport:
//!
//! - [`Endpoint::Unix`] — the local path: a Unix-domain socket, request
//!   line out, event lines back on the same stream.
//! - [`Endpoint::Http`] — the remote path: one `POST` against the
//!   vendored HTTP/1.1 shim (`crate::http`), events streamed back as
//!   the chunked response body.
//!
//! Client code — `matic submit`, the shard-sweep coordinator — calls
//! [`Endpoint::open`] and never cares which wire it is on.

use crate::http::{read_head, ChunkReader, PROTOCOL_PATH};
use crate::protocol::{read_message, write_message, Event, Request};
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A parsed daemon address: `http://host:port` selects the HTTP
/// transport, anything else is a Unix socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A local daemon's socket path.
    Unix(PathBuf),
    /// A remote daemon's `host:port` authority.
    Http(String),
}

impl Endpoint {
    /// Parses a user-supplied address.
    pub fn parse(addr: &str) -> Endpoint {
        match addr.strip_prefix("http://") {
            Some(authority) => Endpoint::Http(authority.trim_end_matches('/').to_string()),
            None => Endpoint::Unix(PathBuf::from(addr)),
        }
    }

    /// An endpoint for a local socket path.
    pub fn unix(path: impl AsRef<Path>) -> Endpoint {
        Endpoint::Unix(path.as_ref().to_path_buf())
    }

    /// Opens a fresh connection, sends `request`, and returns the
    /// stream of answer events.
    pub fn open(&self, request: &Request) -> Result<EventStream, String> {
        match self {
            Endpoint::Unix(path) => open_unix(path, request),
            Endpoint::Http(authority) => open_http(authority, request),
        }
    }
}

impl std::fmt::Display for Endpoint {
    /// The address, the way a user would write it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "{}", path.display()),
            Endpoint::Http(authority) => write!(f, "http://{authority}"),
        }
    }
}

/// The Unix-socket transport: JSON lines over a Unix-domain socket.
fn open_unix(path: &Path, request: &Request) -> Result<EventStream, String> {
    let stream = match UnixStream::connect(path) {
        Ok(stream) => stream,
        Err(e) if e.kind() == ErrorKind::ConnectionRefused && path.exists() => {
            // A socket file nobody answers on is a daemon that died
            // without cleanup. Remove the leftover so the next
            // `matic serve` binds cleanly, and fail like a daemon
            // refusing the request — not with a raw io error.
            let removed = std::fs::remove_file(path).is_ok();
            return Err(format!(
                "rejected: stale socket {path} — its daemon is gone{cleanup}; \
                     start one with `matic serve --listen {path}` and resubmit",
                path = path.display(),
                cleanup = if removed {
                    " (removed the leftover file)"
                } else {
                    ""
                },
            ));
        }
        Err(e) => {
            return Err(format!(
                "connecting to {} ({e}); is `matic serve --listen {}` running?",
                path.display(),
                path.display()
            ))
        }
    };
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cloning the connection: {e}"))?;
    write_message(&mut writer, request).map_err(|e| format!("sending the request: {e}"))?;
    Ok(EventStream {
        reader: Box::new(BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cloning the connection: {e}"))?,
        )),
        handle: StreamHandle::Unix(stream),
    })
}

/// The HTTP transport: the request POSTed over the vendored HTTP/1.1
/// shim, events streamed back as a chunked `application/x-ndjson` body.
fn open_http(addr: &str, request: &Request) -> Result<EventStream, String> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| format!("connecting to http://{addr} ({e}); is the daemon up?"))?;
    let body = {
        let mut line =
            serde_json::to_string(request).map_err(|e| format!("encoding request: {e}"))?;
        line.push('\n');
        line
    };
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cloning the connection: {e}"))?;
    write!(
        writer,
        "POST {PROTOCOL_PATH} HTTP/1.1\r\n\
             Host: {addr}\r\n\
             Content-Type: application/json\r\n\
             Content-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
        body.len()
    )
    .and_then(|_| writer.flush())
    .map_err(|e| format!("sending the request to http://{addr}: {e}"))?;

    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cloning the connection: {e}"))?,
    );
    let head =
        read_head(&mut reader).map_err(|e| format!("reading http://{addr} response: {e}"))?;
    let status_ok = head
        .line
        .split_whitespace()
        .nth(1)
        .is_some_and(|code| code == "200");
    if !status_ok {
        return Err(format!("http://{addr} answered `{}`", head.line));
    }
    let chunked = head
        .header("transfer-encoding")
        .is_some_and(|te| te.eq_ignore_ascii_case("chunked"));
    if !chunked {
        return Err(format!(
            "http://{addr} answered without chunked framing; not a matic daemon?"
        ));
    }
    Ok(EventStream {
        reader: Box::new(BufReader::new(ChunkReader::new(reader))),
        handle: StreamHandle::Tcp(stream),
    })
}

enum StreamHandle {
    Unix(UnixStream),
    Tcp(TcpStream),
}

/// The daemon's answer stream, transport-erased: JSON-line events with
/// an optional read timeout (the daemon's idle heartbeats keep a
/// healthy stream under any timeout a coordinator picks).
pub struct EventStream {
    reader: Box<dyn BufRead + Send>,
    handle: StreamHandle,
}

impl EventStream {
    /// Caps how long [`next_event`](EventStream::next_event) may block; `None`
    /// waits forever. A lapse surfaces as `WouldBlock`/`TimedOut`.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match &self.handle {
            StreamHandle::Unix(s) => s.set_read_timeout(timeout),
            StreamHandle::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// The next event; `Ok(None)` when the daemon closed the stream.
    ///
    /// Unlike the daemon's request reader, this one has no length cap: a
    /// `Done` event carries a whole report and a `ShardDone` every cell
    /// of its shard, so an event legitimately exceeds any bound a request
    /// fits in. The peer here is the daemon this client chose to call.
    pub fn next_event(&mut self) -> io::Result<Option<Event>> {
        read_message(&mut self.reader, usize::MAX)
    }
}
