//! A minimal vendored HTTP/1.1 shim: just enough protocol for the
//! serve subsystem's remote transport, on nothing but `std::net`.
//!
//! One request per connection, mirroring the Unix-socket transport: the
//! client POSTs a single JSON [`Request`](crate::Request) line
//! (`Content-Length` framed), and the daemon answers `200 OK` with a
//! `Transfer-Encoding: chunked` body of JSON [`Event`](crate::Event)
//! lines — one chunk per event, so each event is visible to the client
//! the moment it is written. No keep-alive, no pipelining, no
//! compression: `Connection: close` ends every exchange.
//!
//! The chunked framing is what makes the HTTP path equivalent to the
//! socket path: [`ChunkWriter`] turns every `write` into one chunk and
//! [`ChunkReader`] reassembles the byte stream, so the JSON-lines
//! protocol layered on top cannot tell the transports apart.

use std::io::{self, BufRead, ErrorKind, Read, Write};

/// The request path clients POST the protocol line to (versioned with
/// [`SERVE_SCHEMA`](crate::SERVE_SCHEMA)).
pub(crate) const PROTOCOL_PATH: &str = "/matic/v2";

/// Hard cap on an HTTP head or a request body: the protocol's requests
/// are small, so anything larger is a confused or hostile peer. The Unix
/// socket's request line has the body's cap.
const MAX_HEAD_BYTES: usize = 64 * 1024;
pub(crate) const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP head: the request/status line plus headers.
pub(crate) struct HttpHead {
    /// `POST /matic/v2 HTTP/1.1` or `HTTP/1.1 200 OK`.
    pub line: String,
    headers: Vec<(String, String)>,
}

impl HttpHead {
    /// The first header with this name, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The request's declared body length.
    pub fn content_length(&self) -> io::Result<usize> {
        self.header("content-length")
            .ok_or_else(|| io::Error::new(ErrorKind::InvalidData, "missing Content-Length"))?
            .trim()
            .parse::<usize>()
            .map_err(|_| io::Error::new(ErrorKind::InvalidData, "bad Content-Length"))
    }
}

/// Reads one head (request or status line + headers) off the stream.
pub(crate) fn read_head(r: &mut impl BufRead) -> io::Result<HttpHead> {
    let line = read_crlf_line(r)?;
    if line.is_empty() {
        return Err(io::Error::new(ErrorKind::UnexpectedEof, "empty HTTP head"));
    }
    let mut headers = Vec::new();
    let mut total = line.len();
    loop {
        let header = read_crlf_line(r)?;
        if header.is_empty() {
            return Ok(HttpHead { line, headers });
        }
        total += header.len();
        if total > MAX_HEAD_BYTES {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                "oversized HTTP head",
            ));
        }
        let (name, value) = header
            .split_once(':')
            .ok_or_else(|| io::Error::new(ErrorKind::InvalidData, "malformed header line"))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
}

/// Reads the `Content-Length`-framed request body.
pub(crate) fn read_body(r: &mut impl BufRead, len: usize) -> io::Result<Vec<u8>> {
    if len > MAX_BODY_BYTES {
        return Err(io::Error::new(ErrorKind::InvalidData, "oversized body"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

fn read_crlf_line(r: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            ErrorKind::UnexpectedEof,
            "peer hung up mid-head",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Turns every `write` into one HTTP/1.1 chunk. Call [`finish`] to
/// emit the terminating zero-length chunk.
///
/// [`finish`]: ChunkWriter::finish
pub(crate) struct ChunkWriter<W: Write> {
    inner: W,
}

impl<W: Write> ChunkWriter<W> {
    pub fn new(inner: W) -> Self {
        ChunkWriter { inner }
    }

    /// Ends the chunked body (`0\r\n\r\n`).
    pub fn finish(&mut self) -> io::Result<()> {
        self.inner.write_all(b"0\r\n\r\n")?;
        self.inner.flush()
    }
}

impl<W: Write> Write for ChunkWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        write!(self.inner, "{:x}\r\n", buf.len())?;
        self.inner.write_all(buf)?;
        self.inner.write_all(b"\r\n")?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Decodes a `Transfer-Encoding: chunked` body back into a plain byte
/// stream. Wrap it in a `BufReader` and the JSON-lines reader works
/// unchanged.
pub(crate) struct ChunkReader<R: BufRead> {
    inner: R,
    /// Bytes left in the chunk being consumed.
    remaining: usize,
    /// The zero-length terminator arrived.
    done: bool,
}

impl<R: BufRead> ChunkReader<R> {
    pub fn new(inner: R) -> Self {
        ChunkReader {
            inner,
            remaining: 0,
            done: false,
        }
    }
}

impl<R: BufRead> Read for ChunkReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.done || buf.is_empty() {
            return Ok(0);
        }
        if self.remaining == 0 {
            let size_line = read_crlf_line(&mut self.inner)?;
            let size_hex = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_hex, 16)
                .map_err(|_| io::Error::new(ErrorKind::InvalidData, "bad chunk size"))?;
            if size == 0 {
                // Consume the (empty) trailer section's final CRLF.
                let _ = read_crlf_line(&mut self.inner);
                self.done = true;
                return Ok(0);
            }
            self.remaining = size;
        }
        let want = buf.len().min(self.remaining);
        let got = self.inner.read(&mut buf[..want])?;
        if got == 0 {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "peer hung up mid-chunk",
            ));
        }
        self.remaining -= got;
        if self.remaining == 0 {
            let mut crlf = [0u8; 2];
            self.inner.read_exact(&mut crlf)?;
        }
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn chunk_writer_and_reader_roundtrip_json_lines() {
        let mut wire = Vec::new();
        {
            let mut w = ChunkWriter::new(&mut wire);
            w.write_all(b"{\"a\":1}\n").unwrap();
            w.write_all(b"{\"b\":[2,3]}\n").unwrap();
            w.finish().unwrap();
        }
        let mut r = BufReader::new(ChunkReader::new(BufReader::new(&wire[..])));
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(line, "{\"a\":1}\n");
        line.clear();
        r.read_line(&mut line).unwrap();
        assert_eq!(line, "{\"b\":[2,3]}\n");
        line.clear();
        assert_eq!(
            r.read_line(&mut line).unwrap(),
            0,
            "clean EOF after 0-chunk"
        );
    }

    #[test]
    fn head_parses_line_headers_and_content_length() {
        let raw = b"POST /matic/v2 HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\r\nhello world!";
        let mut r = BufReader::new(&raw[..]);
        let head = read_head(&mut r).unwrap();
        assert_eq!(head.line, "POST /matic/v2 HTTP/1.1");
        assert_eq!(head.header("HOST"), Some("x"));
        let body = read_body(&mut r, head.content_length().unwrap()).unwrap();
        assert_eq!(body, b"hello world!");
    }
}
