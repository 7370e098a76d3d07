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
/// No more than [`MAX_HEAD_BYTES`] are read, line endings included.
pub(crate) fn read_head(r: &mut impl BufRead) -> io::Result<HttpHead> {
    let mut budget = MAX_HEAD_BYTES;
    let line = read_crlf_line(r, &mut budget)?;
    if line.is_empty() {
        return Err(io::Error::new(ErrorKind::UnexpectedEof, "empty HTTP head"));
    }
    let mut headers = Vec::new();
    loop {
        let header = read_crlf_line(r, &mut budget)?;
        if header.is_empty() {
            return Ok(HttpHead { line, headers });
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

/// Reads one line of at most `budget` bytes, line ending included, and
/// takes its length off `budget`; a longer line is an error.
fn read_crlf_line(r: &mut impl BufRead, budget: &mut usize) -> io::Result<String> {
    let mut line = String::new();
    let read = r.take(*budget as u64 + 1).read_line(&mut line)?;
    if read == 0 {
        return Err(io::Error::new(
            ErrorKind::UnexpectedEof,
            "peer hung up mid-head",
        ));
    }
    *budget = budget
        .checked_sub(read)
        .ok_or_else(|| io::Error::new(ErrorKind::InvalidData, "oversized HTTP head"))?;
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
            let mut budget = MAX_HEAD_BYTES;
            let size_line = read_crlf_line(&mut self.inner, &mut budget)?;
            let size_hex = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_hex, 16)
                .map_err(|_| io::Error::new(ErrorKind::InvalidData, "bad chunk size"))?;
            if size == 0 {
                // Consume the (empty) trailer section's final CRLF.
                let _ = read_crlf_line(&mut self.inner, &mut budget);
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

/// Adversarial inputs for the request reader: whatever arrives, parsing
/// a head and its body returns `Ok` or `Err` and never panics.
#[cfg(test)]
mod fuzz {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::io::BufReader;

    /// A well-formed request carrying `body`.
    fn request(body: &[u8]) -> Vec<u8> {
        let mut raw = format!(
            "POST {PROTOCOL_PATH} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(body);
        raw
    }

    /// Reads one request off `bytes` as the daemon does: head, then the
    /// body its `Content-Length` declares.
    fn parse(bytes: &[u8]) -> io::Result<(HttpHead, Vec<u8>)> {
        let mut r = BufReader::new(bytes);
        let head = read_head(&mut r)?;
        let body = read_body(&mut r, head.content_length()?)?;
        Ok((head, body))
    }

    /// Bytes drawn mostly from the characters a head is made of.
    fn head_shaped() -> impl Strategy<Value = Vec<u8>> {
        const ALPHABET: &[u8] = b"\r\n: \tPOST/matic2HTTP1.Content-Length0123456789x\xff";
        vec(0..ALPHABET.len(), 0..256).prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic(bytes in vec(0u8..=255, 0..512)) {
            let _ = parse(&bytes);
        }

        #[test]
        fn head_shaped_bytes_never_panic(bytes in head_shaped()) {
            let _ = parse(&bytes);
        }

        /// Every proper prefix of a request with a body is an error; the
        /// whole request parses back to its body.
        #[test]
        fn a_truncated_request_is_an_error(body in vec(0u8..=255, 1..64), cut in 0.0f64..1.0) {
            let full = request(&body);
            let cut = (cut * full.len() as f64) as usize;
            prop_assert!(parse(&full[..cut]).is_err(), "prefix of {cut} bytes parsed");
            let (head, got) = parse(&full).expect("a whole request parses");
            prop_assert_eq!(head.line, format!("POST {PROTOCOL_PATH} HTTP/1.1"));
            prop_assert_eq!(got, body);
        }

        /// A head past the cap is refused, whether one long line or many
        /// headers carry it, and no more than the cap is read.
        #[test]
        fn an_over_cap_head_is_refused(pad in 1usize..(2 * MAX_HEAD_BYTES), lines in 1usize..4) {
            let mut raw = format!("POST {PROTOCOL_PATH} HTTP/1.1\r\n").into_bytes();
            let header = format!("X-Pad: {}\r\n", "a".repeat(pad));
            while raw.len() <= MAX_HEAD_BYTES {
                for _ in 0..lines {
                    raw.extend_from_slice(header.as_bytes());
                }
            }
            raw.extend_from_slice(b"Content-Length: 0\r\n\r\n");
            let mut rest = &raw[..];
            let err = read_head(&mut rest).err().expect("an over-cap head must be refused");
            prop_assert_eq!(err.kind(), ErrorKind::InvalidData);
            prop_assert!(raw.len() - rest.len() <= MAX_HEAD_BYTES + 1, "read past the cap");
        }

        /// A declared body past the cap is refused before anything is read.
        #[test]
        fn an_over_cap_body_is_refused(len in (MAX_BODY_BYTES + 1)..=usize::MAX) {
            let err = read_body(&mut BufReader::new(&b"{}"[..]), len).unwrap_err();
            prop_assert_eq!(err.kind(), ErrorKind::InvalidData);
        }
    }
}
