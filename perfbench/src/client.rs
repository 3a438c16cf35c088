//! The load generator's HTTP/1.1 client: one keep-alive connection,
//! responses read through a buffer (never a `read(2)` per byte), bodies
//! hashed as they arrive, and the arrival time of the first body chunk
//! recorded for the first-byte latency.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// The bytes of one request, built before any timing starts.
pub fn request(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// FNV-1a, 64-bit: a cheap running hash of response bodies.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The hash [`Reply::body_hash`] holds for a body of exactly `bytes`.
pub fn body_hash(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

/// One response as the client saw it.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    /// The body ended as its framing promised: the terminal zero-size
    /// chunk arrived, or `Content-Length` bytes did.
    pub complete: bool,
    pub body_len: usize,
    pub body_hash: u64,
    /// The body itself, when the caller asked to keep it.
    pub body: Vec<u8>,
    /// When the first body chunk was fully received.
    pub first_body: Option<Instant>,
}

impl Reply {
    pub fn ok(&self) -> bool {
        self.complete && (200..300).contains(&self.status)
    }
}

/// A read buffer over any byte source, stamping the time of each fill.
pub struct Reader<R> {
    inner: R,
    buf: Vec<u8>,
    lo: usize,
    hi: usize,
    filled_at: Instant,
}

impl<R: Read> Reader<R> {
    pub fn new(inner: R) -> Reader<R> {
        Reader {
            inner,
            buf: vec![0; 64 * 1024],
            lo: 0,
            hi: 0,
            filled_at: Instant::now(),
        }
    }

    /// Read more bytes; `Ok(false)` at end of stream.
    fn fill(&mut self) -> io::Result<bool> {
        if self.lo == self.hi {
            self.lo = 0;
            self.hi = 0;
        } else if self.hi == self.buf.len() {
            self.buf.copy_within(self.lo..self.hi, 0);
            self.hi -= self.lo;
            self.lo = 0;
            if self.hi == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        let n = loop {
            match self.inner.read(&mut self.buf[self.hi..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                r => break r?,
            }
        };
        self.hi += n;
        self.filled_at = Instant::now();
        Ok(n > 0)
    }

    /// One CRLF-terminated line without its terminator; `None` when the
    /// stream ends first.
    fn line(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buf[self.lo..self.hi]
                .windows(2)
                .position(|w| w == b"\r\n")
            {
                let line = String::from_utf8_lossy(&self.buf[self.lo..self.lo + pos]).into_owned();
                self.lo += pos + 2;
                return Ok(Some(line));
            }
            if !self.fill()? {
                return Ok(None);
            }
        }
    }

    /// Feed the next `n` bytes to `sink`; `false` when the stream ends
    /// first.
    fn take(&mut self, mut n: usize, mut sink: impl FnMut(&[u8])) -> io::Result<bool> {
        while n > 0 {
            if self.lo == self.hi && !self.fill()? {
                return Ok(false);
            }
            let k = n.min(self.hi - self.lo);
            sink(&self.buf[self.lo..self.lo + k]);
            self.lo += k;
            n -= k;
        }
        Ok(true)
    }

    /// Parse one response. A body cut short — a chunked body without
    /// its terminal chunk, or fewer bytes than `Content-Length` — gives
    /// `complete: false`; the connection is unusable after that.
    pub fn response(&mut self, keep_body: bool) -> io::Result<Reply> {
        let mut reply = Reply {
            status: 0,
            complete: false,
            body_len: 0,
            body_hash: 0,
            body: Vec::new(),
            first_body: None,
        };
        let Some(status_line) = self.line()? else {
            return Ok(reply);
        };
        reply.status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let (mut chunked, mut length) = (false, 0usize);
        loop {
            let Some(h) = self.line()? else {
                return Ok(reply);
            };
            if h.is_empty() {
                break;
            }
            let Some((k, v)) = h.split_once(':') else {
                continue;
            };
            if k.eq_ignore_ascii_case("transfer-encoding") {
                chunked = v.trim().eq_ignore_ascii_case("chunked");
            } else if k.eq_ignore_ascii_case("content-length") {
                length = v.trim().parse().unwrap_or(0);
            }
        }
        let mut hash = Fnv::new();
        let mut body = Vec::new();
        let mut len = 0usize;
        let mut sink = |bytes: &[u8]| {
            hash.update(bytes);
            len += bytes.len();
            if keep_body {
                body.extend_from_slice(bytes);
            }
        };
        if chunked {
            while let Some(size_line) = self.line()? {
                let hex = size_line.split(';').next().unwrap_or("").trim();
                let Ok(size) = usize::from_str_radix(hex, 16) else {
                    break;
                };
                if size == 0 {
                    // Trailer section: header lines up to an empty one.
                    while let Some(t) = self.line()? {
                        if t.is_empty() {
                            reply.complete = true;
                            break;
                        }
                    }
                    break;
                }
                if !self.take(size, &mut sink)? {
                    break;
                }
                reply.first_body.get_or_insert(self.filled_at);
                match self.line()? {
                    Some(l) if l.is_empty() => {}
                    _ => break,
                }
            }
        } else {
            if length > 0 && self.lo == self.hi {
                self.fill()?;
            }
            reply.first_body = Some(self.filled_at);
            reply.complete = self.take(length, &mut sink)?;
        }
        reply.body_len = len;
        reply.body_hash = hash.finish();
        reply.body = body;
        Ok(reply)
    }
}

/// One keep-alive connection to the server.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    reader: Reader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = Reader::new(stream.try_clone()?);
        Ok(Conn {
            addr,
            stream,
            reader,
        })
    }

    /// Send `req` and read its response. A transport failure or a
    /// truncated body reconnects, so the next request starts clean;
    /// the failed request comes back with `complete: false`.
    pub fn roundtrip(&mut self, req: &[u8], keep_body: bool) -> io::Result<Reply> {
        let reply = match self.stream.write_all(req) {
            Ok(()) => self.reader.response(keep_body),
            Err(e) => Err(e),
        };
        match reply {
            Ok(r) if r.complete => Ok(r),
            other => {
                *self = Conn::connect(self.addr)?;
                other.or_else(|_| {
                    Ok(Reply {
                        status: 0,
                        complete: false,
                        body_len: 0,
                        body_hash: 0,
                        body: Vec::new(),
                        first_body: None,
                    })
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Reply {
        Reader::new(bytes)
            .response(true)
            .expect("in-memory reads succeed")
    }

    #[test]
    fn chunked_body_is_reassembled() {
        let r = parse(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\n{\"a\r\n5\r\n\":1}\n\r\n0\r\n\r\n");
        assert!(r.ok());
        assert_eq!(r.body, b"{\"a\":1}\n");
        assert_eq!(r.body_len, 8);
        assert_eq!(r.body_hash, body_hash(b"{\"a\":1}\n"));
        assert!(r.first_body.is_some());
    }

    #[test]
    fn chunk_extensions_and_trailers_are_skipped() {
        let r = parse(b"HTTP/1.1 200 OK\r\ntransfer-encoding: Chunked\r\n\r\n2;x=y\r\nok\r\n0\r\nX-T: 1\r\n\r\n");
        assert!(r.ok());
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn body_without_terminal_chunk_fails() {
        // The server aborts the connection mid-stream on a failed
        // evaluation: a valid-looking prefix must not count as success.
        let r = parse(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n");
        assert!(!r.complete);
        assert!(!r.ok());
        // Cut inside a chunk's data.
        let r = parse(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n9\r\nabc");
        assert!(!r.ok());
        // Cut inside the trailer section.
        let r = parse(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\na\r\n0\r\n");
        assert!(!r.ok());
        // A malformed size line.
        let r =
            parse(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nabc\r\n0\r\n\r\n");
        assert!(!r.ok());
    }

    #[test]
    fn content_length_bodies_and_statuses() {
        let r = parse(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc");
        assert!(r.ok());
        assert_eq!(r.body, b"abc");
        let r = parse(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nabc");
        assert!(!r.ok());
        let r = parse(b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\n{}");
        assert!(r.complete);
        assert_eq!(r.status, 404);
        assert!(!r.ok());
        assert!(!parse(b"").ok());
    }

    #[test]
    fn keep_alive_responses_parse_back_to_back() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\naHTTP/1.1 201 Created\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nb\r\n0\r\n\r\n";
        let mut reader = Reader::new(&two[..]);
        assert_eq!(reader.response(true).unwrap().body, b"a");
        let second = reader.response(true).unwrap();
        assert_eq!((second.status, second.body.as_slice()), (201, &b"b"[..]));
    }

    #[test]
    fn requests_carry_their_length() {
        assert_eq!(
            request("PUT", "/documents/d0", b"<a/>"),
            b"PUT /documents/d0 HTTP/1.1\r\nHost: bench\r\nContent-Length: 4\r\n\r\n<a/>"
        );
    }
}
