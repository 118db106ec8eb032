//! Wire-level parsing and serialization of HTTP/1.1 messages.
//!
//! The codec is deliberately small: it supports `Content-Length` and
//! `Transfer-Encoding: chunked` bodies, enforces configurable head and
//! body size limits, and works over any blocking [`std::io::Read`]/[`Write`]
//! pair. This is the entire protocol surface the Gremlin data plane
//! needs to proxy microservice API calls.

use std::io::{BufRead, Write};

use bytes::Bytes;

use crate::error::HttpError;
use crate::headers::{names, HeaderMap};
use crate::message::{Request, Response, HTTP_VERSION};
use crate::method::Method;
use crate::status::StatusCode;
use crate::Result;

/// Size limits applied while reading messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum size of the request/status line plus headers, in bytes.
    pub max_head_bytes: usize,
    /// Maximum body size, in bytes.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 64 * 1024,
            max_body_bytes: 16 * 1024 * 1024,
        }
    }
}

/// Reads one HTTP request from `reader` using default [`Limits`].
///
/// # Errors
///
/// Returns [`HttpError::ConnectionClosed`] if the stream ends before a
/// full message, or a protocol-specific variant on malformed input.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request> {
    read_request_with_limits(reader, Limits::default())
}

/// Reads one HTTP request from `reader` with explicit limits.
///
/// # Errors
///
/// See [`read_request`]; additionally returns
/// [`HttpError::HeadTooLarge`] / [`HttpError::BodyTooLarge`] when the
/// limits are exceeded.
pub fn read_request_with_limits<R: BufRead>(reader: &mut R, limits: Limits) -> Result<Request> {
    let head = read_head(reader, limits.max_head_bytes)?;
    let mut lines = head.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::InvalidRequestLine(String::new()))?;
    let (method, target, version) = parse_request_line(request_line)?;
    if version != HTTP_VERSION && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion(version.to_string()));
    }
    let mut headers = parse_headers(lines)?;
    let body = read_body(reader, &mut headers, limits, Unframed::NoBody)?;
    Ok(Request::from_parts(
        method,
        target.to_string(),
        headers,
        body,
    ))
}

/// Reads one HTTP response from `reader` using default [`Limits`].
///
/// # Errors
///
/// Returns [`HttpError::ConnectionClosed`] if the stream ends before a
/// full message, or a protocol-specific variant on malformed input.
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<Response> {
    read_response_with_limits(reader, Limits::default())
}

/// Reads one HTTP response from `reader` with explicit limits.
///
/// # Errors
///
/// See [`read_response`]; additionally returns
/// [`HttpError::HeadTooLarge`] / [`HttpError::BodyTooLarge`] when the
/// limits are exceeded.
pub fn read_response_with_limits<R: BufRead>(reader: &mut R, limits: Limits) -> Result<Response> {
    let head = read_head(reader, limits.max_head_bytes)?;
    let (status, reason, mut headers) = parse_response_head(&head)?;
    // HEAD responses have no body by definition either, but our
    // internal servers always frame with Content-Length, so only the
    // generic paths are needed here.
    let bodiless = status == StatusCode::NO_CONTENT
        || status == StatusCode::NOT_MODIFIED
        || status.is_informational();
    let unframed = if bodiless {
        Unframed::NoBody
    } else {
        Unframed::UntilClose
    };
    let body = read_body(reader, &mut headers, limits, unframed)?;
    if bodiless && body.is_empty() {
        headers.insert(names::CONTENT_LENGTH, "0");
    }
    Ok(Response::from_parts(status, reason, headers, body))
}

/// Reads only the status line and headers of a response, leaving the
/// body unread on `reader`.
///
/// This is the entry point for consuming streamed (chunked) responses
/// incrementally: read the head, check `headers().is_chunked()`, then
/// drain the body with a [`ChunkReader`].
///
/// # Errors
///
/// Returns [`HttpError::ConnectionClosed`] if the stream ends before a
/// full head, or a protocol-specific variant on malformed input.
pub fn read_response_head<R: BufRead>(reader: &mut R) -> Result<Response> {
    let head = read_head(reader, Limits::default().max_head_bytes)?;
    let (status, reason, headers) = parse_response_head(&head)?;
    Ok(Response::from_parts(status, reason, headers, Bytes::new()))
}

/// Incrementally reads the chunks of a `Transfer-Encoding: chunked`
/// body, one [`next_chunk`](ChunkReader::next_chunk) call per chunk.
///
/// Unlike the buffered body readers this never waits for the whole
/// body — each chunk is returned as soon as the peer flushes it, which
/// is what a live event tail needs.
#[derive(Debug)]
pub struct ChunkReader<R: BufRead> {
    reader: R,
    done: bool,
}

impl<R: BufRead> ChunkReader<R> {
    /// Wraps `reader`, positioned at the first chunk-size line (i.e.
    /// immediately after [`read_response_head`]).
    pub fn new(reader: R) -> ChunkReader<R> {
        ChunkReader {
            reader,
            done: false,
        }
    }

    /// Reads one chunk; returns `Ok(None)` once the terminal chunk
    /// (and any trailers) have been consumed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and malformed chunk framing. A closed
    /// connection before the terminal chunk surfaces as
    /// [`HttpError::ConnectionClosed`] — for a live tail that is the
    /// normal way the stream ends.
    pub fn next_chunk(&mut self) -> Result<Option<Vec<u8>>> {
        if self.done {
            return Ok(None);
        }
        let line = read_line(&mut self.reader)?;
        let size_text = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_text, 16)
            .map_err(|_| HttpError::InvalidChunkSize(line.clone()))?;
        if size == 0 {
            loop {
                let trailer = read_line(&mut self.reader)?;
                if trailer.is_empty() {
                    break;
                }
            }
            self.done = true;
            return Ok(None);
        }
        let mut chunk = vec![0u8; size];
        self.reader.read_exact(&mut chunk)?;
        let mut crlf = [0u8; 2];
        self.reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(HttpError::InvalidChunkSize(
                "missing chunk crlf".to_string(),
            ));
        }
        Ok(Some(chunk))
    }
}

/// Serializes `request` to `writer` as HTTP/1.1.
///
/// The body is written with an explicit `Content-Length`; any
/// `Transfer-Encoding` header is dropped because the body is already
/// fully buffered. The head goes to `writer` piece by piece and
/// `writer` is flushed at the end, so hand in something that buffers
/// (a `BufWriter`, a `Vec<u8>`) rather than a bare socket.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_request<W: Write>(writer: &mut W, request: &Request) -> Result<()> {
    write_request_for_host(writer, request, None)
}

/// [`write_request`], adding `Host: {default_host}` when one is given
/// and the request names no host of its own.
pub(crate) fn write_request_for_host<W: Write>(
    writer: &mut W,
    request: &Request,
    default_host: Option<&str>,
) -> Result<()> {
    let target = match request.target() {
        "" => "/",
        target => target,
    };
    for part in [request.method().as_str(), " ", target, " ", HTTP_VERSION] {
        writer.write_all(part.as_bytes())?;
    }
    writer.write_all(b"\r\n")?;
    write_headers(writer, request.headers(), request.body().len())?;
    if let Some(host) = default_host.filter(|_| !request.headers().contains(names::HOST)) {
        write_header(writer, names::HOST, host)?;
    }
    writer.write_all(b"\r\n")?;
    writer.write_all(request.body())?;
    writer.flush()?;
    Ok(())
}

/// Serializes `response` to `writer` as HTTP/1.1, framed and written
/// the way [`write_request`] does.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_response<W: Write>(writer: &mut W, response: &Response) -> Result<()> {
    write_status_line(writer, response.status(), response.reason())?;
    write_headers(writer, response.headers(), response.body().len())?;
    writer.write_all(b"\r\n")?;
    writer.write_all(response.body())?;
    writer.flush()?;
    Ok(())
}

pub(crate) fn write_status_line<W: Write>(
    writer: &mut W,
    status: StatusCode,
    reason: &str,
) -> std::io::Result<()> {
    writer.write_all(HTTP_VERSION.as_bytes())?;
    write!(writer, " {} ", status.as_u16())?;
    writer.write_all(reason.as_bytes())?;
    writer.write_all(b"\r\n")
}

pub(crate) fn write_header<W: Write>(
    writer: &mut W,
    name: &str,
    value: &str,
) -> std::io::Result<()> {
    for part in [name, ": ", value, "\r\n"] {
        writer.write_all(part.as_bytes())?;
    }
    Ok(())
}

/// Writes `headers` with exactly one `Content-Length`, stating
/// `body_len`, and without `Transfer-Encoding`.
fn write_headers<W: Write>(
    writer: &mut W,
    headers: &HeaderMap,
    body_len: usize,
) -> std::io::Result<()> {
    let mut wrote_content_length = false;
    for (name, value) in headers.iter() {
        if name.eq_ignore_ascii_case(names::TRANSFER_ENCODING) {
            continue;
        }
        if !name.eq_ignore_ascii_case(names::CONTENT_LENGTH) {
            write_header(writer, name, value)?;
        } else if !wrote_content_length {
            wrote_content_length = true;
            write!(writer, "Content-Length: {body_len}\r\n")?;
        }
    }
    if !wrote_content_length {
        write!(writer, "Content-Length: {body_len}\r\n")?;
    }
    Ok(())
}

/// Where the search for the blank line that ends a head stands after
/// the bytes seen so far. A line ends at LF; a CR before it is optional
/// (bare-LF clients are tolerated).
#[derive(Clone, Copy)]
enum HeadScan {
    /// Inside a line that has content.
    InLine,
    /// Just after an LF: the current line is empty so far.
    AfterLf,
    /// After an LF and a CR: an LF now ends the head.
    AfterLfCr,
}

/// Advances `scan` over `chunk`; returns the offset just past the
/// head's final LF if the head ends inside `chunk`.
fn find_head_end(scan: &mut HeadScan, chunk: &[u8]) -> Option<usize> {
    let mut at = 0;
    while at < chunk.len() {
        match (*scan, chunk[at]) {
            (HeadScan::InLine, _) => {
                at += chunk[at..].iter().position(|&byte| byte == b'\n')?;
                *scan = HeadScan::AfterLf;
            }
            (HeadScan::AfterLf | HeadScan::AfterLfCr, b'\n') => return Some(at + 1),
            (HeadScan::AfterLf, b'\r') => *scan = HeadScan::AfterLfCr,
            _ => *scan = HeadScan::InLine,
        }
        at += 1;
    }
    None
}

/// Reads bytes up to and including the blank line terminating the
/// message head, returning the head without the final blank line.
///
/// The terminator is searched for in the reader's own buffer and each
/// byte is copied once; `scan` carries a terminator that straddles two
/// refills. `limit` counts the terminator.
fn read_head<R: BufRead>(reader: &mut R, limit: usize) -> Result<String> {
    let mut head: Vec<u8> = Vec::new();
    let mut scan = HeadScan::InLine;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Err(HttpError::ConnectionClosed);
        }
        let end = find_head_end(&mut scan, available);
        let taken = end.unwrap_or(available.len());
        if head.len() + taken > limit {
            return Err(HttpError::HeadTooLarge { limit });
        }
        head.extend_from_slice(&available[..taken]);
        reader.consume(taken);
        if end.is_some() {
            break;
        }
    }
    let kept = head
        .iter()
        .rposition(|byte| !matches!(byte, b'\r' | b'\n'))
        .map_or(0, |last| last + 1);
    head.truncate(kept);
    String::from_utf8(head).map_err(|_| HttpError::InvalidHeader("non-utf8 head".to_string()))
}

fn parse_request_line(line: &str) -> Result<(Method, &str, &str)> {
    let invalid = || HttpError::InvalidRequestLine(line.to_string());
    let mut parts = line.split_ascii_whitespace();
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(invalid());
    };
    let method: Method = method.parse().map_err(|_| invalid())?;
    Ok((method, target, version))
}

/// Parses a response head (status line and headers) as [`read_head`]
/// returned it.
fn parse_response_head(head: &str) -> Result<(StatusCode, String, HeaderMap)> {
    let mut lines = head.lines();
    let status_line = lines
        .next()
        .ok_or_else(|| HttpError::InvalidStatusLine(String::new()))?;
    let (status, reason) = parse_status_line(status_line)?;
    Ok((status, reason.to_string(), parse_headers(lines)?))
}

fn parse_status_line(line: &str) -> Result<(StatusCode, &str)> {
    let rest = line
        .strip_prefix("HTTP/1.1 ")
        .or_else(|| line.strip_prefix("HTTP/1.0 "))
        .ok_or_else(|| HttpError::InvalidStatusLine(line.to_string()))?;
    let (code_text, reason) = rest.split_once(' ').unwrap_or((rest, ""));
    let code: u16 = code_text
        .parse()
        .map_err(|_| HttpError::InvalidStatusLine(line.to_string()))?;
    Ok((StatusCode::new(code)?, reason))
}

fn parse_headers<'a, I: Iterator<Item = &'a str>>(lines: I) -> Result<HeaderMap> {
    let mut headers = HeaderMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::InvalidHeader(line.to_string()))?;
        let name = name.trim();
        if name.is_empty() || !name.bytes().all(crate::method::is_token_byte) {
            return Err(HttpError::InvalidHeader(line.to_string()));
        }
        headers.append(name, value.trim());
    }
    Ok(headers)
}

/// What a message carries when it declares neither a length nor
/// chunked framing.
#[derive(Clone, Copy)]
enum Unframed {
    /// Nothing: requests, and responses whose status allows no body.
    NoBody,
    /// RFC 7230 §3.3.3's fallback for responses: the body runs until
    /// the peer closes the connection.
    UntilClose,
}

/// Reads the body `headers` frame and leaves them stating its length:
/// a parsed message's `Content-Length` equals `body.len()` whichever
/// way the body arrived. A single `Content-Length` stays as received;
/// chunked, duplicated-length and read-until-close bodies get one
/// written.
fn read_body<R: BufRead>(
    reader: &mut R,
    headers: &mut HeaderMap,
    limits: Limits,
    unframed: Unframed,
) -> Result<Bytes> {
    let limit = limits.max_body_bytes;
    let body = if headers.is_chunked() {
        read_chunked_body(reader, limit)?
    } else {
        let mut declared = headers.get_all(names::CONTENT_LENGTH);
        match (declared.next(), declared.next(), unframed) {
            (Some(value), duplicate, _) => {
                let len: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::InvalidContentLength(value.to_string()))?;
                if len > limit {
                    return Err(HttpError::BodyTooLarge { limit });
                }
                let mut body = vec![0u8; len];
                reader.read_exact(&mut body)?;
                if duplicate.is_none() {
                    return Ok(Bytes::from(body));
                }
                body
            }
            (None, _, Unframed::NoBody) => return Ok(Bytes::new()),
            (None, _, Unframed::UntilClose) => read_until_close(reader, limit)?,
        }
    };
    headers.insert(names::CONTENT_LENGTH, body.len().to_string());
    Ok(Bytes::from(body))
}

fn read_until_close<R: BufRead>(reader: &mut R, limit: usize) -> Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        let len = available.len();
        if len == 0 {
            return Ok(body);
        }
        if body.len() + len > limit {
            return Err(HttpError::BodyTooLarge { limit });
        }
        body.extend_from_slice(available);
        reader.consume(len);
    }
}

fn read_chunked_body<R: BufRead>(reader: &mut R, limit: usize) -> Result<Vec<u8>> {
    let mut body: Vec<u8> = Vec::new();
    loop {
        let line = read_line(reader)?;
        let size_text = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_text, 16)
            .map_err(|_| HttpError::InvalidChunkSize(line.clone()))?;
        if size == 0 {
            // Consume trailer lines until the final blank line.
            loop {
                let trailer = read_line(reader)?;
                if trailer.is_empty() {
                    break;
                }
            }
            return Ok(body);
        }
        if body.len() + size > limit {
            return Err(HttpError::BodyTooLarge { limit });
        }
        let mut chunk = vec![0u8; size];
        reader.read_exact(&mut chunk)?;
        body.extend_from_slice(&chunk);
        // Chunk data is followed by CRLF.
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(HttpError::InvalidChunkSize(
                "missing chunk crlf".to_string(),
            ));
        }
    }
}

fn read_line<R: BufRead>(reader: &mut R) -> Result<String> {
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        return Err(HttpError::ConnectionClosed);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse_req(raw: &[u8]) -> Result<Request> {
        read_request(&mut BufReader::new(raw))
    }

    fn parse_resp(raw: &[u8]) -> Result<Response> {
        read_response(&mut BufReader::new(raw))
    }

    #[test]
    fn parse_simple_get() {
        let req = parse_req(b"GET /a/b?c=d HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(*req.method(), Method::Get);
        assert_eq!(req.target(), "/a/b?c=d");
        assert_eq!(req.headers().get("host"), Some("x"));
        assert!(req.body().is_empty());
    }

    #[test]
    fn parse_post_with_body() {
        let req = parse_req(b"POST /p HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(&req.body()[..], b"hello");
    }

    #[test]
    fn parse_bare_lf_head() {
        let req = parse_req(b"GET / HTTP/1.1\nHost: y\n\n").unwrap();
        assert_eq!(req.headers().get("host"), Some("y"));
    }

    #[test]
    fn parse_mixed_line_ends() {
        for raw in [
            &b"GET / HTTP/1.1\nHost: y\n\r\nrest"[..],
            b"GET / HTTP/1.1\r\nHost: y\r\n\nrest",
        ] {
            let mut reader = BufReader::new(raw);
            let req = read_request(&mut reader).unwrap();
            assert_eq!(req.headers().get("host"), Some("y"));
            assert_eq!(reader.buffer(), b"rest");
        }
    }

    #[test]
    fn parse_head_split_inside_its_terminator() {
        use std::io::Read;
        let raw = b"GET / HTTP/1.1\r\nHost: y\r\n\r\nrest";
        for cut in raw.len() - 9..raw.len() - 4 {
            // `chain` refills at the cut, so the terminator arrives in
            // two pieces.
            let mut reader = BufReader::new(raw[..cut].chain(&raw[cut..]));
            let req = read_request(&mut reader).unwrap();
            assert_eq!(req.headers().get("host"), Some("y"), "cut at {cut}");
            let mut rest = String::new();
            reader.read_to_string(&mut rest).unwrap();
            assert_eq!(rest, "rest", "cut at {cut}");
        }
    }

    #[test]
    fn parse_http10_accepted() {
        let req = parse_req(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(req.path(), "/");
    }

    #[test]
    fn parse_rejects_bad_version() {
        assert!(matches!(
            parse_req(b"GET / HTTP/2\r\n\r\n"),
            Err(HttpError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn parse_rejects_garbage_request_line() {
        assert!(parse_req(b"GARBAGE\r\n\r\n").is_err());
        assert!(parse_req(b"GET /\r\n\r\n").is_err());
        assert!(parse_req(b"GET / HTTP/1.1 extra\r\n\r\n").is_err());
    }

    #[test]
    fn parse_rejects_bad_header() {
        assert!(matches!(
            parse_req(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::InvalidHeader(_))
        ));
    }

    #[test]
    fn parse_rejects_bad_content_length() {
        assert!(matches!(
            parse_req(b"GET / HTTP/1.1\r\nContent-Length: zz\r\n\r\n"),
            Err(HttpError::InvalidContentLength(_))
        ));
    }

    #[test]
    fn parse_enforces_head_limit() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(100));
        let err = read_request_with_limits(
            &mut BufReader::new(raw.as_bytes()),
            Limits {
                max_head_bytes: 50,
                max_body_bytes: 100,
            },
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::HeadTooLarge { limit: 50 }));
    }

    #[test]
    fn parse_enforces_body_limit() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n";
        let err = read_request_with_limits(
            &mut BufReader::new(&raw[..]),
            Limits {
                max_head_bytes: 1024,
                max_body_bytes: 10,
            },
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { limit: 10 }));
    }

    #[test]
    fn parse_keeps_a_single_content_length_as_received() {
        let req =
            parse_req(b"POST /p HTTP/1.1\r\nX-A: 1\r\ncontent-length: 005\r\n\r\nhello").unwrap();
        assert_eq!(&req.body()[..], b"hello");
        let headers: Vec<_> = req.headers().iter().collect();
        assert_eq!(headers, vec![("X-A", "1"), ("content-length", "005")]);
    }

    #[test]
    fn parse_collapses_duplicate_content_lengths() {
        // The first one frames the body, as it always did.
        let req =
            parse_req(b"POST /p HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 9\r\n\r\nhello")
                .unwrap();
        assert_eq!(&req.body()[..], b"hello");
        assert_eq!(
            req.headers().get_all("content-length").collect::<Vec<_>>(),
            vec!["5"]
        );
    }

    #[test]
    fn parse_request_without_length_has_no_body_and_no_header() {
        let req = parse_req(b"GET / HTTP/1.1\r\nHost: x\r\n\r\nnot a body").unwrap();
        assert!(req.body().is_empty());
        assert!(!req.headers().contains("content-length"));
    }

    #[test]
    fn parse_truncated_body_is_connection_closed() {
        let err = parse_req(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nab").unwrap_err();
        assert!(matches!(err, HttpError::ConnectionClosed));
    }

    #[test]
    fn parse_empty_stream_is_connection_closed() {
        assert!(matches!(parse_req(b""), Err(HttpError::ConnectionClosed)));
    }

    #[test]
    fn parse_response_basic() {
        let resp = parse_resp(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 3\r\n\r\nerr")
            .unwrap();
        assert_eq!(resp.status(), StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(resp.reason(), "Service Unavailable");
        assert_eq!(resp.body_str(), "err");
    }

    #[test]
    fn parse_response_without_reason() {
        let resp = parse_resp(b"HTTP/1.1 200\r\n\r\n").unwrap();
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.reason(), "");
    }

    #[test]
    fn parse_response_without_length_reads_until_close() {
        let resp = parse_resp(b"HTTP/1.1 200 OK\r\n\r\nhello until close").unwrap();
        assert_eq!(resp.body_str(), "hello until close");
        // Re-framed with an explicit length afterwards.
        assert_eq!(resp.headers().get_int("content-length"), Some(17));
    }

    #[test]
    fn parse_bodiless_statuses_without_length() {
        let resp = parse_resp(b"HTTP/1.1 204 No Content\r\n\r\n").unwrap();
        assert_eq!(resp.status(), StatusCode::NO_CONTENT);
        assert!(resp.body().is_empty());
        assert_eq!(resp.headers().get_int("content-length"), Some(0));
        let resp = parse_resp(b"HTTP/1.1 304 Not Modified\r\n\r\n").unwrap();
        assert!(resp.body().is_empty());
    }

    #[test]
    fn read_until_close_respects_body_limit() {
        let mut raw = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
        raw.extend_from_slice(&[b'x'; 64]);
        let err = read_response_with_limits(
            &mut BufReader::new(&raw[..]),
            Limits {
                max_head_bytes: 1024,
                max_body_bytes: 16,
            },
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { limit: 16 }));
    }

    #[test]
    fn parse_chunked_body() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";
        let resp = parse_resp(raw).unwrap();
        assert_eq!(resp.body_str(), "hello world");
        // After reading, the body is re-framed with Content-Length.
        assert_eq!(resp.headers().get_int("content-length"), Some(11));
    }

    #[test]
    fn parse_chunked_with_extension_and_trailer() {
        let raw =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3;ext=1\r\nabc\r\n0\r\nX-T: 1\r\n\r\n";
        let resp = parse_resp(raw).unwrap();
        assert_eq!(resp.body_str(), "abc");
    }

    #[test]
    fn parse_chunked_bad_size() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n";
        assert!(matches!(
            parse_resp(raw),
            Err(HttpError::InvalidChunkSize(_))
        ));
    }

    #[test]
    fn parse_chunked_body_limit() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nff\r\n";
        let err = read_response_with_limits(
            &mut BufReader::new(&raw[..]),
            Limits {
                max_head_bytes: 1024,
                max_body_bytes: 16,
            },
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { limit: 16 }));
    }

    #[test]
    fn write_then_read_request_round_trip() {
        let req = Request::builder(Method::Post, "/round?trip=1")
            .header("Host", "svc")
            .header("X-Custom", "v")
            .body("payload")
            .request_id("test-1")
            .build();
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let parsed = parse_req(&buf).unwrap();
        assert_eq!(parsed.method(), req.method());
        assert_eq!(parsed.target(), req.target());
        assert_eq!(parsed.body(), req.body());
        assert_eq!(parsed.request_id(), Some("test-1"));
        assert_eq!(parsed.headers().get("x-custom"), Some("v"));
    }

    #[test]
    fn write_then_read_response_round_trip() {
        let resp = Response::builder(StatusCode::CREATED)
            .header("X-Y", "z")
            .body("made")
            .build();
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let parsed = parse_resp(&buf).unwrap();
        assert_eq!(parsed.status(), resp.status());
        assert_eq!(parsed.body(), resp.body());
        assert_eq!(parsed.headers().get("x-y"), Some("z"));
    }

    #[test]
    fn write_empty_target_becomes_slash() {
        let req = Request::builder(Method::Get, "").build();
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        assert!(buf.starts_with(b"GET / HTTP/1.1\r\n"));
    }

    #[test]
    fn write_adds_the_default_host_only_when_none_is_named() {
        let mut buf = Vec::new();
        write_request_for_host(&mut buf, &Request::get("/"), Some("svc:80")).unwrap();
        assert_eq!(
            parse_req(&buf).unwrap().headers().get("host"),
            Some("svc:80")
        );

        let named = Request::builder(Method::Get, "/")
            .header("host", "own")
            .build();
        buf.clear();
        write_request_for_host(&mut buf, &named, Some("svc:80")).unwrap();
        let hosts = parse_req(&buf).unwrap();
        assert_eq!(
            hosts.headers().get_all("host").collect::<Vec<_>>(),
            vec!["own"]
        );
    }

    #[test]
    fn write_drops_transfer_encoding_and_fixes_length() {
        let mut resp = Response::builder(StatusCode::OK)
            .header("Transfer-Encoding", "chunked")
            .header("Content-Length", "999")
            .build();
        resp.set_body("four");
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.to_lowercase().contains("transfer-encoding"));
        assert!(text.contains("Content-Length: 4\r\n"));
    }

    #[test]
    fn read_head_then_chunks_incrementally() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nX-S: 1\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";
        let mut reader = BufReader::new(&raw[..]);
        let head = read_response_head(&mut reader).unwrap();
        assert_eq!(head.status(), StatusCode::OK);
        assert!(head.headers().is_chunked());
        assert_eq!(head.headers().get("x-s"), Some("1"));
        assert!(head.body().is_empty());
        let mut chunks = ChunkReader::new(reader);
        assert_eq!(chunks.next_chunk().unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(
            chunks.next_chunk().unwrap().as_deref(),
            Some(&b" world"[..])
        );
        assert_eq!(chunks.next_chunk().unwrap(), None);
        // Idempotent after the terminal chunk.
        assert_eq!(chunks.next_chunk().unwrap(), None);
    }

    #[test]
    fn chunk_reader_surfaces_truncation_as_closed() {
        let raw = b"5\r\nhel";
        let mut chunks = ChunkReader::new(BufReader::new(&raw[..]));
        assert!(matches!(
            chunks.next_chunk(),
            Err(HttpError::ConnectionClosed) | Err(HttpError::Io(_))
        ));
    }

    #[test]
    fn two_pipelined_requests_parse_sequentially() {
        let raw = b"GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(&raw[..]);
        let r1 = read_request(&mut reader).unwrap();
        let r2 = read_request(&mut reader).unwrap();
        assert_eq!(r1.path(), "/1");
        assert_eq!(r2.path(), "/2");
    }
}
