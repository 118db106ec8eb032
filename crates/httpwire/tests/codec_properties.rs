//! Property-based tests for the HTTP codec: any message built from
//! valid components survives serialize → parse intact, however the
//! bytes are cut up on the way in; plus the server's keep-alive loop
//! driven over one connection.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;

use proptest::prelude::*;

use gremlin_http::codec::{
    read_request, read_request_with_limits, read_response, write_request, write_response, Limits,
};
use gremlin_http::{ConnInfo, HttpError, HttpServer, Method, Request, Response, StatusCode};

/// HTTP token characters (for methods and header names).
fn token() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z][A-Za-z0-9-]{0,15}").expect("valid regex")
}

/// A target path without whitespace or control characters.
fn target() -> impl Strategy<Value = String> {
    proptest::string::string_regex("/[a-zA-Z0-9/_.~%-]{0,40}(\\?[a-zA-Z0-9=&_-]{0,20})?")
        .expect("valid regex")
}

/// Header values: printable ASCII without CR/LF, trimmed (the codec
/// trims optional whitespace around values, per RFC 7230).
fn header_value() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[!-~]([ -~]{0,30}[!-~])?").expect("valid regex")
}

fn headers() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec((token(), header_value()), 0..8).prop_map(|pairs| {
        // Names that collide with framing headers would be rewritten
        // by the codec; exclude them from the round-trip comparison.
        pairs
            .into_iter()
            .filter(|(name, _)| {
                !name.eq_ignore_ascii_case("content-length")
                    && !name.eq_ignore_ascii_case("transfer-encoding")
            })
            .collect()
    })
}

fn body() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..512)
}

fn method() -> impl Strategy<Value = Method> {
    prop_oneof![
        Just(Method::Get),
        Just(Method::Head),
        Just(Method::Post),
        Just(Method::Put),
        Just(Method::Delete),
        Just(Method::Options),
        Just(Method::Patch),
        token().prop_map(Method::Extension),
    ]
}

/// Sizes of the successive reads a [`Fragments`] reader serves,
/// cycled: down to one byte, so that a head's terminator straddles
/// refills of the `BufReader` around it.
fn fragment_sizes() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..24, 1..12)
}

/// Serves `wire` in reads of `sizes[0]`, `sizes[1]`, … bytes.
struct Fragments<'a> {
    wire: &'a [u8],
    sizes: &'a [usize],
    reads: usize,
}

impl Read for Fragments<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.reads % self.sizes.len()]
            .min(buf.len())
            .min(self.wire.len());
        self.reads += 1;
        let (served, rest) = self.wire.split_at(size);
        buf[..size].copy_from_slice(served);
        self.wire = rest;
        Ok(size)
    }
}

/// A reader whose every `fill_buf` yields one fragment of `wire`.
fn fragmented<'a>(wire: &'a [u8], sizes: &'a [usize]) -> BufReader<Fragments<'a>> {
    BufReader::new(Fragments {
        wire,
        sizes,
        reads: 0,
    })
}

/// `wire` with the line ends of its head (not of its body) turned into
/// bare LFs.
fn with_bare_lf_head(wire: &[u8]) -> Vec<u8> {
    let head_len = wire
        .windows(4)
        .position(|window| window == b"\r\n\r\n")
        .expect("a CRLF head")
        + 4;
    let head = String::from_utf8(wire[..head_len].to_vec())
        .expect("an ASCII head")
        .replace("\r\n", "\n");
    [head.as_bytes(), &wire[head_len..]].concat()
}

/// How a generated body is framed on the wire.
#[derive(Debug, Clone)]
enum Framing {
    ContentLength,
    /// Chunk sizes, cycled until the body is used up.
    Chunked(Vec<usize>),
    /// Responses only: no framing header, the body ends with the stream.
    UntilClose,
}

fn framing() -> impl Strategy<Value = Framing> {
    prop_oneof![
        Just(Framing::ContentLength),
        proptest::collection::vec(1usize..64, 1..6).prop_map(Framing::Chunked),
        Just(Framing::UntilClose),
    ]
}

/// `head` (without its blank line), then `body` framed as asked.
fn framed(head: &str, body: &[u8], framing: &Framing) -> Vec<u8> {
    let mut wire = head.as_bytes().to_vec();
    match framing {
        Framing::ContentLength => {
            wire.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
            wire.extend_from_slice(body);
        }
        Framing::Chunked(sizes) => {
            wire.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
            let mut rest = body;
            for size in sizes.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at((*size).min(rest.len()));
                wire.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
                wire.extend_from_slice(chunk);
                wire.extend_from_slice(b"\r\n");
                rest = tail;
            }
            wire.extend_from_slice(b"0\r\n\r\n");
        }
        Framing::UntilClose => {
            wire.extend_from_slice(b"\r\n");
            wire.extend_from_slice(body);
        }
    }
    wire
}

proptest! {
    /// Two requests on one stream parse to the same messages whether
    /// the stream arrives whole or in arbitrary fragments, with CRLF
    /// or bare-LF heads.
    #[test]
    fn fragmented_requests_parse_as_whole(
        method in method(),
        target in target(),
        headers in headers(),
        body in body(),
        sizes in fragment_sizes(),
    ) {
        let mut builder = Request::builder(method, target);
        for (name, value) in &headers {
            builder = builder.header(name.clone(), value.clone());
        }
        let first = builder.body(body).build();
        let second = Request::get("/next");
        let mut crlf = Vec::new();
        write_request(&mut crlf, &first).unwrap();
        let mut bare_lf = with_bare_lf_head(&crlf);
        write_request(&mut crlf, &second).unwrap();
        write_request(&mut bare_lf, &second).unwrap();

        let whole = read_request(&mut &crlf[..]).unwrap();
        prop_assert_eq!(whole.method(), first.method());
        prop_assert_eq!(whole.target(), first.target());
        prop_assert_eq!(whole.body(), first.body());
        for wire in [&crlf, &bare_lf] {
            prop_assert_eq!(&read_request(&mut &wire[..]).unwrap(), &whole);
            let mut reader = fragmented(wire, &sizes);
            prop_assert_eq!(&read_request(&mut reader).unwrap(), &whole);
            // Nothing of the next message was swallowed.
            let next = read_request(&mut reader).unwrap();
            prop_assert_eq!(next.target(), "/next");
            prop_assert!(reader.fill_buf().unwrap().is_empty());
        }
    }

    /// The same for responses.
    #[test]
    fn fragmented_responses_parse_as_whole(
        code in 200u16..600,
        headers in headers(),
        body in body(),
        sizes in fragment_sizes(),
    ) {
        let mut builder = Response::builder(StatusCode::new(code).unwrap());
        for (name, value) in &headers {
            builder = builder.header(name.clone(), value.clone());
        }
        let first = builder.body(body).build();
        let second = Response::ok("next");
        let mut crlf = Vec::new();
        write_response(&mut crlf, &first).unwrap();
        let mut bare_lf = with_bare_lf_head(&crlf);
        write_response(&mut crlf, &second).unwrap();
        write_response(&mut bare_lf, &second).unwrap();

        let whole = read_response(&mut &crlf[..]).unwrap();
        prop_assert_eq!(whole.status(), first.status());
        prop_assert_eq!(whole.body(), first.body());
        for wire in [&crlf, &bare_lf] {
            prop_assert_eq!(&read_response(&mut &wire[..]).unwrap(), &whole);
            let mut reader = fragmented(wire, &sizes);
            prop_assert_eq!(&read_response(&mut reader).unwrap(), &whole);
            let next = read_response(&mut reader).unwrap();
            prop_assert_eq!(next.body_str(), "next");
            prop_assert!(reader.fill_buf().unwrap().is_empty());
        }
    }

    /// A head of exactly `max_head_bytes` (blank line included) is
    /// accepted and one byte more is refused, whole or fragmented, and
    /// bytes after the head do not count.
    #[test]
    fn head_limit_is_exact(
        padding in 0usize..200,
        bare_lf in any::<bool>(),
        sizes in fragment_sizes(),
    ) {
        let eol = if bare_lf { "\n" } else { "\r\n" };
        let head = format!("GET /{} HTTP/1.1{eol}X-A: b{eol}{eol}", "x".repeat(padding));
        let wire = format!("{head}GET /next HTTP/1.1{eol}{eol}");
        let fits = Limits { max_head_bytes: head.len(), max_body_bytes: 16 };
        let one_short = Limits { max_head_bytes: head.len() - 1, ..fits };

        let parsed = read_request_with_limits(&mut wire.as_bytes(), fits).unwrap();
        prop_assert_eq!(parsed.headers().get("x-a"), Some("b"));
        let parsed =
            read_request_with_limits(&mut fragmented(wire.as_bytes(), &sizes), fits).unwrap();
        prop_assert_eq!(parsed.headers().get("x-a"), Some("b"));
        for refused in [
            read_request_with_limits(&mut wire.as_bytes(), one_short),
            read_request_with_limits(&mut fragmented(wire.as_bytes(), &sizes), one_short),
        ] {
            prop_assert!(
                matches!(refused, Err(HttpError::HeadTooLarge { limit }) if limit == head.len() - 1),
                "got {:?}", refused
            );
        }
    }

    /// However the body was framed on the wire, the parsed message
    /// carries exactly one `Content-Length` and it states the body's
    /// length.
    #[test]
    fn parsed_content_length_states_the_body_length(
        body in body(),
        framing in framing(),
        sizes in fragment_sizes(),
    ) {
        let wire = framed("HTTP/1.1 200 OK\r\nX-A: b\r\n", &body, &framing);
        for response in [
            read_response(&mut &wire[..]).unwrap(),
            read_response(&mut fragmented(&wire, &sizes)).unwrap(),
        ] {
            prop_assert_eq!(&response.body()[..], &body[..]);
            prop_assert_eq!(response.headers().get_all("content-length").count(), 1);
            prop_assert_eq!(response.headers().get_int("content-length"), Some(body.len() as u64));
        }
        // A request has no read-until-close framing: without a length
        // it has no body.
        if !matches!(framing, Framing::UntilClose) {
            let wire = framed("POST /p HTTP/1.1\r\nX-A: b\r\n", &body, &framing);
            let request = read_request(&mut fragmented(&wire, &sizes)).unwrap();
            prop_assert_eq!(&request.body()[..], &body[..]);
            prop_assert_eq!(request.headers().get_all("content-length").count(), 1);
            prop_assert_eq!(request.headers().get_int("content-length"), Some(body.len() as u64));
        }
    }

    /// Requests round-trip bit-exactly (method, target, headers,
    /// body).
    #[test]
    fn request_round_trip(
        method in method(),
        target in target(),
        headers in headers(),
        body in body(),
    ) {
        let mut builder = Request::builder(method.clone(), target.clone());
        for (name, value) in &headers {
            builder = builder.header(name.clone(), value.clone());
        }
        let request = builder.body(body.clone()).build();

        let mut wire = Vec::new();
        write_request(&mut wire, &request).unwrap();
        let parsed = read_request(&mut BufReader::new(&wire[..])).unwrap();

        prop_assert_eq!(parsed.method(), &method);
        prop_assert_eq!(parsed.target(), target.as_str());
        prop_assert_eq!(&parsed.body()[..], &body[..]);
        for (name, value) in &headers {
            prop_assert!(
                parsed.headers().get_all(name).any(|v| v == value),
                "header {} lost", name
            );
        }
    }

    /// Responses round-trip bit-exactly (status, reason, headers,
    /// body).
    #[test]
    fn response_round_trip(
        code in 100u16..600,
        headers in headers(),
        body in body(),
    ) {
        let status = StatusCode::new(code).unwrap();
        let mut builder = Response::builder(status);
        for (name, value) in &headers {
            builder = builder.header(name.clone(), value.clone());
        }
        let response = builder.body(body.clone()).build();

        let mut wire = Vec::new();
        write_response(&mut wire, &response).unwrap();
        let parsed = read_response(&mut BufReader::new(&wire[..])).unwrap();

        prop_assert_eq!(parsed.status(), status);
        prop_assert_eq!(parsed.reason(), response.reason());
        prop_assert_eq!(&parsed.body()[..], &body[..]);
    }

    /// Two serialized messages on one stream parse back in order
    /// (keep-alive framing never bleeds).
    #[test]
    fn pipelined_framing(
        target_a in target(),
        target_b in target(),
        body_a in body(),
        body_b in body(),
    ) {
        let first = Request::builder(Method::Post, target_a.clone()).body(body_a.clone()).build();
        let second = Request::builder(Method::Post, target_b.clone()).body(body_b.clone()).build();
        let mut wire = Vec::new();
        write_request(&mut wire, &first).unwrap();
        write_request(&mut wire, &second).unwrap();

        let mut reader = BufReader::new(&wire[..]);
        let parsed_first = read_request(&mut reader).unwrap();
        let parsed_second = read_request(&mut reader).unwrap();
        prop_assert_eq!(parsed_first.target(), target_a.as_str());
        prop_assert_eq!(&parsed_first.body()[..], &body_a[..]);
        prop_assert_eq!(parsed_second.target(), target_b.as_str());
        prop_assert_eq!(&parsed_second.body()[..], &body_b[..]);
    }

    /// Arbitrary junk never panics the parser: it returns Ok or Err,
    /// but does not crash or loop.
    #[test]
    fn parser_is_total(junk in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_request(&mut BufReader::new(&junk[..]));
        let _ = read_response(&mut BufReader::new(&junk[..]));
    }
}

/// The server's keep-alive loop: well over a thousand sequential
/// requests on one connection — full replies, HEADs, then a malformed
/// request — are each answered correctly through the connection's one
/// writer, and the 400 closes the connection.
#[test]
fn keep_alive_loop_answers_every_request_on_one_connection() {
    const REQUESTS: usize = 1_200;
    let server = HttpServer::bind("127.0.0.1:0", |request: Request, _: &ConnInfo| {
        Response::ok(format!("echo:{}", request.target()))
    })
    .unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    for n in 0..REQUESTS {
        let (method, expected) = if n % 3 == 2 {
            (Method::Head, String::new())
        } else {
            (Method::Get, format!("echo:/{n}"))
        };
        let request = Request::builder(method, format!("/{n}")).build();
        write_request(&mut writer, &request).unwrap();
        let response = read_response(&mut reader).unwrap();
        assert_eq!(response.status(), StatusCode::OK, "request {n}");
        assert_eq!(response.body_str(), expected, "request {n}");
        assert_eq!(
            response.headers().get_int("content-length"),
            Some(expected.len() as u64),
            "request {n}"
        );
    }
    writer.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
    writer.flush().unwrap();
    let refusal = read_response(&mut reader).unwrap();
    assert_eq!(refusal.status(), StatusCode::BAD_REQUEST);
    assert!(matches!(
        read_response(&mut reader),
        Err(HttpError::ConnectionClosed)
    ));
    assert_eq!(server.requests_served(), REQUESTS);
}
