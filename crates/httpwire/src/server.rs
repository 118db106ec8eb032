//! A multi-threaded blocking HTTP/1.1 server.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::codec::{
    read_request_with_limits, write_header, write_response, write_status_line, Limits,
};
use crate::error::HttpError;
use crate::message::{Request, Response};
use crate::pool::ThreadPool;
use crate::status::StatusCode;
use crate::track::ConnTracker;
use crate::Result;

/// Information about the connection a request arrived on.
#[derive(Debug, Clone)]
pub struct ConnInfo {
    /// Address of the remote peer.
    pub peer_addr: SocketAddr,
    /// Address the server accepted the connection on.
    pub local_addr: SocketAddr,
}

/// What a [`Handler`] produces for one request: either a complete,
/// buffered [`Response`] (the common case) or a [`StreamingBody`]
/// written incrementally as chunks.
pub enum Reply {
    /// A fully-buffered response, framed with `Content-Length`.
    Full(Response),
    /// A chunked stream; the connection closes when it ends.
    Stream(StreamingBody),
}

impl From<Response> for Reply {
    fn from(response: Response) -> Reply {
        Reply::Full(response)
    }
}

impl From<StreamingBody> for Reply {
    fn from(body: StreamingBody) -> Reply {
        Reply::Stream(body)
    }
}

/// A chunked (`Transfer-Encoding: chunked`) response produced
/// incrementally by a handler — the server writes the head, then runs
/// the producer, which pushes chunks into a [`ChunkSink`] for as long
/// as it likes (a live event tail, for example). The connection is
/// closed when the producer returns; a write error (client went away,
/// server shutting down via [`ConnTracker`](crate::track::ConnTracker))
/// surfaces as `Err` from [`ChunkSink::send`], which the producer
/// should treat as its signal to stop.
pub struct StreamingBody {
    status: StatusCode,
    headers: crate::headers::HeaderMap,
    producer: Producer,
}

type Producer = Box<dyn FnOnce(&mut ChunkSink<'_>) -> std::io::Result<()> + Send>;

impl StreamingBody {
    /// Creates a streaming reply with the given status; `producer` is
    /// invoked on the connection's worker thread once the head has
    /// been written.
    pub fn new(
        status: StatusCode,
        producer: impl FnOnce(&mut ChunkSink<'_>) -> std::io::Result<()> + Send + 'static,
    ) -> StreamingBody {
        StreamingBody {
            status,
            headers: crate::headers::HeaderMap::new(),
            producer: Box::new(producer),
        }
    }

    /// Adds a header to the stream head. `Content-Length` and
    /// `Transfer-Encoding` are managed by the server and ignored here.
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> StreamingBody {
        let name = name.into();
        if !name.eq_ignore_ascii_case("content-length")
            && !name.eq_ignore_ascii_case("transfer-encoding")
        {
            self.headers.append(name, value);
        }
        self
    }
}

impl std::fmt::Debug for StreamingBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingBody")
            .field("status", &self.status)
            .field("headers", &self.headers)
            .finish_non_exhaustive()
    }
}

/// The producer side of a [`StreamingBody`]: each [`send`](ChunkSink::send)
/// writes one HTTP chunk and flushes it to the client.
pub struct ChunkSink<'a> {
    writer: &'a mut dyn std::io::Write,
}

impl ChunkSink<'_> {
    /// Writes `data` as one chunk and flushes. Empty data is skipped
    /// (an empty chunk would terminate the stream).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors — typically the client disconnecting or
    /// the server shutting the connection down, both of which mean the
    /// producer should return.
    pub fn send(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.writer, "{:x}\r\n", data.len())?;
        self.writer.write_all(data)?;
        self.writer.write_all(b"\r\n")?;
        self.writer.flush()
    }
}

/// A request handler: maps a request (plus connection metadata) to a
/// reply.
///
/// Implemented for all closures returning anything convertible into a
/// [`Reply`] — in particular plain [`Response`]-returning closures.
pub trait Handler: Send + Sync + 'static {
    /// Produces the reply for `request`.
    fn handle(&self, request: Request, conn: &ConnInfo) -> Reply;
}

impl<F, R> Handler for F
where
    F: Fn(Request, &ConnInfo) -> R + Send + Sync + 'static,
    R: Into<Reply>,
{
    fn handle(&self, request: Request, conn: &ConnInfo) -> Reply {
        self(request, conn).into()
    }
}

/// Configuration for [`HttpServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Per-connection idle read timeout; when it expires the
    /// keep-alive connection is closed.
    pub read_timeout: Option<Duration>,
    /// Message size limits for incoming requests.
    pub limits: Limits,
    /// Server name used for worker threads.
    pub name: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            read_timeout: Some(Duration::from_secs(30)),
            limits: Limits::default(),
            name: "http-server".to_string(),
        }
    }
}

/// A running HTTP server.
///
/// The server accepts connections on a background thread and services
/// them on a fixed [`ThreadPool`]. Dropping the handle shuts the
/// server down and joins its threads.
///
/// # Examples
///
/// ```
/// use gremlin_http::{HttpClient, HttpServer, Request, Response};
///
/// # fn main() -> gremlin_http::Result<()> {
/// let server = HttpServer::bind("127.0.0.1:0", |req: Request, _conn: &_| {
///     Response::ok(format!("hello {}", req.path()))
/// })?;
/// let client = HttpClient::new();
/// let resp = client.send(server.local_addr(), Request::get("/world"))?;
/// assert_eq!(resp.body_str(), "hello /world");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HttpServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
    active_connections: Arc<AtomicUsize>,
    requests_served: Arc<AtomicUsize>,
    tracker: Arc<ConnTracker>,
}

impl HttpServer {
    /// Binds to `addr` with default configuration and starts serving.
    ///
    /// # Errors
    ///
    /// Returns an error if the address cannot be bound.
    pub fn bind<H: Handler>(addr: impl ToSocketAddrs, handler: H) -> Result<HttpServer> {
        HttpServer::bind_with_config(addr, handler, ServerConfig::default())
    }

    /// Binds to `addr` with explicit configuration and starts serving.
    ///
    /// # Errors
    ///
    /// Returns an error if the address cannot be bound.
    pub fn bind_with_config<H: Handler>(
        addr: impl ToSocketAddrs,
        handler: H,
        config: ServerConfig,
    ) -> Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let active_connections = Arc::new(AtomicUsize::new(0));
        let requests_served = Arc::new(AtomicUsize::new(0));
        let tracker = Arc::new(ConnTracker::new());
        let handler: Arc<dyn Handler> = Arc::new(handler);

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_active = Arc::clone(&active_connections);
        let accept_requests = Arc::clone(&requests_served);
        let accept_tracker = Arc::clone(&tracker);
        let accept_config = config.clone();
        let accept_thread = thread::Builder::new()
            .name(format!("{}-accept", config.name))
            .spawn(move || {
                let pool = ThreadPool::new(accept_config.workers, &accept_config.name);
                while !accept_shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, peer_addr)) => {
                            let handler = Arc::clone(&handler);
                            let config = accept_config.clone();
                            let shutdown = Arc::clone(&accept_shutdown);
                            let active = Arc::clone(&accept_active);
                            let requests = Arc::clone(&accept_requests);
                            let tracker = Arc::clone(&accept_tracker);
                            active.fetch_add(1, Ordering::SeqCst);
                            pool.execute(move || {
                                let conn = ConnInfo {
                                    peer_addr,
                                    local_addr: stream.local_addr().unwrap_or(peer_addr),
                                };
                                let token = tracker.register(&stream);
                                let _ = serve_connection(
                                    stream, &conn, &*handler, &config, &shutdown, &requests,
                                );
                                tracker.deregister(token);
                                active.fetch_sub(1, Ordering::SeqCst);
                            });
                        }
                        Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
                // Unblock any worker stuck reading a keep-alive
                // connection, then let the pool drop join workers.
                accept_tracker.shutdown_all();
            })
            .map_err(HttpError::Io)?;

        Ok(HttpServer {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            active_connections,
            requests_served,
            tracker,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of connections currently being serviced.
    pub fn active_connections(&self) -> usize {
        self.active_connections.load(Ordering::SeqCst)
    }

    /// Total requests handled since startup.
    pub fn requests_served(&self) -> usize {
        self.requests_served.load(Ordering::SeqCst)
    }

    /// Signals shutdown and waits for the accept loop (and in-flight
    /// connections) to finish.
    ///
    /// Dropping the server performs the same teardown; this method
    /// exists for callers that want an explicit synchronization point.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.tracker.shutdown_all();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn serve_connection(
    stream: TcpStream,
    conn: &ConnInfo,
    handler: &dyn Handler,
    config: &ServerConfig,
    shutdown: &AtomicBool,
    requests: &AtomicUsize,
) -> Result<()> {
    stream.set_read_timeout(config.read_timeout)?;
    stream.set_nodelay(true)?;
    // One reader and one writer for the connection's whole lifetime:
    // every reply — full, 400 or streamed — goes through `writer`.
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let request = match read_request_with_limits(&mut reader, config.limits) {
            Ok(request) => request,
            Err(HttpError::ConnectionClosed) | Err(HttpError::Timeout) => return Ok(()),
            Err(err) if err.is_connection_error() => return Ok(()),
            Err(_) => {
                // Malformed input: answer 400 and close.
                let _ = write_response(&mut writer, &Response::error(StatusCode::BAD_REQUEST));
                return Ok(());
            }
        };
        let close = request.headers().connection_close();
        let is_head = *request.method() == crate::Method::Head;
        let reply = handler.handle(request, conn);
        requests.fetch_add(1, Ordering::SeqCst);
        match reply {
            Reply::Full(mut response) => {
                let close = close || response.headers().connection_close();
                if is_head {
                    // HEAD: status and headers only, no body.
                    // Content-Length is re-framed to 0 so the single
                    // codec stays self-consistent for clients that
                    // read the response.
                    response.set_body("");
                }
                write_response(&mut writer, &response)?;
                if close {
                    return Ok(());
                }
            }
            Reply::Stream(body) => {
                // A stream owns the connection until it ends; the
                // producer may block indefinitely (live tails), so
                // clear the read timeout's influence by never reading
                // again and close once the producer returns.
                write_stream_head(&mut writer, &body)?;
                if !is_head {
                    let mut sink = ChunkSink {
                        writer: &mut writer,
                    };
                    // Producer errors are expected (client hung up,
                    // tracker shutdown): the stream just ends.
                    let _ = (body.producer)(&mut sink);
                }
                let _ = std::io::Write::write_all(&mut writer, b"0\r\n\r\n");
                let _ = std::io::Write::flush(&mut writer);
                return Ok(());
            }
        }
    }
}

/// Writes the head of a chunked streaming response: status line,
/// caller headers, then `Transfer-Encoding: chunked` and
/// `Connection: close` framing.
fn write_stream_head<W: std::io::Write>(writer: &mut W, body: &StreamingBody) -> Result<()> {
    write_status_line(writer, body.status, body.status.canonical_reason())?;
    for (name, value) in body.headers.iter() {
        write_header(writer, name, value)?;
    }
    writer.write_all(b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n")?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, HttpClient};
    use crate::message::Request;

    #[test]
    fn serves_requests() {
        let server = HttpServer::bind("127.0.0.1:0", |req: Request, _conn: &ConnInfo| {
            Response::ok(format!("echo:{}", req.path()))
        })
        .unwrap();
        let client = HttpClient::new();
        let resp = client
            .send(server.local_addr(), Request::get("/a"))
            .unwrap();
        assert_eq!(resp.body_str(), "echo:/a");
        assert_eq!(server.requests_served(), 1);
    }

    #[test]
    fn serves_concurrent_clients() {
        let server = HttpServer::bind("127.0.0.1:0", |_req: Request, _conn: &ConnInfo| {
            thread::sleep(Duration::from_millis(20));
            Response::ok("slow")
        })
        .unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                thread::spawn(move || {
                    let client = HttpClient::new();
                    client.send(addr, Request::get("/")).unwrap().body_str()
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), "slow");
        }
        assert_eq!(server.requests_served(), 8);
    }

    #[test]
    fn keep_alive_across_requests() {
        let server = HttpServer::bind("127.0.0.1:0", |_req: Request, _conn: &ConnInfo| {
            Response::ok("k")
        })
        .unwrap();
        let client = HttpClient::new();
        for _ in 0..5 {
            client.send(server.local_addr(), Request::get("/")).unwrap();
        }
        assert_eq!(server.requests_served(), 5);
        // All five should have flowed over one pooled connection.
        assert_eq!(client.idle_connections(), 1);
    }

    #[test]
    fn malformed_request_gets_400() {
        use std::io::{Read, Write};
        let server = HttpServer::bind("127.0.0.1:0", |_req: Request, _conn: &ConnInfo| {
            Response::ok("x")
        })
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 400"), "got: {text}");
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let server = HttpServer::bind("127.0.0.1:0", |_req: Request, _conn: &ConnInfo| {
            Response::ok("")
        })
        .unwrap();
        let addr = server.local_addr();
        server.shutdown();
        // After shutdown the port should refuse (or at least not
        // answer) new requests.
        let config = ClientConfig {
            connect_timeout: Some(Duration::from_millis(200)),
            read_timeout: Some(Duration::from_millis(200)),
            ..ClientConfig::default()
        };
        let client = HttpClient::with_config(config);
        assert!(client.send(addr, Request::get("/")).is_err());
    }

    #[test]
    fn head_requests_get_no_body() {
        let server = HttpServer::bind("127.0.0.1:0", |_req: Request, _conn: &ConnInfo| {
            Response::ok("a sizeable body")
        })
        .unwrap();
        let client = HttpClient::new();
        let head = client
            .send(
                server.local_addr(),
                crate::Request::builder(crate::Method::Head, "/").build(),
            )
            .unwrap();
        assert_eq!(head.status(), StatusCode::OK);
        assert!(head.body().is_empty());
        // A follow-up GET on the same pooled connection still works
        // (framing was not corrupted).
        let get = client
            .send(server.local_addr(), crate::Request::get("/"))
            .unwrap();
        assert_eq!(get.body_str(), "a sizeable body");
    }

    #[test]
    fn streaming_reply_delivers_chunks_incrementally() {
        use crate::codec::{read_response_head, write_request, ChunkReader};
        use std::io::BufReader;
        use std::sync::mpsc;

        // The producer emits one chunk per received token, so the
        // client observes chunks strictly before the stream ends.
        let (tx, rx) = mpsc::channel::<String>();
        let rx = std::sync::Mutex::new(rx);
        let server = HttpServer::bind("127.0.0.1:0", move |_req: Request, _conn: &ConnInfo| {
            let rx = rx.lock().unwrap();
            let mut lines: Vec<String> = Vec::new();
            while let Ok(line) = rx.recv() {
                lines.push(line);
            }
            crate::server::StreamingBody::new(StatusCode::OK, move |sink| {
                for line in lines {
                    sink.send(line.as_bytes())?;
                }
                Ok(())
            })
            .header("Content-Type", "application/x-ndjson")
            .header("Content-Length", "ignored")
        })
        .unwrap();

        tx.send("one\n".to_string()).unwrap();
        tx.send("two\n".to_string()).unwrap();
        drop(tx);

        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut write_half = stream.try_clone().unwrap();
        write_request(&mut write_half, &Request::get("/tail")).unwrap();
        let mut reader = BufReader::new(stream);
        let head = read_response_head(&mut reader).unwrap();
        assert_eq!(head.status(), StatusCode::OK);
        assert!(head.headers().is_chunked());
        assert!(head.headers().connection_close());
        assert_eq!(
            head.headers().get("content-type"),
            Some("application/x-ndjson")
        );
        // The blocked Content-Length header was dropped.
        assert!(head.headers().get("content-length").is_none());
        let mut chunks = ChunkReader::new(reader);
        assert_eq!(chunks.next_chunk().unwrap().as_deref(), Some(&b"one\n"[..]));
        assert_eq!(chunks.next_chunk().unwrap().as_deref(), Some(&b"two\n"[..]));
        assert_eq!(chunks.next_chunk().unwrap(), None);
    }

    #[test]
    fn shutdown_unblocks_streaming_producer() {
        use crate::codec::{read_response_head, write_request};
        use std::io::BufReader;

        // A producer that streams forever; shutdown_all must break its
        // write and let the server join.
        let server = HttpServer::bind("127.0.0.1:0", |_req: Request, _conn: &ConnInfo| {
            crate::server::StreamingBody::new(StatusCode::OK, |sink| loop {
                sink.send(b"tick\n")?;
                thread::sleep(Duration::from_millis(5));
            })
        })
        .unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut write_half = stream.try_clone().unwrap();
        write_request(&mut write_half, &Request::get("/tail")).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let head = read_response_head(&mut reader).unwrap();
        assert_eq!(head.status(), StatusCode::OK);
        // Close the client side; the producer's next send hits a
        // broken pipe. Then shutdown must join promptly even though a
        // stream was in flight.
        drop(reader);
        drop(write_half);
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn connection_close_header_closes() {
        let server = HttpServer::bind("127.0.0.1:0", |_req: Request, _conn: &ConnInfo| {
            Response::ok("c")
        })
        .unwrap();
        let client = HttpClient::new();
        let req = Request::builder(crate::Method::Get, "/")
            .header("Connection", "close")
            .build();
        let resp = client.send(server.local_addr(), req).unwrap();
        assert_eq!(resp.body_str(), "c");
        assert_eq!(client.idle_connections(), 0);
    }
}
