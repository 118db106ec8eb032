//! A blocking HTTP/1.1 client with connect/read timeouts and
//! keep-alive connection reuse.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use parking_lot::Mutex;

use crate::codec::{read_response_with_limits, write_request_for_host, Limits};
use crate::error::HttpError;
use crate::message::{Request, Response};
use crate::Result;

/// Configuration for [`HttpClient`].
///
/// The three timeout knobs mirror the failure modes the Gremlin paper
/// manipulates (§3.1): connection-establishment failures, delayed
/// responses, and hangs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Deadline for TCP connection establishment. `None` blocks until
    /// the OS gives up.
    pub connect_timeout: Option<Duration>,
    /// Deadline for reading a full response once the request is sent.
    pub read_timeout: Option<Duration>,
    /// Deadline for writing the request.
    pub write_timeout: Option<Duration>,
    /// Whether to pool idle connections for reuse (keep-alive).
    pub keep_alive: bool,
    /// Maximum idle keep-alive connections pooled per destination
    /// address. When the pool is full, the *oldest* idle connection is
    /// evicted to make room — it is the most likely to have been
    /// closed by the peer's idle timeout. `0` disables pooling
    /// entirely (every connection closes after its response).
    ///
    /// Size this to the caller's peak concurrency *per host*: a
    /// client shared by N threads hitting the same address wants at
    /// least N pooled slots or the excess connections are torn down
    /// after every response. The default of 8 matches the control
    /// plane's default fan-out width
    /// (`FailureOrchestrator::DEFAULT_MAX_FANOUT`), so concurrent
    /// rule pushes through one client reuse warm connections instead
    /// of reconnecting per push.
    pub max_idle_per_host: usize,
    /// Message size limits while parsing responses.
    pub limits: Limits,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(10)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            keep_alive: true,
            max_idle_per_host: 8,
            limits: Limits::default(),
        }
    }
}

/// A blocking HTTP/1.1 client.
///
/// The client keeps a small pool of idle keep-alive connections per
/// destination address. It is `Send + Sync`; clones share nothing (a
/// fresh pool per clone) but are cheap to create.
///
/// # Examples
///
/// ```no_run
/// use gremlin_http::{HttpClient, Request};
///
/// # fn main() -> gremlin_http::Result<()> {
/// let client = HttpClient::new();
/// let response = client.send("127.0.0.1:8080", Request::get("/health"))?;
/// assert!(response.status().is_success());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HttpClient {
    config: ClientConfig,
    idle: Mutex<HashMap<SocketAddr, Vec<Connection>>>,
}

/// One upstream connection with everything that lives as long as it
/// does: both halves' buffers (one `try_clone` at connect, none per
/// exchange) and the `Host` value sent for requests that name none.
#[derive(Debug)]
struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    host: String,
}

impl Connection {
    fn new(stream: TcpStream, host: String) -> Result<Connection> {
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            host,
        })
    }
}

impl Default for HttpClient {
    fn default() -> Self {
        HttpClient::new()
    }
}

impl HttpClient {
    /// Creates a client with [`ClientConfig::default`].
    pub fn new() -> HttpClient {
        HttpClient::with_config(ClientConfig::default())
    }

    /// Creates a client with explicit configuration.
    pub fn with_config(config: ClientConfig) -> HttpClient {
        HttpClient {
            config,
            idle: Mutex::new(HashMap::new()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Sends `request` to `addr` and waits for the response.
    ///
    /// `addr` is resolved on every call and the first address it
    /// yields keys the idle pool, so a [`SocketAddr`] costs nothing and
    /// a host name costs a lookup per call. A `Host` header (`addr` as
    /// given when the connection was opened) is sent when the request
    /// has none. Idle pooled connections are reused when keep-alive is
    /// enabled; a send over a stale pooled connection is retried once
    /// on a fresh connection.
    ///
    /// # Errors
    ///
    /// * [`HttpError::Timeout`] — connect, write or read deadline hit.
    /// * [`HttpError::ConnectionClosed`] / I/O errors — the peer went
    ///   away mid-exchange.
    /// * Codec errors for malformed responses.
    pub fn send(&self, addr: impl ToSocketAddrs + ToString, request: Request) -> Result<Response> {
        let socket_addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            HttpError::Io(std::io::Error::other(format!(
                "cannot resolve {}",
                addr.to_string()
            )))
        })?;

        // First try a pooled connection, falling back once to a fresh
        // connection if the pooled one turned out to be dead.
        if let Some(connection) = self.take_idle(socket_addr) {
            match self.exchange(connection, &request, socket_addr) {
                Ok(response) => return Ok(response),
                Err(err) if err.is_connection_error() => { /* retry on fresh */ }
                Err(err) => return Err(err),
            }
        }
        let connection = Connection::new(self.connect(socket_addr)?, addr.to_string())?;
        self.exchange(connection, &request, socket_addr)
    }

    /// Establishes a raw TCP connection to `addr`, honoring the
    /// connect timeout.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::Timeout`] on connect-deadline expiry or an
    /// I/O error if the peer refuses the connection.
    pub fn connect(&self, addr: SocketAddr) -> Result<TcpStream> {
        let stream = match self.config.connect_timeout {
            Some(timeout) => TcpStream::connect_timeout(&addr, timeout)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_read_timeout(self.config.read_timeout)?;
        stream.set_write_timeout(self.config.write_timeout)?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    fn exchange(
        &self,
        mut connection: Connection,
        request: &Request,
        addr: SocketAddr,
    ) -> Result<Response> {
        write_request_for_host(&mut connection.writer, request, Some(&connection.host))?;
        let response = read_response_with_limits(&mut connection.reader, self.config.limits)?;
        // The reader outlives the exchange, so bytes the peer sent past
        // the end of this response would be parsed as the start of the
        // next one: such a connection is dropped, not pooled.
        let reusable = self.config.keep_alive
            && !response.headers().connection_close()
            && !request.headers().connection_close()
            && connection.reader.buffer().is_empty();
        if reusable {
            self.put_idle(addr, connection);
        }
        Ok(response)
    }

    fn take_idle(&self, addr: SocketAddr) -> Option<Connection> {
        self.idle.lock().get_mut(&addr)?.pop()
    }

    fn put_idle(&self, addr: SocketAddr, connection: Connection) {
        if self.config.max_idle_per_host == 0 {
            return;
        }
        let mut idle = self.idle.lock();
        let bucket = idle.entry(addr).or_default();
        if bucket.len() >= self.config.max_idle_per_host {
            // `take_idle` pops from the back, so index 0 is the
            // longest-idle connection — evict it.
            bucket.remove(0);
        }
        bucket.push(connection);
    }

    /// Drops all pooled idle connections.
    pub fn clear_pool(&self) {
        self.idle.lock().clear();
    }

    /// Number of idle pooled connections across all hosts (for tests
    /// and diagnostics).
    pub fn idle_connections(&self) -> usize {
        self.idle.lock().values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{read_request, write_response};
    use crate::message::Response;
    use crate::status::StatusCode;
    use std::net::TcpListener;
    use std::thread;

    /// Spawns a one-shot server handling `n` connections sequentially.
    fn one_shot_server<F>(n: usize, handler: F) -> SocketAddr
    where
        F: Fn(Request) -> Response + Send + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            for _ in 0..n {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                while let Ok(request) = read_request(&mut reader) {
                    let close = request.headers().connection_close();
                    let response = handler(request);
                    write_response(&mut writer, &response).unwrap();
                    if close {
                        break;
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn send_receives_response() {
        let addr = one_shot_server(1, |req| Response::ok(format!("path={}", req.path())));
        let client = HttpClient::new();
        let resp = client.send(addr, Request::get("/abc")).unwrap();
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.body_str(), "path=/abc");
    }

    #[test]
    fn host_header_is_added() {
        let addr = one_shot_server(1, |req| {
            Response::ok(req.headers().get("host").unwrap_or("").to_string())
        });
        let client = HttpClient::new();
        let resp = client.send(addr, Request::get("/")).unwrap();
        assert_eq!(resp.body_str(), addr.to_string());
    }

    #[test]
    fn keep_alive_reuses_connection() {
        let addr = one_shot_server(1, |_| Response::ok("hi"));
        let client = HttpClient::new();
        client.send(addr, Request::get("/1")).unwrap();
        assert_eq!(client.idle_connections(), 1);
        // Second request must reuse the single accepted connection —
        // the server only accepts once.
        let resp = client.send(addr, Request::get("/2")).unwrap();
        assert_eq!(resp.body_str(), "hi");
        assert_eq!(client.idle_connections(), 1);
    }

    #[test]
    fn bytes_after_a_response_retire_the_connection() {
        // The first connection answers with a complete response and
        // then keeps talking; the second one behaves. Pooling the first
        // would hand "garbage" to the next exchange as its status line.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            use std::io::Write;
            for trailer in [&b"garbage"[..], b""] {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                while let Ok(request) = read_request(&mut reader) {
                    let mut wire = Vec::new();
                    write_response(&mut wire, &Response::ok(request.path().to_string())).unwrap();
                    wire.extend_from_slice(trailer);
                    // One write, so the trailer arrives with the response.
                    stream.write_all(&wire).unwrap();
                }
            }
        });
        let client = HttpClient::new();
        let first = client.send(addr, Request::get("/1")).unwrap();
        assert_eq!(first.body_str(), "/1");
        assert_eq!(
            client.idle_connections(),
            0,
            "desynchronised connection pooled"
        );
        let second = client.send(addr, Request::get("/2")).unwrap();
        assert_eq!(second.status(), StatusCode::OK);
        assert_eq!(second.body_str(), "/2");
        assert_eq!(client.idle_connections(), 1);
    }

    #[test]
    fn connection_close_is_not_pooled() {
        let addr = one_shot_server(2, |_| {
            Response::builder(StatusCode::OK)
                .header("Connection", "close")
                .body("bye")
                .build()
        });
        let client = HttpClient::new();
        client.send(addr, Request::get("/")).unwrap();
        assert_eq!(client.idle_connections(), 0);
    }

    #[test]
    fn stale_pooled_connection_is_retried() {
        // Server handles exactly two connections, one request each,
        // closing after each response — so the pooled connection from
        // request 1 is dead by request 2.
        let addr = one_shot_server(2, |_| Response::ok("x"));
        let config = ClientConfig {
            read_timeout: Some(Duration::from_secs(2)),
            ..ClientConfig::default()
        };
        let client = HttpClient::with_config(config);
        client.send(addr, Request::get("/1")).unwrap();
        // Give the server thread a moment to close its end.
        thread::sleep(Duration::from_millis(50));
        let resp = client.send(addr, Request::get("/2")).unwrap();
        assert_eq!(resp.body_str(), "x");
    }

    #[test]
    fn read_timeout_fires() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            let (_stream, _) = listener.accept().unwrap();
            thread::sleep(Duration::from_secs(5));
        });
        let config = ClientConfig {
            read_timeout: Some(Duration::from_millis(100)),
            ..ClientConfig::default()
        };
        let client = HttpClient::with_config(config);
        let err = client.send(addr, Request::get("/slow")).unwrap_err();
        assert!(err.is_timeout(), "expected timeout, got {err}");
    }

    #[test]
    fn connect_refused_is_connection_error() {
        // Bind then drop to find a port that refuses connections.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let client = HttpClient::new();
        let err = client.send(addr, Request::get("/")).unwrap_err();
        assert!(err.is_connection_error(), "got {err}");
    }

    #[test]
    fn idle_pool_is_capped_per_host() {
        // A server happily holding many keep-alive connections.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            let mut workers = Vec::new();
            while let Ok((stream, _)) = listener.accept() {
                workers.push(thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    while read_request(&mut reader).is_ok() {
                        let mut writer = BufWriter::new(stream.try_clone().unwrap());
                        let _ = write_response(&mut writer, &Response::ok("x"));
                    }
                }));
            }
        });
        // Drive 12 concurrent exchanges through one shared client so
        // 12 distinct connections open, then all try to park.
        let client = Arc::new(HttpClient::new());
        let handles: Vec<_> = (0..12)
            .map(|_| {
                let client = Arc::clone(&client);
                thread::spawn(move || {
                    client.send(addr, Request::get("/")).unwrap();
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert!(
            client.idle_connections() <= 8,
            "pool must cap idle connections, got {}",
            client.idle_connections()
        );
    }

    use std::sync::Arc;

    #[test]
    fn zero_max_idle_disables_pooling() {
        let addr = one_shot_server(1, |_| Response::ok("hi"));
        let client = HttpClient::with_config(ClientConfig {
            max_idle_per_host: 0,
            ..ClientConfig::default()
        });
        client.send(addr, Request::get("/")).unwrap();
        assert_eq!(client.idle_connections(), 0);
    }

    #[test]
    fn pool_evicts_oldest_idle_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = thread::spawn(move || {
            let mut held = Vec::new();
            for _ in 0..3 {
                held.push(listener.accept().unwrap().0);
            }
            held
        });
        let client = HttpClient::with_config(ClientConfig {
            max_idle_per_host: 2,
            ..ClientConfig::default()
        });
        let streams: Vec<TcpStream> = (0..3).map(|_| client.connect(addr).unwrap()).collect();
        let ports: Vec<u16> = streams
            .iter()
            .map(|s| s.local_addr().unwrap().port())
            .collect();
        for stream in streams {
            client.put_idle(addr, Connection::new(stream, addr.to_string()).unwrap());
        }
        let _held = accept.join().unwrap();
        assert_eq!(client.idle_connections(), 2);
        let port =
            |connection: Connection| connection.writer.get_ref().local_addr().unwrap().port();
        let first = client.take_idle(addr).unwrap();
        let second = client.take_idle(addr).unwrap();
        assert!(client.take_idle(addr).is_none());
        // The oldest (first-parked) connection was evicted; reuse
        // prefers the most recently parked.
        assert_eq!(port(first), ports[2]);
        assert_eq!(port(second), ports[1]);
    }

    #[test]
    fn clear_pool_drops_connections() {
        let addr = one_shot_server(1, |_| Response::ok("hi"));
        let client = HttpClient::new();
        client.send(addr, Request::get("/")).unwrap();
        assert_eq!(client.idle_connections(), 1);
        client.clear_pool();
        assert_eq!(client.idle_connections(), 0);
    }
}
