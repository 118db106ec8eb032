//! The benchmark's own load generator and process probes.
//!
//! Nothing here comes from the program under test: the client is a raw
//! `TcpStream` writing pre-rendered request bytes, so changes to
//! `gremlin-http`'s client or to `gremlin-loadgen` never change the
//! offered load. Load is a closed loop: each client sends its next
//! request only after the previous reply has been read in full.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// How long any single exchange may take before it counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// Generator threads (and connections): one per core the process may
/// use, at most 4. [`pin_to_one_core`] runs first in every process of the
/// benchmark, so where pinning works this is 1 — a second client on the
/// same core would only take turns with the first.
pub fn client_count() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    // From the C library the standard library already links against.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// The C library's `struct timespec` on 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    seconds: i64,
    nanoseconds: i64,
}

/// Confines this thread — and every thread and process started after —
/// to one core: the highest-numbered one the process may use (core 0 is
/// where a small virtual machine takes its interrupts). Returns the core,
/// or `None` when the platform has no such call or refuses it; the
/// benchmark then runs unpinned and says so.
///
/// Why: with driver, agent and backend on different cores, every hand-off
/// between them wakes a sleeping core, which on the virtual machines this
/// repository is measured on is a trip through the hypervisor that costs
/// more than the proxied call itself and comes and goes in phases. On one
/// core a hand-off is a context switch, run-to-run spread drops from
/// about 10 % to under 1 %, and the numbers are the program's own costs.
/// What is given up: effects that need two cores at once (cache lines
/// bouncing between cores, true lock contention) — the benchmark does not
/// measure them, and runs one client per usable core, which is one.
pub fn pin_to_one_core() -> Option<usize> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// Words of the kernel's `cpu_set_t` (1024 bits).
        const CPU_SET_WORDS: usize = 16;
        let mut mask = [0u64; CPU_SET_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = mask.iter().rposition(|word| *word != 0)?;
        let bit = 63 - mask[word].leading_zeros() as usize;
        let mut only = [0u64; CPU_SET_WORDS];
        only[word] = 1 << bit;
        // SAFETY: `only` is a live buffer of exactly the size passed and
        // is only read; pid 0 names the calling thread.
        if unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) } != 0 {
            return None;
        }
        Some(word * 64 + bit)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    None
}

/// A keep-alive HTTP/1.1 connection that sends bytes as given and reads
/// `Content-Length` replies.
#[derive(Debug)]
pub struct RawClient {
    stream: BufReader<TcpStream>,
    line: Vec<u8>,
    wire_bytes: u64,
    exchanges: u64,
}

impl RawClient {
    /// Connects with Nagle off and [`OP_TIMEOUT`] on reads and writes.
    ///
    /// # Errors
    ///
    /// The connection could not be made or configured.
    pub fn connect(addr: SocketAddr) -> io::Result<RawClient> {
        let stream = TcpStream::connect_timeout(&addr, OP_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(OP_TIMEOUT))?;
        stream.set_write_timeout(Some(OP_TIMEOUT))?;
        Ok(RawClient {
            stream: BufReader::with_capacity(16 * 1024, stream),
            line: Vec::with_capacity(128),
            wire_bytes: 0,
            exchanges: 0,
        })
    }

    /// Bytes written plus bytes read, and exchanges completed, since
    /// the connection was made.
    pub fn wire_counts(&self) -> (u64, u64) {
        (self.wire_bytes, self.exchanges)
    }

    /// Sends `request` and reads one reply: returns the status code and
    /// leaves the reply body in `body`.
    ///
    /// # Errors
    ///
    /// I/O failure, a malformed status line, or a reply without
    /// `Content-Length` (this client reads nothing else).
    pub fn exchange(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        self.stream.get_mut().write_all(request)?;
        let mut wire_bytes = request.len();
        let malformed = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());

        self.line.clear();
        wire_bytes += self.stream.read_until(b'\n', &mut self.line)?;
        // "HTTP/1.1 200 OK\r\n"
        let status = self
            .line
            .get(9..12)
            .and_then(|digits| std::str::from_utf8(digits).ok())
            .and_then(|digits| digits.parse::<u16>().ok())
            .ok_or_else(|| malformed("bad status line"))?;

        let mut content_length: Option<usize> = None;
        loop {
            self.line.clear();
            let read = self.stream.read_until(b'\n', &mut self.line)?;
            if read == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            wire_bytes += read;
            if self.line == b"\r\n" {
                break;
            }
            const NAME: &[u8] = b"content-length:";
            if self.line.len() > NAME.len() && self.line[..NAME.len()].eq_ignore_ascii_case(NAME) {
                content_length = std::str::from_utf8(&self.line[NAME.len()..])
                    .ok()
                    .and_then(|value| value.trim().parse().ok());
            }
        }
        let length = content_length.ok_or_else(|| malformed("reply without Content-Length"))?;
        body.clear();
        body.resize(length, 0);
        self.stream.read_exact(body)?;
        self.wire_bytes += (wire_bytes + length) as u64;
        self.exchanges += 1;
        Ok(status)
    }
}

/// What one client thread did in a round.
#[derive(Debug, Default)]
pub struct ClientOutcome {
    /// Latency of every operation attempted, failed ones included.
    pub latencies_ns: Vec<u64>,
    /// Operations whose result differed from the prediction or errored.
    pub failed: usize,
}

/// One round, all clients together.
#[derive(Debug, Default)]
pub struct RoundOutcome {
    /// From the moment all clients were released to the last one done.
    pub wall: Duration,
    /// Process CPU (user + system) spent during `wall`.
    pub cpu_ms: f64,
    /// Latencies of all clients' operations.
    pub latencies_ns: Vec<u64>,
    /// Operations whose result differed from the prediction or errored.
    pub failed: usize,
}

impl RoundOutcome {
    /// Operations attempted.
    pub fn attempted(&self) -> usize {
        self.latencies_ns.len()
    }
}

/// Runs `client(index)` on `clients` threads released together, and
/// times the round.
pub fn run_clients<F>(clients: usize, client: F) -> RoundOutcome
where
    F: Fn(usize) -> ClientOutcome + Sync,
{
    let barrier = Barrier::new(clients + 1);
    let mut round = RoundOutcome::default();
    let (started, cpu_before) = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|index| {
                let (barrier, client) = (&barrier, &client);
                scope.spawn(move || {
                    barrier.wait();
                    client(index)
                })
            })
            .collect();
        let cpu_before = process_cpu_ms();
        barrier.wait();
        let started = Instant::now();
        for handle in handles {
            let outcome = handle.join().expect("a client thread panicked");
            round.latencies_ns.extend(outcome.latencies_ns);
            round.failed += outcome.failed;
        }
        (started, cpu_before)
    });
    round.wall = started.elapsed();
    round.cpu_ms = process_cpu_ms() - cpu_before;
    round
}

/// User plus system CPU time of this process so far, in milliseconds,
/// from the process CPU-time clock (nanosecond resolution; the tick
/// counts in `/proc/self/stat` are 10 ms apart, longer than a small
/// round). 0 where the platform has no such clock.
pub fn process_cpu_ms() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut time = Timespec {
            seconds: 0,
            nanoseconds: 0,
        };
        // SAFETY: `time` is a live, writable `struct timespec`.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) } != 0 {
            return 0.0;
        }
        time.seconds as f64 * 1_000.0 + time.nanoseconds as f64 / 1_000_000.0
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    0.0
}

/// Peak resident set size (`VmHWM`) in MiB; 0 where procfs is missing.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A server with no Gremlin code in it: reads a request head, answers
/// `200 ok`. The driver's round trip against it is the floor under
/// every latency the benchmark reports.
#[derive(Debug)]
pub struct EchoServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

impl EchoServer {
    /// Starts listening on an ephemeral loopback port.
    ///
    /// # Errors
    ///
    /// The listener could not be bound.
    pub fn start() -> io::Result<EchoServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let accept = thread::Builder::new()
            .name("bench-echo".to_string())
            .spawn(move || {
                let mut connections = Vec::new();
                for stream in listener.incoming() {
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        connections.push(thread::spawn(move || echo_connection(stream)));
                    }
                }
                for connection in connections {
                    let _ = connection.join();
                }
            })?;
        Ok(EchoServer {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// Where to connect.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for EchoServer {
    /// Stops accepting and waits for the threads; connections must have
    /// been closed by their clients first.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn echo_connection(stream: TcpStream) {
    const REPLY: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(OP_TIMEOUT));
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut writer = writer;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::with_capacity(128);
    loop {
        line.clear();
        match reader.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) if line == b"\r\n" => {
                if writer.write_all(REPLY).is_err() {
                    return;
                }
            }
            Ok(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_client_round_trips_against_the_echo_server() {
        let server = EchoServer::start().unwrap();
        let mut client = RawClient::connect(server.addr()).unwrap();
        let mut body = Vec::new();
        for _ in 0..3 {
            let status = client
                .exchange(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n", &mut body)
                .unwrap();
            assert_eq!((status, body.as_slice()), (200, b"ok".as_slice()));
        }
        drop(client);
        drop(server);
    }

    #[test]
    fn run_clients_merges_outcomes_and_times_the_round() {
        let round = run_clients(3, |index| {
            thread::sleep(Duration::from_millis(5));
            ClientOutcome {
                latencies_ns: vec![index as u64; 2],
                failed: index,
            }
        });
        assert_eq!(round.attempted(), 6);
        assert_eq!(round.failed, 3);
        assert!(round.wall >= Duration::from_millis(5));
    }

    #[test]
    fn pinning_leaves_one_core_and_one_client() {
        // Runs on a thread of its own, so the other tests stay unpinned.
        thread::spawn(|| {
            if let Some(core) = pin_to_one_core() {
                assert_eq!(client_count(), 1);
                assert_eq!(
                    pin_to_one_core(),
                    Some(core),
                    "pinning twice picks the same core"
                );
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn process_probes_read_procfs() {
        assert!(peak_rss_mib() > 0.0);
        assert!((1..=4).contains(&client_count()));
        // The CPU clock resolves the few microseconds a short loop takes.
        let before = process_cpu_ms();
        let mut sum = 0u64;
        for n in 0..200_000u64 {
            sum = std::hint::black_box(sum.wrapping_add(n * n));
        }
        assert!(process_cpu_ms() > before, "{sum}");
    }
}
