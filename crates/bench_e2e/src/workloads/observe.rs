//! `observe_pipeline`: observations travelling from agents to the
//! central store while a live monitor tails it.
//!
//! One operation is one burst: a producer records 128 seeded events
//! into its own `HttpEventSink`, flushes it, and the operation ends when
//! the burst's last events are visible in the `CollectorServer`'s store.
//! `clients − 1` producers (at least one) write; one tail thread polls a
//! `LiveMonitor` with two streaming assertions over the same store every
//! 10 ms — reads beside writes. No agent and no checker take part.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use gremlin_core::{LiveMonitor, MonitorSpec, StreamingAssertion};
use gremlin_proxy::{CollectorServer, HttpEventSink};
use gremlin_store::{Event, EventSink, EventStore, Query};

use super::{probe_ns_per_item, probe_p50_us, LayerMetrics, Traced, Workload};
use crate::driver::{
    client_count, run_clients, ClientOutcome, RawClient, RoundOutcome, OP_TIMEOUT,
};
use crate::gen::{burst_event_id, event_burst, BURST_EVENTS, CLIENT, SERVER};
use crate::spans::Recorder;
use crate::stats;

/// How often the tail thread polls the monitor.
const POLL_EVERY: Duration = Duration::from_millis(10);

struct ObserveWorkload {
    seed: u64,
    producers: usize,
    // Sinks go before the collector they post to.
    sinks: Vec<HttpEventSink>,
    collector: CollectorServer,
    store: Arc<EventStore>,
    recorder: Option<Arc<Recorder>>,
    /// The bursts of one round, per producer, generated from the seed in
    /// set-up. Every round sends copies of the same bursts (the store is
    /// cleared in between), so no round pays for generating its inputs.
    bursts: Vec<Vec<Vec<Event>>>,
    last_round_events: usize,
    last_round_polls: usize,
    last_round_windows: u64,
    last_round_alerts: usize,
    clear_ms: Vec<f64>,
}

pub(super) fn set_up(
    seed: u64,
    ops: usize,
    recorder: Option<Arc<Recorder>>,
) -> Result<Box<dyn Workload>, String> {
    let store = Arc::new(EventStore::new());
    let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0")
        .map_err(|err| format!("collector: {err}"))?;
    let producers = client_count().saturating_sub(1).max(1);
    let sinks = (0..producers)
        .map(|_| HttpEventSink::new(collector.local_addr()))
        .collect();
    let bursts = (0..producers)
        .map(|producer| {
            (0..ops.div_ceil(producers))
                .map(|burst| event_burst(seed, producer, burst))
                .collect()
        })
        .collect();
    Ok(Box::new(ObserveWorkload {
        seed,
        producers,
        sinks,
        collector,
        store,
        recorder,
        bursts,
        last_round_events: 0,
        last_round_polls: 0,
        last_round_windows: 0,
        last_round_alerts: 0,
        clear_ms: Vec::new(),
    }))
}

fn monitor_spec() -> MonitorSpec {
    MonitorSpec::new(Duration::from_secs(1))
        .assert(StreamingAssertion::LatencySlo {
            service: SERVER.to_string(),
            quantile: 0.99,
            bound: Duration::from_millis(50),
        })
        .assert(StreamingAssertion::ErrorRateAtMost {
            src: CLIENT.to_string(),
            dst: SERVER.to_string(),
            max_ratio: 0.5,
        })
}

/// Waits until the store holds at least `sent` events — all this
/// producer has flushed so far this round — and both events carrying the
/// burst's last request ID can be queried from it. The count is one
/// atomic load, so waiting costs next to nothing and the query runs once.
/// Yielding, not sleeping: on the one core all threads share, yielding
/// hands the core to the collector, and a sleep would round every
/// latency up to the timer's granularity.
fn wait_visible(store: &EventStore, sent: usize, last_id: &str) -> bool {
    let deadline = Instant::now() + OP_TIMEOUT;
    while store.len() < sent {
        if Instant::now() > deadline {
            return false;
        }
        thread::yield_now();
    }
    let query = Query::new().with_request_id(last_id);
    loop {
        if store.query(&query).len() >= 2 {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        thread::yield_now();
    }
}

impl Workload for ObserveWorkload {
    fn clients(&self) -> usize {
        self.producers
    }

    fn round(&mut self, ops: usize) -> RoundOutcome {
        let cleared = Instant::now();
        self.store.clear();
        self.clear_ms
            .push(cleared.elapsed().as_secs_f64() * 1_000.0);
        let dropped_before: u64 = self.sinks.iter().map(HttpEventSink::dropped).sum();

        // Untimed: this round's copy of the pre-generated bursts.
        let per_producer = ops.div_ceil(self.producers).min(self.bursts[0].len());
        let inputs: Vec<Mutex<Vec<Vec<Event>>>> = self
            .bursts
            .iter()
            .map(|bursts| Mutex::new(bursts[..per_producer].to_vec()))
            .collect();
        let (producers, sinks, store) = (self.producers, &self.sinks, &self.store);
        let recorder = self
            .recorder
            .as_deref()
            .filter(|recorder| recorder.enabled());

        // A fresh monitor per round, tailing from the cleared store.
        let monitor = LiveMonitor::tailing(Arc::clone(store), monitor_spec());
        let stop = AtomicBool::new(false);
        let (mut round, polls, alerts) = thread::scope(|scope| {
            let tail = scope.spawn(|| {
                let monitor_id: Arc<str> = Arc::from("monitor");
                let (mut polls, mut alerts) = (0usize, 0usize);
                while !stop.load(Ordering::SeqCst) {
                    let start = recorder.map(Recorder::now_ns);
                    alerts += monitor.poll().len();
                    polls += 1;
                    if let (Some(recorder), Some(start)) = (recorder, start) {
                        recorder.record(&monitor_id, None, "monitor.poll", start);
                    }
                    thread::sleep(POLL_EVERY);
                }
                (polls, alerts)
            });
            let round = run_clients(producers, |producer| {
                let sink = &sinks[producer];
                let mut outcome = ClientOutcome::default();
                let bursts = std::mem::take(
                    &mut *inputs[producer]
                        .lock()
                        .expect("no thread panics holding this lock"),
                );
                for (burst, events) in bursts.into_iter().enumerate() {
                    let last_id: Arc<str> =
                        burst_event_id(producer, burst, BURST_EVENTS - 1).into();
                    let root_start = recorder.map(Recorder::now_ns);
                    let started = Instant::now();
                    match recorder {
                        None => events.into_iter().for_each(|event| sink.record(event)),
                        Some(recorder) => {
                            for event in events {
                                let start = recorder.now_ns();
                                sink.record(event);
                                recorder.record(&last_id, Some("burst"), "sink.record", start);
                            }
                        }
                    }
                    let flush_start = recorder.map(Recorder::now_ns);
                    sink.flush();
                    let visible_start = recorder.map(Recorder::now_ns);
                    let visible = wait_visible(store, (burst + 1) * BURST_EVENTS, &last_id);
                    outcome
                        .latencies_ns
                        .push(started.elapsed().as_nanos() as u64);
                    if let (Some(recorder), Some(root), Some(flush), Some(seen)) =
                        (recorder, root_start, flush_start, visible_start)
                    {
                        let end = recorder.now_ns();
                        recorder.record_until(&last_id, Some("burst"), "sink.flush", flush, seen);
                        recorder.record_until(&last_id, Some("burst"), "store.visible", seen, end);
                        recorder.record_until(&last_id, None, "burst", root, end);
                    }
                    if !visible {
                        outcome.failed += 1;
                    }
                }
                outcome
            });
            stop.store(true, Ordering::SeqCst);
            let (polls, alerts) = tail.join().expect("the tail thread panicked");
            (round, polls, alerts)
        });

        // Sent must equal stored, and nothing may have been dropped;
        // every missing burst counts as a failed operation.
        let sent = per_producer * producers * BURST_EVENTS;
        let stored = self.store.len();
        let dropped = self.sinks.iter().map(HttpEventSink::dropped).sum::<u64>() - dropped_before;
        let missing_bursts = sent.abs_diff(stored).div_ceil(BURST_EVENTS);
        let dropped_bursts = (dropped as usize).div_ceil(BURST_EVENTS);
        round.failed = (round.failed + missing_bursts.max(dropped_bursts)).min(round.attempted());
        self.last_round_events = stored;
        self.last_round_polls = polls;
        self.last_round_alerts = alerts;
        self.last_round_windows = monitor.windows_closed();
        round
    }

    fn layer_metrics(&mut self, traced: &Traced, out: &mut LayerMetrics) {
        // proxy.collector: sink enqueue, flush and visibility as the
        // producer saw them in the traced rounds.
        out.set(
            "proxy.collector.sink_record_ns",
            traced.mean_ns("sink.record"),
        );
        out.set("proxy.collector.sink_flush_us", traced.p50_us("sink.flush"));
        out.set(
            "proxy.collector.visible_lag_us",
            traced.p50_us("store.visible"),
        );
        out.set(
            "proxy.collector.sink_dropped",
            self.sinks.iter().map(HttpEventSink::dropped).sum::<u64>() as f64,
        );

        // core.monitor, from the tail thread of the last round.
        out.set("core.monitor.poll_us", traced.p50_us("monitor.poll"));
        let per_poll = self.last_round_events as f64 / self.last_round_polls.max(1) as f64;
        out.set("core.monitor.events_per_poll", per_poll);
        out.set(
            "core.monitor.windows_closed",
            self.last_round_windows as f64,
        );
        out.set("core.monitor.alerts", self.last_round_alerts as f64);

        // eventstore.store: the tail read over the round's full store,
        // a batch append as the collector does it, and the reset.
        out.set("eventstore.store.events", self.last_round_events as f64);
        out.set("eventstore.store.events_per_poll", per_poll);
        let cursor = self.store.tail_cursor().saturating_sub(BURST_EVENTS as u64);
        out.set(
            "eventstore.store.events_after_us",
            probe_p50_us(20, || {
                std::hint::black_box(self.store.events_after(cursor));
            }),
        );
        let burst = event_burst(self.seed, 0, 0);
        let scratch = EventStore::new();
        let batches: Vec<Vec<Event>> = (0..100).map(|_| burst.clone()).collect();
        out.set(
            "eventstore.store.record_batch_ns_per_event",
            probe_ns_per_item(100 * BURST_EVENTS, || {
                for batch in batches {
                    scratch.record_batch(batch);
                }
            }),
        );
        out.set(
            "eventstore.store.clear_ms",
            stats::quantile(&mut self.clear_ms.clone(), 0.5),
        );

        // eventstore.event: the JSON both ends of the pipeline pay for.
        let lines: Vec<String> = burst
            .iter()
            .filter_map(|event| serde_json::to_string(event).ok())
            .collect();
        out.set(
            "eventstore.event.json_bytes",
            lines.iter().map(String::len).sum::<usize>() as f64 / lines.len().max(1) as f64,
        );
        out.set(
            "eventstore.event.to_json_ns",
            probe_ns_per_item(50 * burst.len(), || {
                for _ in 0..50 {
                    for event in &burst {
                        std::hint::black_box(serde_json::to_string(event).ok());
                    }
                }
            }),
        );
        out.set(
            "eventstore.event.from_json_ns",
            probe_ns_per_item(50 * lines.len(), || {
                for _ in 0..50 {
                    for line in &lines {
                        std::hint::black_box(serde_json::from_str::<Event>(line).ok());
                    }
                }
            }),
        );

        // proxy.collector ingest: a pre-serialised batch posted raw, and
        // the collector's own error count.
        let ndjson = lines.join("\n");
        let post = format!(
            "POST /events HTTP/1.1\r\nHost: collector\r\nContent-Type: application/x-ndjson\r\nContent-Length: {}\r\n\r\n{ndjson}",
            ndjson.len()
        );
        if let Ok(mut client) = RawClient::connect(self.collector.local_addr()) {
            let mut body = Vec::new();
            out.set(
                "proxy.collector.ingest_batch_us",
                probe_p50_us(200, || {
                    let _ = client.exchange(post.as_bytes(), &mut body);
                }),
            );
            let stats_request = b"GET /stats HTTP/1.1\r\nHost: collector\r\n\r\n";
            if client.exchange(stats_request, &mut body).is_ok() {
                let parse_errors = serde_json::from_slice::<serde_json::Value>(&body)
                    .ok()
                    .and_then(|stats| stats["parse_errors"].as_u64());
                out.set(
                    "proxy.collector.parse_errors",
                    parse_errors.unwrap_or(0) as f64,
                );
            }
        }
    }
}
