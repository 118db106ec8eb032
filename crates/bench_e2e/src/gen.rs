//! Seeded input generators. Everything the program under test receives
//! comes from here, and is a pure function of the seed: the same seed
//! gives byte-identical inputs, another seed gives other inputs.

use std::time::Duration;

use gremlin_proxy::{AbortKind, MessageSide, Rule};
use gremlin_store::Event;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 2016;

/// Service names of the two-node proxy topology.
pub const CLIENT: &str = "client";
/// See [`CLIENT`].
pub const SERVER: &str = "server";

/// SplitMix64: small, fast, and its whole sequence is fixed by the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose: `stream` keeps the sequences of
    /// different generators apart under the same seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`. `n` must not be 0.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `low..=high`.
    pub fn between(&mut self, low: u64, high: u64) -> u64 {
        low + self.below(high - low + 1)
    }

    /// `true` with probability `percent`/100.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

// ---------------------------------------------------------------------
// Proxy workloads
// ---------------------------------------------------------------------

/// What the installed rules do to a request, by its ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdClass {
    /// `test-p-*`: forwarded untouched.
    Pass,
    /// `test-a-*`: aborted with 503 before reaching the backend.
    Abort,
    /// `test-m-*`: forwarded, response body rewritten.
    Modify,
}

impl IdClass {
    /// The class letter inside the request ID.
    pub fn letter(self) -> char {
        match self {
            IdClass::Pass => 'p',
            IdClass::Abort => 'a',
            IdClass::Modify => 'm',
        }
    }

    /// Reads the class back from a request ID (`test-<letter>-…`).
    pub fn of_id(id: &str) -> Option<IdClass> {
        match id.as_bytes().get(5)? {
            b'p' => Some(IdClass::Pass),
            b'a' => Some(IdClass::Abort),
            b'm' => Some(IdClass::Modify),
            _ => None,
        }
    }
}

/// One pre-rendered request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyRequest {
    /// The `X-Gremlin-ID` it carries.
    pub id: String,
    /// What the rules will do to it.
    pub class: IdClass,
    /// The exact bytes written to the socket.
    pub bytes: Vec<u8>,
}

/// Inputs of a proxy workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ProxyInputs {
    /// One round's requests, in send order; client `c` of `n` sends
    /// every `n`-th request starting at `c`.
    pub requests: Vec<ProxyRequest>,
    /// Body the backend answers with.
    pub backend_body: Vec<u8>,
    /// What a `Modify`-class caller must receive instead.
    pub modified_body: Vec<u8>,
    /// Rules to install on the agent.
    pub rules: Vec<Rule>,
}

/// Requests per class, in `[Pass, Abort, Modify]` order.
pub fn class_counts(requests: &[ProxyRequest]) -> [u64; 3] {
    let mut counts = [0; 3];
    for request in requests {
        counts[request.class as usize] += 1;
    }
    counts
}

fn render_get(id: &str) -> Vec<u8> {
    format!("GET / HTTP/1.1\r\nHost: {SERVER}\r\nX-Gremlin-ID: {id}\r\n\r\n").into_bytes()
}

/// `proxy_passthrough`: `ops` smallest-possible requests with seeded
/// IDs, a two-byte reply, and no rules.
pub fn passthrough_inputs(seed: u64, ops: usize) -> ProxyInputs {
    let mut rng = Rng::new(seed, 1);
    let requests = (0..ops)
        .map(|n| {
            let id = format!("test-p-{:08x}-{n:06}", rng.next_u64() as u32);
            ProxyRequest {
                bytes: render_get(&id),
                id,
                class: IdClass::Pass,
            }
        })
        .collect();
    ProxyInputs {
        requests,
        backend_body: b"ok".to_vec(),
        modified_body: b"ok".to_vec(),
        rules: Vec::new(),
    }
}

/// Size of the `proxy_faulted` reply body.
pub const FAULTED_BODY_BYTES: usize = 4096;
/// What the Modify rules search for, and what they put in its place.
pub const MODIFY_SEARCH: &str = "state=good";
/// See [`MODIFY_SEARCH`].
pub const MODIFY_REPLACE: &str = "state=evil";
/// Matching rules per faulting class; IDs carry a bucket `00..25`, so
/// each faulted ID matches exactly one rule.
pub const RULE_BUCKETS: u64 = 25;

/// `proxy_faulted`: 25 % abort, 25 % modify, 50 % pass, a 4 KiB body
/// and 200 rules — 100 globs on the edge that share the traffic's first
/// byte and never match, 50 `*`-source rules that never match, and 50
/// that do (25 abort buckets, 25 modify buckets) — in a seeded
/// assignment to fixed slots.
pub fn faulted_inputs(seed: u64, ops: usize) -> ProxyInputs {
    let mut rng = Rng::new(seed, 2);
    let requests = (0..ops)
        .map(|n| {
            let class = match rng.below(4) {
                0 => IdClass::Abort,
                1 => IdClass::Modify,
                _ => IdClass::Pass,
            };
            let bucket = rng.below(RULE_BUCKETS);
            let id = format!("test-{}-{bucket:02}-{n:06}", class.letter());
            ProxyRequest {
                bytes: render_get(&id),
                id,
                class,
            }
        })
        .collect();

    let mut body = Vec::with_capacity(FAULTED_BODY_BYTES);
    while body.len() < FAULTED_BODY_BYTES {
        if rng.below(64) == 0 {
            body.extend_from_slice(MODIFY_SEARCH.as_bytes());
        } else {
            body.push(b'a' + rng.below(26) as u8);
        }
    }
    body.truncate(FAULTED_BODY_BYTES - MODIFY_SEARCH.len());
    body.extend_from_slice(MODIFY_SEARCH.as_bytes());
    let modified = String::from_utf8(body.clone())
        .expect("the body is ASCII")
        .replace(MODIFY_SEARCH, MODIFY_REPLACE)
        .into_bytes();

    // The seed decides *which* rule sits where, not how much work the
    // table does: rules are evaluated in order until one matches, so the
    // slots are laid out the same for every seed — two globs, one
    // wildcard rule, one matching rule, fifty times over, the matching
    // slots alternating abort and modify — and only the assignment of
    // glob numbers and ID buckets to slots is shuffled. A full shuffle
    // moved run-to-run cost by several percent on its own.
    let mut globs: Vec<u64> = (0..100).collect();
    let mut wildcards: Vec<u64> = (0..50).collect();
    let mut abort_buckets: Vec<u64> = (0..RULE_BUCKETS).collect();
    let mut modify_buckets: Vec<u64> = (0..RULE_BUCKETS).collect();
    rng.shuffle(&mut globs);
    rng.shuffle(&mut wildcards);
    rng.shuffle(&mut abort_buckets);
    rng.shuffle(&mut modify_buckets);
    let mut rules = Vec::with_capacity(200);
    for slot in 0..50 {
        for glob in &globs[2 * slot..2 * slot + 2] {
            rules.push(
                Rule::abort(CLIENT, SERVER, AbortKind::Status(500))
                    .with_pattern(format!("test-*-n{glob:02}x").as_str()),
            );
        }
        rules.push(
            Rule::delay("*", SERVER, Duration::from_secs(1))
                .with_pattern(format!("test-w{:02}-*", wildcards[slot]).as_str())
                .with_side(if slot % 2 == 0 {
                    MessageSide::Request
                } else {
                    MessageSide::Response
                }),
        );
        rules.push(if slot % 2 == 0 {
            Rule::abort(CLIENT, SERVER, AbortKind::Status(503))
                .with_pattern(format!("test-a-{:02}-*", abort_buckets[slot / 2]).as_str())
        } else {
            Rule::modify(CLIENT, SERVER, MODIFY_SEARCH, MODIFY_REPLACE)
                .with_pattern(format!("test-m-{:02}-*", modify_buckets[slot / 2]).as_str())
        });
    }

    ProxyInputs {
        requests,
        backend_body: body,
        modified_body: modified,
        rules,
    }
}

// ---------------------------------------------------------------------
// observe_pipeline
// ---------------------------------------------------------------------

/// Events per burst: one full batch of the sink's default configuration.
pub const BURST_EVENTS: usize = 128;

/// Timestamp all synthetic events count from (2023-11-14T22:13:20Z), so
/// that logs do not depend on when the benchmark runs.
const EPOCH_US: u64 = 1_700_000_000_000_000;

/// The request ID of event `k` of burst `burst` of `producer`; the
/// burst's last ID is what visibility is checked on.
pub fn burst_event_id(producer: usize, burst: usize, k: usize) -> String {
    format!("test-b{producer}-{burst:05}-{:03}", k / 2)
}

/// Burst `burst` of `producer`: 64 request/response pairs on the
/// `client -> server` edge with seeded latencies and statuses.
pub fn event_burst(seed: u64, producer: usize, burst: usize) -> Vec<Event> {
    let mut rng = Rng::new(seed, 3 + ((producer as u64) << 32) + ((burst as u64) << 8));
    let base = EPOCH_US + (burst as u64) * 1_000_000 + producer as u64;
    let agent = format!("agent-{producer}");
    (0..BURST_EVENTS)
        .map(|k| {
            let id = burst_event_id(producer, burst, k);
            let at = base + (k as u64) * 1_000;
            let event = if k % 2 == 0 {
                Event::request(CLIENT, SERVER, "GET", format!("/item/{}", rng.below(1000)))
            } else {
                let status = if rng.percent(5) { 503 } else { 200 };
                Event::response(
                    CLIENT,
                    SERVER,
                    status,
                    Duration::from_micros(rng.between(200, 20_000)),
                )
            };
            event
                .with_request_id(id)
                .with_timestamp(at)
                .with_agent(agent.as_str())
        })
        .collect()
}

// ---------------------------------------------------------------------
// recipe_verdict
// ---------------------------------------------------------------------

/// Services of the tree: `svc-0` … `svc-14` (binary tree of depth 3).
pub const TREE_SERVICES: usize = 15;
/// The traffic source above the root.
pub const USER: &str = "user";
/// Flows recorded per edge, before retries.
pub const FLOWS_PER_EDGE: usize = 160;

/// `HasTimeouts` bound used by every cycle.
pub const TIMEOUT_BOUND: Duration = Duration::from_millis(100);
/// `HasLatencySlo` quantile and bound used by every cycle.
pub const SLO_QUANTILE: f64 = 0.99;
/// See [`SLO_QUANTILE`].
pub const SLO_BOUND: Duration = Duration::from_millis(50);
/// `HasBoundedRetries` budget used by every cycle.
pub const MAX_TRIES: usize = 3;

/// Name of tree service `index`.
pub fn service_name(index: usize) -> String {
    format!("svc-{index}")
}

/// The caller of tree service `index`: its parent, or `user` for the
/// root.
pub fn caller_of(index: usize) -> String {
    if index == 0 {
        USER.to_string()
    } else {
        service_name((index - 1) / 2)
    }
}

/// How one service's inbound edge was made to behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServicePlan {
    /// Every reply within [`TIMEOUT_BOUND`].
    pub timeouts_ok: bool,
    /// p99 of replies within [`SLO_BOUND`].
    pub slo_ok: bool,
    /// At least one failed flow, none over [`MAX_TRIES`] requests.
    pub retries_ok: bool,
    /// At least one failed flow exists (else the retry check is
    /// inconclusive and fails).
    pub retries_exercised: bool,
}

/// The synthetic observation log of the 15-service tree and the
/// verdicts it must produce.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeLog {
    /// The log, in recording order.
    pub events: Vec<Event>,
    /// What was planned per service, index = service number.
    pub plans: Vec<ServicePlan>,
}

impl TreeLog {
    /// The verdicts a cycle must reach: per service, in service order,
    /// `has_timeouts`, `has_bounded_retries`, `has_latency_slo`.
    pub fn expected_verdicts(&self) -> Vec<bool> {
        self.plans
            .iter()
            .flat_map(|plan| [plan.timeouts_ok, plan.retries_ok, plan.slo_ok])
            .collect()
    }
}

/// Builds the log of [`FLOWS_PER_EDGE`] test flows. A flow's request ID
/// is propagated down the whole tree, as Gremlin's agents see it: every
/// flow crosses all 15 edges, one request/reply pair per edge with a
/// latency of 1–40 ms. Then the seeded defects, per service: one 250 ms
/// reply (breaks the timeout), 3 % of replies at 60–90 ms (breaks the
/// SLO, not the timeout), and either no failed flow (retry check
/// inconclusive), one retried once (within budget), or one retried four
/// times (over budget).
pub fn tree_log(seed: u64) -> TreeLog {
    let mut rng = Rng::new(seed, 4);
    struct Edge {
        src: String,
        dst: String,
        agent: String,
        slow_flow: usize,
        failing_flow: usize,
    }
    let mut plans = Vec::with_capacity(TREE_SERVICES);
    let mut edges = Vec::with_capacity(TREE_SERVICES);
    for index in 0..TREE_SERVICES {
        let (retries_exercised, retries_ok) = match rng.below(5) {
            0 => (false, false),
            1 => (true, false),
            _ => (true, true),
        };
        plans.push(ServicePlan {
            timeouts_ok: rng.percent(80),
            slo_ok: rng.percent(80),
            retries_ok,
            retries_exercised,
        });
        let src = caller_of(index);
        edges.push(Edge {
            agent: format!("agent-{src}"),
            src,
            dst: service_name(index),
            slow_flow: rng.below(FLOWS_PER_EDGE as u64) as usize,
            failing_flow: rng.below(FLOWS_PER_EDGE as u64) as usize,
        });
    }

    let mut events = Vec::new();
    let mut clock = EPOCH_US;
    for flow in 0..FLOWS_PER_EDGE {
        let id = format!("test-{flow:04}");
        for (edge, plan) in edges.iter().zip(&plans) {
            let mut exchange = |status: u16, latency_us: u64| {
                clock += 50;
                events.push(
                    Event::request(edge.src.as_str(), edge.dst.as_str(), "GET", "/tree")
                        .with_request_id(id.as_str())
                        .with_timestamp(clock)
                        .with_agent(edge.agent.as_str()),
                );
                clock += latency_us;
                events.push(
                    Event::response(
                        edge.src.as_str(),
                        edge.dst.as_str(),
                        status,
                        Duration::from_micros(latency_us),
                    )
                    .with_request_id(id.as_str())
                    .with_timestamp(clock)
                    .with_agent(edge.agent.as_str()),
                );
            };
            if plan.retries_exercised && flow == edge.failing_flow {
                let failures = if plan.retries_ok { 1 } else { MAX_TRIES + 1 };
                for _ in 0..failures {
                    exchange(503, rng.between(500, 2_000));
                }
            }
            let latency_us = if !plan.timeouts_ok && flow == edge.slow_flow {
                250_000
            } else if !plan.slo_ok && flow % 33 == 1 {
                rng.between(60_000, 90_000)
            } else {
                rng.between(1_000, 40_000)
            };
            exchange(200, latency_us);
        }
    }
    TreeLog { events, plans }
}

/// What one recipe cycle stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CyclePlan {
    /// Tree service the scenario targets (`1..15`; the root is left
    /// out because its caller, `user`, has no agent).
    pub target: usize,
    /// `Scenario::overload(target)` when set, else a `Scenario::delay`
    /// on the edge into `target`.
    pub overload: bool,
}

impl CyclePlan {
    /// Rules the scenario translates to: overload is an abort plus a
    /// delay on the one inbound edge, delay is one rule.
    pub fn expected_installations(self) -> usize {
        if self.overload {
            2
        } else {
            1
        }
    }
}

/// The scenarios of one round's cycles.
pub fn cycle_plans(seed: u64, cycles: usize) -> Vec<CyclePlan> {
    let mut rng = Rng::new(seed, 5);
    (0..cycles)
        .map(|_| CyclePlan {
            target: rng.between(1, TREE_SERVICES as u64 - 1) as usize,
            overload: rng.percent(50),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(events: &[Event]) -> String {
        serde_json::to_string(events).unwrap()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(passthrough_inputs(7, 50), passthrough_inputs(7, 50));
        assert_ne!(passthrough_inputs(7, 50), passthrough_inputs(8, 50));

        let a = faulted_inputs(7, 200);
        assert_eq!(a, faulted_inputs(7, 200));
        let b = faulted_inputs(8, 200);
        assert_ne!(a.requests, b.requests);
        assert_ne!(a.backend_body, b.backend_body);
        assert_ne!(
            serde_json::to_string(&a.rules).unwrap(),
            serde_json::to_string(&b.rules).unwrap()
        );

        assert_eq!(json(&event_burst(7, 0, 3)), json(&event_burst(7, 0, 3)));
        assert_ne!(json(&event_burst(7, 0, 3)), json(&event_burst(8, 0, 3)));
        assert_ne!(json(&event_burst(7, 0, 3)), json(&event_burst(7, 1, 3)));
        assert_ne!(json(&event_burst(7, 0, 3)), json(&event_burst(7, 0, 4)));

        assert_eq!(json(&tree_log(7).events), json(&tree_log(7).events));
        assert_ne!(json(&tree_log(7).events), json(&tree_log(8).events));
        assert_eq!(cycle_plans(7, 40), cycle_plans(7, 40));
        assert_ne!(cycle_plans(7, 40), cycle_plans(8, 40));
    }

    #[test]
    fn passthrough_requests_are_minimal_and_unique() {
        let inputs = passthrough_inputs(DEFAULT_SEED, 100);
        assert!(inputs.rules.is_empty());
        assert_eq!(inputs.backend_body, b"ok");
        let first = String::from_utf8(inputs.requests[0].bytes.clone()).unwrap();
        assert!(first.starts_with("GET / HTTP/1.1\r\n"));
        assert!(first.ends_with("\r\n\r\n"));
        assert!(first.contains(&format!("X-Gremlin-ID: {}\r\n", inputs.requests[0].id)));
        let mut ids: Vec<&str> = inputs.requests.iter().map(|r| r.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100);
        assert_eq!(class_counts(&inputs.requests), [100, 0, 0]);
    }

    #[test]
    fn faulted_mix_body_and_rules_have_the_stated_shape() {
        let inputs = faulted_inputs(DEFAULT_SEED, 4000);
        let [pass, abort, modify] = class_counts(&inputs.requests);
        assert_eq!(pass + abort + modify, 4000);
        assert!((1800..2200).contains(&pass), "pass {pass}");
        assert!((850..1150).contains(&abort), "abort {abort}");
        assert!((850..1150).contains(&modify), "modify {modify}");
        for request in &inputs.requests {
            assert_eq!(IdClass::of_id(&request.id), Some(request.class));
        }

        assert_eq!(inputs.backend_body.len(), FAULTED_BODY_BYTES);
        assert_eq!(inputs.modified_body.len(), FAULTED_BODY_BYTES);
        assert_ne!(inputs.backend_body, inputs.modified_body);
        let modified = String::from_utf8(inputs.modified_body.clone()).unwrap();
        assert!(!modified.contains(MODIFY_SEARCH) && modified.contains(MODIFY_REPLACE));

        assert_eq!(inputs.rules.len(), 200);
        let wildcard_src = inputs.rules.iter().filter(|r| r.src == "*").count();
        assert_eq!(wildcard_src, 50);
        // Every ID meets exactly the rule its class predicts, on the
        // side that rule acts on, and nothing else.
        for request in inputs.requests.iter().take(500) {
            let hits: Vec<&Rule> = inputs
                .rules
                .iter()
                .filter(|rule| rule.matches(CLIENT, SERVER, rule.on, Some(&request.id)))
                .collect();
            match request.class {
                IdClass::Pass => assert!(hits.is_empty()),
                IdClass::Abort => {
                    assert_eq!(hits.len(), 1);
                    assert_eq!(hits[0].on, MessageSide::Request);
                }
                IdClass::Modify => {
                    assert_eq!(hits.len(), 1);
                    assert_eq!(hits[0].on, MessageSide::Response);
                }
            }
        }
    }

    #[test]
    fn bursts_are_one_batch_of_paired_events() {
        let burst = event_burst(DEFAULT_SEED, 1, 2);
        assert_eq!(burst.len(), BURST_EVENTS);
        assert!(burst[0].kind.is_request() && burst[1].kind.is_response());
        assert_eq!(burst[0].request_id, burst[1].request_id);
        assert_eq!(
            burst[BURST_EVENTS - 1].request_id.as_deref(),
            Some(burst_event_id(1, 2, BURST_EVENTS - 1).as_str())
        );
        assert!(burst
            .windows(2)
            .all(|w| w[0].timestamp_us < w[1].timestamp_us));
    }

    #[test]
    fn tree_log_covers_every_edge_and_plans_mix_outcomes() {
        let log = tree_log(DEFAULT_SEED);
        assert_eq!(log.plans.len(), TREE_SERVICES);
        assert_eq!(log.expected_verdicts().len(), 3 * TREE_SERVICES);
        assert!(log.events.len() >= 2 * FLOWS_PER_EDGE * TREE_SERVICES);
        for index in 0..TREE_SERVICES {
            let dst = service_name(index);
            let src = caller_of(index);
            let on_edge = log
                .events
                .iter()
                .filter(|e| e.dst == dst.as_str() && e.src == src.as_str())
                .count();
            assert!(on_edge >= 2 * FLOWS_PER_EDGE, "edge into {dst}: {on_edge}");
        }
        assert_eq!(caller_of(0), USER);
        assert_eq!(caller_of(1), "svc-0");
        assert_eq!(caller_of(14), "svc-6");
        // Across a few seeds both outcomes of every check occur.
        let verdicts: Vec<bool> = (0..8)
            .flat_map(|s| tree_log(s).expected_verdicts())
            .collect();
        for check in 0..3 {
            let of_check: Vec<bool> = verdicts.iter().skip(check).step_by(3).copied().collect();
            assert!(of_check.contains(&true) && of_check.contains(&false));
        }
    }

    #[test]
    fn cycle_plans_never_target_the_root() {
        let plans = cycle_plans(DEFAULT_SEED, 500);
        assert!(plans.iter().all(|p| (1..TREE_SERVICES).contains(&p.target)));
        assert!(plans.iter().any(|p| p.overload) && plans.iter().any(|p| !p.overload));
    }
}
