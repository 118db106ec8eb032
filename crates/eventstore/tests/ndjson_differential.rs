//! Differential tests for the `Event` line codec: `ndjson::write_line`
//! must emit the bytes of the serde derive, and `ndjson::read_line` —
//! fast path or fallback — must answer what `serde_json::from_slice`
//! answers on the same bytes, for the lines the codec writes and for
//! every way a line can differ from them.
//!
//! Events come from a seeded SplitMix64 generator rather than proptest
//! so the tests run wherever the crate builds (the offline proptest
//! stand-in is empty).

use std::time::Duration;

use gremlin_store::ndjson::{read_fast, read_line, write_line};
use gremlin_store::{AppliedFault, Event, EventKind};

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

const EVENTS: usize = 2400;

/// What agents put in names, IDs, methods and URIs.
const PLAIN: [&str; 8] = [
    "serviceA",
    "test-",
    "GET",
    "/item/42?q=1",
    "agent-0",
    "00aa11bb22cc33dd",
    "~ {}[]:,'",
    "\u{7f}",
];

/// What they do not, and a codec must survive: the two characters JSON
/// always escapes, control characters with and without a short form,
/// two- and three-byte UTF-8, and astral code points.
const HOSTILE: [&str; 10] = [
    "\"",
    "\\",
    "\n\r\t",
    "\u{8}\u{c}",
    "\u{0}\u{1}\u{1f}",
    "é",
    "日本",
    "😀",
    "𝄞",
    "\\u0041",
];

fn text(rng: &mut SplitMix, hostile: bool) -> String {
    let mut out = String::new();
    for _ in 0..rng.below(4) {
        let pool: &[&str] = if hostile && rng.chance(60) {
            &HOSTILE
        } else {
            &PLAIN
        };
        out.push_str(pool[rng.below(pool.len() as u64) as usize]);
    }
    out
}

fn number(rng: &mut SplitMix) -> u64 {
    match rng.below(5) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.below(10),
        3 => rng.below(1 << 20),
        _ => rng.next(),
    }
}

fn status(rng: &mut SplitMix) -> u16 {
    *rng.pick(&[0, 200, 404, 503, 599, u16::MAX])
}

/// One event; every field takes every shape it can. `hostile` events
/// carry strings that need escaping, plain ones never do.
fn random_event(rng: &mut SplitMix, hostile: bool) -> Event {
    let mut event = if rng.chance(50) {
        Event::request(
            text(rng, hostile),
            text(rng, hostile),
            text(rng, hostile),
            text(rng, hostile),
        )
    } else {
        let mut event = Event::response(
            text(rng, hostile),
            text(rng, hostile),
            status(rng),
            Duration::ZERO,
        );
        if let EventKind::Response { latency_us, .. } = &mut event.kind {
            *latency_us = number(rng);
        }
        event
    }
    .with_timestamp(number(rng))
    .with_agent(text(rng, hostile));
    if rng.chance(70) {
        event = event.with_request_id(text(rng, hostile));
    }
    if rng.chance(50) {
        event = event.with_span_id(text(rng, hostile));
    }
    if rng.chance(50) {
        event = event.with_parent_id(text(rng, hostile));
    }
    match rng.below(6) {
        0 => event.with_fault(AppliedFault::Abort {
            status: status(rng),
        }),
        1 => event.with_fault(AppliedFault::AbortReset),
        2 => event.with_fault(AppliedFault::Delay {
            delay_us: number(rng),
        }),
        3 => event.with_fault(AppliedFault::Modify),
        _ => event,
    }
}

/// The seeded corpus: plain and hostile events, alternating.
fn corpus(seed: u64) -> Vec<(Event, bool)> {
    let mut rng = SplitMix(seed);
    (0..EVENTS)
        .map(|index| {
            let hostile = index % 2 == 1;
            (random_event(&mut rng, hostile), hostile)
        })
        .collect()
}

fn encoded(event: &Event) -> Vec<u8> {
    let mut out = Vec::new();
    write_line(event, &mut out);
    assert_eq!(out.pop(), Some(b'\n'));
    out
}

/// `read_line` against the derive on the same bytes — the same event,
/// or an error from both — and, whenever the fast path answers at all,
/// its answer against the derive's. Returns the derive's answer.
fn agrees(line: &[u8]) -> Option<Event> {
    let derive = serde_json::from_slice::<Event>(line).ok();
    let shown = String::from_utf8_lossy(line);
    assert_eq!(read_line(line).ok(), derive, "read_line on {shown}");
    if let Some(fast) = read_fast(line) {
        assert_eq!(Some(fast), derive, "read_fast on {shown}");
    }
    derive
}

// ---------------------------------------------------------------------
// A line as a tree the tests can rearrange before rendering it.
// ---------------------------------------------------------------------

#[derive(Clone)]
enum Json {
    /// Rendered as is: a number, `null`, a quoted string.
    Raw(String),
    Object(Vec<(String, Json)>),
}

fn quoted(text: &str) -> Json {
    Json::Raw(serde_json::to_string(text).unwrap())
}

/// `text` with every character as a `\uXXXX` escape, astral ones as a
/// surrogate pair.
fn escaped(text: &str) -> Json {
    let mut out = String::from("\"");
    for unit in text.encode_utf16() {
        out.push_str(&format!("\\u{unit:04x}"));
    }
    out.push('"');
    Json::Raw(out)
}

fn object(pairs: Vec<(&str, Json)>) -> Json {
    Json::Object(
        pairs
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// `event` in the codec's key order; strings through `string`.
fn tree(event: &Event, string: fn(&str) -> Json) -> Json {
    let optional = |name: &Option<gremlin_store::Name>| match name {
        Some(name) => string(name),
        None => Json::Raw("null".to_string()),
    };
    let number = |value: u64| Json::Raw(value.to_string());
    let kind = match &event.kind {
        EventKind::Request { method, uri } => object(vec![
            ("type", quoted("request")),
            ("method", string(method)),
            ("uri", string(uri)),
        ]),
        EventKind::Response { status, latency_us } => object(vec![
            ("type", quoted("response")),
            ("status", number(u64::from(*status))),
            ("latency_us", number(*latency_us)),
        ]),
    };
    let fault = match &event.fault {
        None => Json::Raw("null".to_string()),
        Some(AppliedFault::Abort { status }) => object(vec![
            ("action", quoted("abort")),
            ("status", number(u64::from(*status))),
        ]),
        Some(AppliedFault::AbortReset) => object(vec![("action", quoted("abort_reset"))]),
        Some(AppliedFault::Delay { delay_us }) => object(vec![
            ("action", quoted("delay")),
            ("delay_us", number(*delay_us)),
        ]),
        Some(AppliedFault::Modify) => object(vec![("action", quoted("modify"))]),
    };
    let mut pairs = vec![
        ("timestamp_us", number(event.timestamp_us)),
        ("request_id", optional(&event.request_id)),
        ("src", string(&event.src)),
        ("dst", string(&event.dst)),
        ("kind", kind),
        ("fault", fault),
        ("agent", string(&event.agent)),
    ];
    if event.span_id.is_some() {
        pairs.push(("span_id", optional(&event.span_id)));
    }
    if event.parent_id.is_some() {
        pairs.push(("parent_id", optional(&event.parent_id)));
    }
    object(pairs)
}

/// Renders `json`, asking `gap` what to put around every token.
fn render(json: &Json, gap: &mut dyn FnMut() -> &'static str, out: &mut String) {
    match json {
        Json::Raw(raw) => out.push_str(raw),
        Json::Object(pairs) => {
            out.push('{');
            for (index, (key, value)) in pairs.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                out.push_str(gap());
                out.push_str(&serde_json::to_string(key).unwrap());
                out.push_str(gap());
                out.push(':');
                out.push_str(gap());
                render(value, gap, out);
                out.push_str(gap());
            }
            out.push('}');
        }
    }
}

fn compact(json: &Json) -> String {
    let mut out = String::new();
    render(json, &mut || "", &mut out);
    out
}

fn pairs_mut(json: &mut Json) -> &mut Vec<(String, Json)> {
    match json {
        Json::Object(pairs) => pairs,
        Json::Raw(raw) => panic!("{raw} is not an object"),
    }
}

/// The nested objects of a line: `kind`, and `fault` when it is not
/// `null`.
fn objects_mut(json: &mut Json) -> Vec<&mut Vec<(String, Json)>> {
    pairs_mut(json)
        .iter_mut()
        .filter_map(|(_, value)| match value {
            Json::Object(pairs) => Some(pairs),
            Json::Raw(_) => None,
        })
        .collect()
}

/// The line's own pairs or those of its last nested object, by coin.
fn some_object<'a>(rng: &mut SplitMix, json: &'a mut Json) -> &'a mut Vec<(String, Json)> {
    if rng.chance(50) {
        pairs_mut(json)
    } else {
        objects_mut(json).pop().expect("`kind` is an object")
    }
}

/// Fisher–Yates; with `tag_last`, the enum tag of a nested object goes
/// to the end, where the derive has to buffer everything before it.
fn shuffle(rng: &mut SplitMix, pairs: &mut [(String, Json)], tag_last: bool) {
    for index in (1..pairs.len()).rev() {
        pairs.swap(index, rng.below(index as u64 + 1) as usize);
    }
    if tag_last {
        if let Some(at) = pairs
            .iter()
            .position(|(key, _)| key == "type" || key == "action")
        {
            let last = pairs.len() - 1;
            pairs.swap(at, last);
        }
    }
}

fn shuffled(rng: &mut SplitMix, json: &Json) -> Json {
    let mut json = json.clone();
    let tag_last = rng.chance(50);
    shuffle(rng, pairs_mut(&mut json), false);
    for pairs in objects_mut(&mut json) {
        shuffle(rng, pairs, tag_last);
    }
    json
}

// ---------------------------------------------------------------------
// (a) write_line
// ---------------------------------------------------------------------

#[test]
fn write_line_emits_the_bytes_of_the_derive() {
    let (mut requests, mut responses, mut faults, mut with_id, mut with_span) =
        (0, 0, [0; 5], 0, 0);
    for (event, _) in corpus(2016) {
        let mut expected = serde_json::to_string(&event).unwrap().into_bytes();
        expected.push(b'\n');
        let mut line = Vec::new();
        write_line(&event, &mut line);
        assert_eq!(
            String::from_utf8_lossy(&line),
            String::from_utf8_lossy(&expected)
        );
        // Appending: a second event lands after the first, untouched.
        write_line(&event, &mut line);
        assert_eq!(line, [expected.clone(), expected].concat());

        match event.kind {
            EventKind::Request { .. } => requests += 1,
            EventKind::Response { .. } => responses += 1,
        }
        faults[match event.fault {
            None => 0,
            Some(AppliedFault::Abort { .. }) => 1,
            Some(AppliedFault::AbortReset) => 2,
            Some(AppliedFault::Delay { .. }) => 3,
            Some(AppliedFault::Modify) => 4,
        }] += 1;
        with_id += usize::from(event.request_id.is_some());
        with_span += usize::from(event.span_id.is_some() || event.parent_id.is_some());
    }
    // The corpus covers what it claims to.
    assert!(requests > 500 && responses > 500, "{requests}/{responses}");
    assert!(faults.iter().all(|&count| count > 100), "{faults:?}");
    assert!(with_id > 500 && with_id < EVENTS - 500);
    assert!(with_span > 500 && with_span < EVENTS - 100);
}

/// The test's own renderer writes what the codec writes, so the
/// rearranged lines below differ from real ones only where intended.
#[test]
fn the_tree_renders_the_canonical_line() {
    for (event, _) in corpus(2017) {
        let line = encoded(&event);
        assert_eq!(
            compact(&tree(&event, quoted)),
            String::from_utf8(line).unwrap()
        );
    }
}

// ---------------------------------------------------------------------
// (b) read_line, valid lines
// ---------------------------------------------------------------------

/// (d) too: the fast path answers every line `write_line` produced from
/// strings that need no escaping — the shape agents emit — and steps
/// aside, for the derive to give the same event, exactly when a line
/// carries an escape.
#[test]
fn emitted_lines_read_back_and_the_fast_path_serves_the_plain_ones() {
    let (mut fast, mut fallback) = (0, 0);
    for (event, hostile) in corpus(2018) {
        let line = encoded(&event);
        assert_eq!(agrees(&line), Some(event.clone()));
        let has_escape = line.contains(&b'\\');
        assert!(hostile || !has_escape);
        assert_eq!(read_fast(&line).is_some(), !has_escape, "{event:?}");
        if has_escape {
            fallback += 1;
        } else {
            fast += 1;
        }
    }
    assert!(fast >= EVENTS / 2, "{fast} lines on the fast path");
    assert!(fallback > EVENTS / 4, "{fallback} lines with escapes");
}

#[test]
fn shuffled_keys_read_back() {
    let mut rng = SplitMix(7);
    for (event, _) in corpus(2019) {
        let line = compact(&shuffled(&mut rng, &tree(&event, quoted)));
        assert_eq!(agrees(line.as_bytes()), Some(event.clone()), "{line}");
        // Key order is not a reason to abstain.
        assert_eq!(
            read_fast(line.as_bytes()).is_some(),
            !line.contains('\\'),
            "{line}"
        );
    }
}

#[test]
fn inserted_whitespace_reads_back() {
    let mut rng = SplitMix(11);
    for (event, _) in corpus(2020) {
        let mut line = String::new();
        let mut gap = || *rng.pick(&["", "", " ", "\t", "\r\n", "  \n"]);
        render(&tree(&event, quoted), &mut gap, &mut line);
        assert_eq!(agrees(line.as_bytes()), Some(event.clone()), "{line}");
        // Around the whole line as well.
        let padded = format!(" {line}\t\n");
        assert_eq!(agrees(padded.as_bytes()), Some(event), "{padded}");
    }
}

#[test]
fn unknown_keys_with_nested_values_are_ignored_alike() {
    let mut rng = SplitMix(13);
    let extra = Json::Raw(r#"{"a":[1,{"b":null}],"c":"}\"{","d":-1.5e3}"#.to_string());
    for (event, _) in corpus(2021) {
        let mut json = tree(&event, quoted);
        let target = some_object(&mut rng, &mut json);
        let at = rng.below(target.len() as u64 + 1) as usize;
        target.insert(at, ("extra".to_string(), extra.clone()));
        let line = compact(&json);
        assert_eq!(agrees(line.as_bytes()), Some(event), "{line}");
        assert_eq!(read_fast(line.as_bytes()), None, "{line}");
    }
}

#[test]
fn unicode_escapes_and_surrogate_pairs_read_back() {
    for (event, _) in corpus(2022) {
        let line = compact(&tree(&event, escaped));
        assert_eq!(agrees(line.as_bytes()), Some(event), "{line}");
    }
    // `é` and an astral code point, spelled out.
    let line = br#"{"timestamp_us":1,"request_id":"t\u00e9\ud83d\ude00","src":"a","dst":"b","kind":{"type":"request","method":"GET","uri":"/"},"fault":null,"agent":""}"#;
    let event = agrees(line).expect("valid");
    assert_eq!(event.request_id.as_deref(), Some("té😀"));
    // Half a pair is an error for both.
    let lone = String::from_utf8_lossy(line).replace("\\ude00", "");
    assert_eq!(agrees(lone.as_bytes()), None);
}

#[test]
fn legacy_span_less_line_reads_back() {
    // The log line of `event.rs`'s `legacy_json_without_spans_still_parses`.
    let line = br#"{"timestamp_us":1,"request_id":"test-1","src":"a","dst":"b",
            "kind":{"type":"request","method":"GET","uri":"/x"},"fault":null,"agent":"a-1"}"#;
    let event = agrees(line).expect("valid");
    assert_eq!(event.span_id, None);
    assert_eq!(event.parent_id, None);
    // Explicit nulls mean the same.
    let line = br#"{"timestamp_us":1,"request_id":null,"src":"a","dst":"b","kind":{"type":"request","method":"GET","uri":"/x"},"fault":null,"agent":"a-1","span_id":null,"parent_id":null}"#;
    let event = agrees(line).expect("valid");
    assert_eq!(
        (event.request_id, event.span_id, event.parent_id),
        (None, None, None)
    );
}

// ---------------------------------------------------------------------
// (b) read_line, lines that differ from what the codec writes in ways
// the derive may or may not accept: whatever it says, `read_line` says.
// ---------------------------------------------------------------------

#[test]
fn duplicate_and_missing_keys_are_judged_by_the_derive() {
    let mut rng = SplitMix(17);
    for (event, _) in corpus(2023) {
        let canonical = tree(&event, quoted);

        // A duplicate, at the top level or in a nested object, next to
        // the original or at the far end, with the same value.
        let mut json = canonical.clone();
        let target = some_object(&mut rng, &mut json);
        let pair = rng.pick(target).clone();
        if rng.chance(50) {
            target.push(pair);
        } else {
            target.insert(0, pair);
        }
        let line = compact(&json);
        agrees(line.as_bytes());
        assert_eq!(read_fast(line.as_bytes()), None, "{line}");

        // One key gone.
        let mut json = canonical;
        let target = some_object(&mut rng, &mut json);
        let (key, _) = target.remove(rng.below(target.len() as u64) as usize);
        let line = compact(&json);
        let parsed = agrees(line.as_bytes());
        if !["span_id", "parent_id"].contains(&key.as_str()) {
            // Nothing else is the fast path's to default.
            assert_eq!(read_fast(line.as_bytes()), None, "{line}");
        }
        let required = [
            "timestamp_us",
            "src",
            "dst",
            "kind",
            "agent",
            "type",
            "action",
            "method",
            "uri",
            "status",
            "latency_us",
            "delay_us",
        ];
        if required.contains(&key.as_str()) {
            assert_eq!(parsed, None, "{line}");
        }
    }
}

/// Replaces the value of the first `"key":` in `line` — only ever a
/// number or `null` here, so the value ends at the next `,` or `}`.
fn with_value(line: &str, key: &str, value: &str) -> Option<String> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let len = line[start..].find([',', '}'])?;
    Some(format!("{}{value}{}", &line[..start], &line[start + len..]))
}

#[test]
fn numbers_that_are_not_plain_integers_are_judged_by_the_derive() {
    let spellings = [
        "1.0",
        "1e3",
        "1E3",
        "01",
        "00",
        "-1",
        "-0",
        "+1",
        "1.",
        ".5",
        "0x10",
        "1_000",
        "",
        "\"1\"",
        "true",
        "null",
        "[1]",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999",
        "65535",
        "65536",
        "70000",
        "4294967296",
    ];
    // Plain events only: `with_value` looks for keys by text.
    let events: Vec<Event> = corpus(2024)
        .into_iter()
        .filter(|(_, hostile)| !hostile)
        .map(|(event, _)| event)
        .take(200)
        .collect();
    let (mut accepted, mut refused) = (0, 0);
    for event in &events {
        let line = String::from_utf8(encoded(event)).unwrap();
        for key in ["timestamp_us", "status", "latency_us", "delay_us"] {
            for spelling in spellings {
                let Some(changed) = with_value(&line, key, spelling) else {
                    continue;
                };
                match agrees(changed.as_bytes()) {
                    Some(_) => accepted += 1,
                    None => refused += 1,
                }
            }
        }
    }
    assert!(accepted > 100 && refused > 1000, "{accepted}/{refused}");

    // The out-of-range cases by name: a status above `u16::MAX` and a
    // timestamp above `u64::MAX` are errors, the maxima are not.
    let line = String::from_utf8(encoded(
        &Event::response("a", "b", 200, Duration::from_micros(5))
            .with_timestamp(9)
            .with_fault(AppliedFault::Abort { status: 503 }),
    ))
    .unwrap();
    for (key, value, valid) in [
        ("status", "65535", true),
        ("status", "65536", false),
        ("status", "70000", false),
        ("timestamp_us", "18446744073709551615", true),
        ("timestamp_us", "18446744073709551616", false),
        ("latency_us", "1.0", false),
        ("latency_us", "1e3", false),
        ("latency_us", "01", false),
        ("latency_us", "-1", false),
    ] {
        let changed = with_value(&line, key, value).unwrap();
        assert_eq!(agrees(changed.as_bytes()).is_some(), valid, "{changed}");
        assert_eq!(read_fast(changed.as_bytes()).is_some(), valid, "{changed}");
    }
}

#[test]
fn trailing_bytes_and_broken_strings_are_judged_by_the_derive() {
    for (event, _) in corpus(2025).into_iter().take(400) {
        let line = encoded(&event);
        for tail in [&b"x"[..], b"}", b"{}", b",", b"\0", b"null", b"\xff", b" x"] {
            let changed = [&line[..], tail].concat();
            assert_eq!(
                agrees(&changed),
                None,
                "{:?}",
                String::from_utf8_lossy(&changed)
            );
        }
        // Whitespace after the object is not garbage.
        assert_eq!(agrees(&[&line[..], b" \r\n"].concat()), Some(event));
    }
    // Bytes no string may hold, where a plain line holds a string.
    let line = br#"{"timestamp_us":1,"request_id":"test-1","src":"a","dst":"b","kind":{"type":"request","method":"GET","uri":"/x"},"fault":null,"agent":"a-1"}"#;
    assert!(agrees(line).is_some());
    let at = line.iter().position(|&byte| byte == b'-').unwrap();
    for bad in [0xffu8, 0xc3, 0x80, 0x00, 0x1f, b'\n', b'"'] {
        let mut changed = line.to_vec();
        changed[at] = bad;
        assert_eq!(agrees(&changed), None, "byte {bad:#x}");
        assert_eq!(read_fast(&changed), None, "byte {bad:#x}");
    }
    // Not an object at all.
    for line in [
        &b""[..],
        b"null",
        b"[]",
        b"{}",
        b"\"x\"",
        b"0",
        b"{",
        b"}",
        b"not json",
    ] {
        assert_eq!(agrees(line), None);
        assert_eq!(read_fast(line), None);
    }
}

// ---------------------------------------------------------------------
// (c) truncation
// ---------------------------------------------------------------------

#[test]
fn every_prefix_is_an_error_and_none_panics() {
    let request = Event::request("web", "db", "GET", "/q?x=1")
        .with_timestamp(1_700_000_000_000_000)
        .with_request_id("test-42")
        .with_agent("agent-web")
        .with_span_id("00aa11bb22cc33dd")
        .with_parent_id("ffee00aa11bb22cc");
    let faulted = Event::response("web", "db", 503, Duration::from_millis(3))
        .with_timestamp(u64::MAX)
        .with_request_id("tést-\"43\"")
        .with_fault(AppliedFault::Abort { status: 503 })
        .with_agent("agent-web");
    for event in [request, faulted] {
        let line = encoded(&event);
        assert_eq!(agrees(&line), Some(event));
        for cut in 0..line.len() {
            let prefix = &line[..cut];
            assert!(
                serde_json::from_slice::<Event>(prefix).is_err(),
                "cut {cut}"
            );
            assert!(read_line(prefix).is_err(), "cut {cut}");
            assert_eq!(read_fast(prefix), None, "cut {cut}");
        }
    }
}
