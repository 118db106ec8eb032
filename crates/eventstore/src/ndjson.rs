//! The [`Event`] line codec: how one observation looks on one line of
//! newline-delimited JSON.
//!
//! Every NDJSON site between agents and store — the HTTP sink's batch
//! body, the collector's `POST /events`, `GET /tail`, and the store's
//! export and import — goes through this module, and nothing else
//! knows the layout of a line.
//!
//! The serde derives on [`Event`], [`EventKind`] and [`AppliedFault`]
//! stay the *definition* of the format. [`write_line`] appends exactly
//! the bytes `serde_json::to_string(event)` returns, plus `\n`.
//! [`read_line`] first tries [`read_fast`], a fixed-shape reader for
//! what `write_line` emits (keys in any order); on anything else —
//! an escape, an unknown or duplicate key, a number that is not plain
//! `u64` digits, whitespace, trailing bytes — the fast reader
//! *abstains* and the untouched line goes to `serde_json::from_slice`.
//! The fast path can therefore only agree with the derive or step
//! aside; `tests/ndjson_differential.rs` holds it to that.

use crate::event::{AppliedFault, Event, EventKind};
use crate::name::Name;

/// Appends `event` as one line: the bytes of
/// `serde_json::to_string(event)` followed by `\n`.
pub fn write_line(event: &Event, out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"timestamp_us\":");
    write_u64(out, event.timestamp_us);
    out.extend_from_slice(b",\"request_id\":");
    match &event.request_id {
        Some(id) => write_string(out, id),
        None => out.extend_from_slice(b"null"),
    }
    out.extend_from_slice(b",\"src\":");
    write_string(out, &event.src);
    out.extend_from_slice(b",\"dst\":");
    write_string(out, &event.dst);
    match &event.kind {
        EventKind::Request { method, uri } => {
            out.extend_from_slice(b",\"kind\":{\"type\":\"request\",\"method\":");
            write_string(out, method);
            out.extend_from_slice(b",\"uri\":");
            write_string(out, uri);
        }
        EventKind::Response { status, latency_us } => {
            out.extend_from_slice(b",\"kind\":{\"type\":\"response\",\"status\":");
            write_u64(out, u64::from(*status));
            out.extend_from_slice(b",\"latency_us\":");
            write_u64(out, *latency_us);
        }
    }
    out.extend_from_slice(b"},\"fault\":");
    match &event.fault {
        None => out.extend_from_slice(b"null"),
        Some(AppliedFault::Abort { status }) => {
            out.extend_from_slice(b"{\"action\":\"abort\",\"status\":");
            write_u64(out, u64::from(*status));
            out.push(b'}');
        }
        Some(AppliedFault::AbortReset) => out.extend_from_slice(b"{\"action\":\"abort_reset\"}"),
        Some(AppliedFault::Delay { delay_us }) => {
            out.extend_from_slice(b"{\"action\":\"delay\",\"delay_us\":");
            write_u64(out, *delay_us);
            out.push(b'}');
        }
        Some(AppliedFault::Modify) => out.extend_from_slice(b"{\"action\":\"modify\"}"),
    }
    out.extend_from_slice(b",\"agent\":");
    write_string(out, &event.agent);
    if let Some(span) = &event.span_id {
        out.extend_from_slice(b",\"span_id\":");
        write_string(out, span);
    }
    if let Some(parent) = &event.parent_id {
        out.extend_from_slice(b",\"parent_id\":");
        write_string(out, parent);
    }
    out.extend_from_slice(b"}\n");
}

fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    // u64::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Writes `text` quoted, escaped as `serde_json` escapes: `\"`, `\\`,
/// the five short forms, and `\u00xx` (lowercase hex) for the other
/// control characters; everything else, non-ASCII included, verbatim.
fn write_string(out: &mut Vec<u8>, text: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = text.as_bytes();
    let mut clean_from = 0;
    for (at, &byte) in bytes.iter().enumerate() {
        let short = match byte {
            b'"' => b'"',
            b'\\' => b'\\',
            0x08 => b'b',
            b'\t' => b't',
            b'\n' => b'n',
            0x0c => b'f',
            b'\r' => b'r',
            0x00..=0x1f => b'u',
            _ => continue,
        };
        out.extend_from_slice(&bytes[clean_from..at]);
        out.extend_from_slice(&[b'\\', short]);
        if short == b'u' {
            out.extend_from_slice(&[
                b'0',
                b'0',
                HEX[usize::from(byte >> 4)],
                HEX[usize::from(byte & 0xf)],
            ]);
        }
        clean_from = at + 1;
    }
    out.extend_from_slice(&bytes[clean_from..]);
    out.push(b'"');
}

/// Parses one line into an [`Event`]: [`read_fast`] when the line has
/// the shape [`write_line`] gives it, the serde derive otherwise.
///
/// # Errors
///
/// Whatever `serde_json::from_slice::<Event>(line)` returns for a line
/// the fast reader abstained on: malformed JSON, invalid UTF-8, a
/// missing field, a value of the wrong type or out of range.
pub fn read_line(line: &[u8]) -> Result<Event, serde_json::Error> {
    read_line_after(line, None)
}

/// [`read_line`] for a line that follows `prev` in a batch: the same
/// event, but where `request_id`, `src`, `dst` or `agent` carry the
/// text `prev` carries, the [`Name`] is a clone of `prev`'s instead of
/// a fresh allocation. A batch comes from one agent and a response
/// follows its request, so most names of most lines are shared and the
/// store holds one copy of each per batch. The serde fallback does not
/// look at `prev`.
///
/// # Errors
///
/// As [`read_line`].
pub fn read_line_after(line: &[u8], prev: Option<&Event>) -> Result<Event, serde_json::Error> {
    match read_fast_after(line, prev) {
        Some(event) => Ok(event),
        None => serde_json::from_slice(line),
    }
}

/// The fixed-shape reader on its own: `Some(event)` exactly when
/// `line` is one object without whitespace whose keys — in any order,
/// each at most once, none unknown — carry unescaped strings, plain
/// `u64` digits, `null`, and the two nested objects in the same form;
/// `None` (abstain) on everything else, valid or not. Whenever it
/// answers, `serde_json::from_slice` gives the same event.
///
/// Callers want [`read_line`]; this is public so that a test can tell
/// an answer from an abstention.
pub fn read_fast(line: &[u8]) -> Option<Event> {
    read_fast_after(line, None)
}

fn read_fast_after(line: &[u8], prev: Option<&Event>) -> Option<Event> {
    let mut cursor = Cursor { bytes: line, at: 0 };
    // Each field is `None` until its key is seen; a second sighting
    // abstains. `request_id`, `fault` and the span IDs may be `null`.
    let mut timestamp_us = None;
    let mut request_id = None;
    let mut src = None;
    let mut dst = None;
    let mut kind = None;
    let mut fault = None;
    let mut agent = None;
    let mut span_id = None;
    let mut parent_id = None;
    cursor.eat(b'{')?;
    loop {
        match cursor.key()? {
            b"timestamp_us" => once(&mut timestamp_us, cursor.u64()?)?,
            b"request_id" => once(&mut request_id, cursor.nullable(Cursor::string)?)?,
            b"src" => once(&mut src, cursor.string()?)?,
            b"dst" => once(&mut dst, cursor.string()?)?,
            b"kind" => once(&mut kind, cursor.kind()?)?,
            b"fault" => once(&mut fault, cursor.nullable(Cursor::fault)?)?,
            b"agent" => once(&mut agent, cursor.string()?)?,
            b"span_id" => once(&mut span_id, cursor.nullable(Cursor::string)?)?,
            b"parent_id" => once(&mut parent_id, cursor.nullable(Cursor::string)?)?,
            _ => return None,
        }
        if cursor.object_ends()? {
            break;
        }
    }
    if cursor.at != line.len() {
        return None;
    }
    // Only the span IDs may be left out (`#[serde(default)]`).
    let prev_id = prev.and_then(|prev| prev.request_id.as_ref());
    Some(Event {
        timestamp_us: timestamp_us?,
        request_id: request_id?.map(|id| name_like(prev_id, id)),
        src: name_like(prev.map(|prev| &prev.src), src?),
        dst: name_like(prev.map(|prev| &prev.dst), dst?),
        kind: kind?,
        fault: fault?,
        agent: name_like(prev.map(|prev| &prev.agent), agent?),
        span_id: span_id.flatten().map(Name::from),
        parent_id: parent_id.flatten().map(Name::from),
    })
}

/// `text` as a [`Name`]: a clone of `prev` when it holds the same
/// text, a new name otherwise.
fn name_like(prev: Option<&Name>, text: &str) -> Name {
    match prev {
        Some(prev) if prev.as_str() == text => prev.clone(),
        _ => Name::from(text),
    }
}

/// Fills `slot`, abstaining if the key was already seen.
fn once<T>(slot: &mut Option<T>, value: T) -> Option<()> {
    match slot.replace(value) {
        None => Some(()),
        Some(_) => None,
    }
}

/// A position in a line. Every method returns `None` to abstain and
/// reads through `get`, so no input can index out of bounds.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn eat(&mut self, byte: u8) -> Option<()> {
        if *self.bytes.get(self.at)? != byte {
            return None;
        }
        self.at += 1;
        Some(())
    }

    /// After a value: `,` (another key follows) or `}` (the object is
    /// complete, returns `true`).
    fn object_ends(&mut self) -> Option<bool> {
        let byte = *self.bytes.get(self.at)?;
        self.at += 1;
        match byte {
            b',' => Some(false),
            b'}' => Some(true),
            _ => None,
        }
    }

    /// The bytes between the quote at the cursor and the next one.
    /// Abstains on a backslash or a control character, so the bytes
    /// are the string's content as written.
    fn quoted(&mut self) -> Option<&'a [u8]> {
        self.eat(b'"')?;
        let rest = self.bytes.get(self.at..)?;
        let len = rest
            .iter()
            .position(|&byte| byte == b'"' || byte == b'\\' || byte < 0x20)?;
        if rest.get(len) != Some(&b'"') {
            return None;
        }
        self.at += len + 1;
        rest.get(..len)
    }

    /// `"key":`, returning the key's bytes.
    fn key(&mut self) -> Option<&'a [u8]> {
        let key = self.quoted()?;
        self.eat(b':')?;
        Some(key)
    }

    fn string(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.quoted()?).ok()
    }

    /// `null`, or whatever `value` reads.
    fn nullable<T>(&mut self, value: fn(&mut Self) -> Option<T>) -> Option<Option<T>> {
        if self.bytes.get(self.at..)?.starts_with(b"null") {
            self.at += 4;
            return Some(None);
        }
        value(self).map(Some)
    }

    /// Decimal digits as `serde_json` accepts them for an integer: at
    /// least one, no leading zero, no sign, fraction or exponent (the
    /// byte after the digits is checked by [`Cursor::object_ends`]),
    /// not above `u64::MAX`.
    fn u64(&mut self) -> Option<u64> {
        let rest = self.bytes.get(self.at..)?;
        let len = rest.iter().take_while(|byte| byte.is_ascii_digit()).count();
        let digits = rest.get(..len)?;
        if len == 0 || (len > 1 && digits.first() == Some(&b'0')) {
            return None;
        }
        let mut value = 0u64;
        for digit in digits {
            value = value
                .checked_mul(10)?
                .checked_add(u64::from(digit - b'0'))?;
        }
        self.at += len;
        Some(value)
    }

    /// The `kind` object, read flat: the tag and the variant's fields
    /// in any order, no field of the other variant.
    fn kind(&mut self) -> Option<EventKind> {
        let (mut tag, mut method, mut uri, mut status, mut latency_us) =
            (None, None, None, None, None);
        self.eat(b'{')?;
        loop {
            match self.key()? {
                b"type" => once(&mut tag, self.quoted()?)?,
                b"method" => once(&mut method, self.string()?)?,
                b"uri" => once(&mut uri, self.string()?)?,
                b"status" => once(&mut status, self.u64()?)?,
                b"latency_us" => once(&mut latency_us, self.u64()?)?,
                _ => return None,
            }
            if self.object_ends()? {
                break;
            }
        }
        match (tag?, method, uri, status, latency_us) {
            (b"request", Some(method), Some(uri), None, None) => Some(EventKind::Request {
                method: method.to_string(),
                uri: uri.to_string(),
            }),
            (b"response", None, None, Some(status), Some(latency_us)) => {
                Some(EventKind::Response {
                    status: u16::try_from(status).ok()?,
                    latency_us,
                })
            }
            _ => None,
        }
    }

    /// The `fault` object, read flat like [`Cursor::kind`].
    fn fault(&mut self) -> Option<AppliedFault> {
        let (mut tag, mut status, mut delay_us) = (None, None, None);
        self.eat(b'{')?;
        loop {
            match self.key()? {
                b"action" => once(&mut tag, self.quoted()?)?,
                b"status" => once(&mut status, self.u64()?)?,
                b"delay_us" => once(&mut delay_us, self.u64()?)?,
                _ => return None,
            }
            if self.object_ends()? {
                break;
            }
        }
        match (tag?, status, delay_us) {
            (b"abort", Some(status), None) => Some(AppliedFault::Abort {
                status: u16::try_from(status).ok()?,
            }),
            (b"abort_reset", None, None) => Some(AppliedFault::AbortReset),
            (b"delay", None, Some(delay_us)) => Some(AppliedFault::Delay { delay_us }),
            (b"modify", None, None) => Some(AppliedFault::Modify),
            _ => None,
        }
    }
}

/// The lines of an NDJSON body: split on `\n`, ASCII whitespace (the
/// `\r` of a CRLF included) trimmed from both ends, blank lines
/// skipped. A final line needs no `\n`.
pub fn lines(body: &[u8]) -> impl Iterator<Item = &[u8]> {
    body.split(|&byte| byte == b'\n')
        .map(<[u8]>::trim_ascii)
        .filter(|line| !line.is_empty())
}

/// How many events to make room for before reading `body`: its line
/// count, but no more than one per [`MIN_LINE_LEN`] bytes, so that a
/// body of newlines reserves nothing it did not pay for in bytes.
pub fn capacity_hint(body: &[u8]) -> usize {
    let newlines = body.iter().filter(|&&byte| byte == b'\n').count();
    (newlines + 1).min(body.len() / MIN_LINE_LEN + 1)
}

/// No line that parses is shorter than the seven required keys around
/// empty values.
const MIN_LINE_LEN: usize = r#"{"timestamp_us":0,"request_id":null,"src":"","dst":"","kind":{"type":"request","method":"","uri":""},"fault":null,"agent":""}"#.len();

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn encoded(event: &Event) -> Vec<u8> {
        let mut out = Vec::new();
        write_line(event, &mut out);
        out
    }

    #[test]
    fn write_line_is_the_derive_plus_newline() {
        let events = [
            Event::request("a", "b", "GET", "/x").with_timestamp(1),
            Event::response("a", "b", 503, Duration::from_millis(2))
                .with_timestamp(u64::MAX)
                .with_request_id("test-\"1\"\\\n\u{1}é😀")
                .with_fault(AppliedFault::Abort { status: 503 })
                .with_agent("agent-a")
                .with_span_id("s")
                .with_parent_id("p"),
        ];
        for event in &events {
            let expected = serde_json::to_string(event).unwrap() + "\n";
            assert_eq!(String::from_utf8(encoded(event)).unwrap(), expected);
        }
    }

    #[test]
    fn fast_path_reads_what_write_line_emits() {
        let event = Event::response("a", "b", 0, Duration::from_millis(2))
            .with_request_id("test-1")
            .with_fault(AppliedFault::Delay { delay_us: 7 })
            .with_span_id("s");
        let line = encoded(&event);
        let line = line.strip_suffix(b"\n").unwrap();
        assert_eq!(read_fast(line), Some(event.clone()));
        assert_eq!(read_line(line).unwrap(), event);
    }

    #[test]
    fn fast_path_abstains_and_the_derive_answers() {
        // An escape: valid, but not the fast reader's business.
        let escaped = br#"{"timestamp_us":1,"request_id":"t\u00e9","src":"a","dst":"b","kind":{"type":"request","method":"GET","uri":"/"},"fault":null,"agent":""}"#;
        assert_eq!(read_fast(escaped), None);
        assert_eq!(
            read_line(escaped).unwrap().request_id.as_deref(),
            Some("té")
        );
        // Truncated: both refuse, neither panics.
        for cut in 0..escaped.len() {
            assert_eq!(read_fast(&escaped[..cut]), None);
            assert!(read_line(&escaped[..cut]).is_err());
        }
    }

    #[test]
    fn lines_trims_and_skips_blanks() {
        let body = b"\n a \r\n\r\n\tb\n\nlast";
        let found: Vec<&[u8]> = lines(body).collect();
        assert_eq!(found, [&b"a"[..], b"b", b"last"]);
        assert_eq!(lines(b"").count(), 0);
        assert_eq!(lines(b"\n\n\r\n").count(), 0);
    }

    #[test]
    fn capacity_hint_is_bounded_by_the_bytes() {
        assert_eq!(capacity_hint(b""), 1);
        assert_eq!(capacity_hint(&[b'\n'; 4096]), 4096 / MIN_LINE_LEN + 1);
        let event = Event::request("a", "b", "GET", "/x");
        let mut body = Vec::new();
        for _ in 0..10 {
            write_line(&event, &mut body);
        }
        assert!((10..=11).contains(&capacity_hint(&body)));
        let smallest = Event::request("", "", "", "").with_timestamp(0);
        assert_eq!(encoded(&smallest).len(), MIN_LINE_LEN + 1);
    }
}
