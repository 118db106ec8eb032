//! A case-insensitive, order-preserving header map.

use std::fmt;
use std::slice;

/// Well-known header names used throughout the Gremlin framework.
pub mod names {
    /// Propagated end-to-end request identifier. Gremlin agents match
    /// fault-injection rules against this header (paper §4.1,
    /// "Injecting faults on specific request flows").
    pub const REQUEST_ID: &str = "X-Gremlin-ID";
    /// Standard `Content-Length` header.
    pub const CONTENT_LENGTH: &str = "Content-Length";
    /// Standard `Content-Type` header.
    pub const CONTENT_TYPE: &str = "Content-Type";
    /// Standard `Connection` header.
    pub const CONNECTION: &str = "Connection";
    /// Standard `Transfer-Encoding` header.
    pub const TRANSFER_ENCODING: &str = "Transfer-Encoding";
    /// Standard `Host` header.
    pub const HOST: &str = "Host";
    /// Added by Gremlin agents to responses they synthesize or touch,
    /// recording the fault action applied (for debugging test runs).
    pub const GREMLIN_ACTION: &str = "X-Gremlin-Action";
    /// Span ID of the current intercepted call, minted by the agent
    /// that forwarded the message (Dapper/Zipkin-style causal
    /// tracing). Services copy this header onto their outbound calls
    /// so the next agent can record it as the parent.
    pub const SPAN_ID: &str = "X-Gremlin-Span";
    /// Span ID of the causally enclosing call, stamped by the agent
    /// alongside [`SPAN_ID`] when it forwards a message.
    pub const PARENT_ID: &str = "X-Gremlin-Parent";
}

/// An ordered multimap of HTTP headers with case-insensitive name
/// lookup.
///
/// Insertion order is preserved, which keeps proxied messages
/// byte-comparable and makes log output deterministic.
///
/// # Examples
///
/// ```
/// use gremlin_http::HeaderMap;
///
/// let mut headers = HeaderMap::new();
/// headers.insert("Content-Type", "application/json");
/// assert_eq!(headers.get("content-type"), Some("application/json"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderMap {
    entries: Vec<(String, String)>,
}

impl HeaderMap {
    /// Creates an empty header map.
    pub fn new() -> HeaderMap {
        HeaderMap::default()
    }

    /// Creates an empty header map with room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> HeaderMap {
        HeaderMap {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Number of header entries (duplicates counted individually).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no headers are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the value of the first header matching `name`
    /// (case-insensitive), if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Returns every value for headers matching `name`, in insertion
    /// order.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .iter()
            .filter(move |(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Returns `true` if a header with `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Replaces all headers named `name` with a single entry, keeping
    /// the position of the first occurrence (or appending if absent).
    pub fn insert(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let matches = |k: &str| k.eq_ignore_ascii_case(&name);
        let Some(first) = self.entries.iter().position(|(k, _)| matches(k)) else {
            self.entries.push((name, value.into()));
            return;
        };
        self.entries[first].1 = value.into();
        let mut at = first + 1;
        while at < self.entries.len() {
            if matches(&self.entries[at].0) {
                self.entries.remove(at);
            } else {
                at += 1;
            }
        }
    }

    /// Appends a header without removing existing entries of the same
    /// name.
    pub fn append(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    /// Removes every header named `name`, returning the first removed
    /// value if any.
    pub fn remove(&mut self, name: &str) -> Option<String> {
        let mut first = None;
        self.entries.retain(|(k, v)| {
            if k.eq_ignore_ascii_case(name) {
                if first.is_none() {
                    first = Some(v.clone());
                }
                false
            } else {
                true
            }
        });
        first
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            inner: self.entries.iter(),
        }
    }

    /// Parses the header value as an integer, if present.
    ///
    /// Returns `None` when the header is absent **or** unparseable;
    /// callers that must distinguish should use [`HeaderMap::get`].
    pub fn get_int(&self, name: &str) -> Option<u64> {
        self.get(name).and_then(|v| v.trim().parse().ok())
    }

    /// Returns `true` if the `Connection` header requests close.
    pub fn connection_close(&self) -> bool {
        self.get(names::CONNECTION)
            .map(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close")))
            .unwrap_or(false)
    }

    /// Returns `true` if `Transfer-Encoding: chunked` is declared.
    pub fn is_chunked(&self) -> bool {
        self.get(names::TRANSFER_ENCODING)
            .map(|v| {
                v.split(',')
                    .any(|t| t.trim().eq_ignore_ascii_case("chunked"))
            })
            .unwrap_or(false)
    }
}

/// Iterator over header `(name, value)` pairs, created by
/// [`HeaderMap::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    inner: slice::Iter<'a, (String, String)>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

impl<'a> IntoIterator for &'a HeaderMap {
    type Item = (&'a str, &'a str);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<N: Into<String>, V: Into<String>> FromIterator<(N, V)> for HeaderMap {
    fn from_iter<T: IntoIterator<Item = (N, V)>>(iter: T) -> Self {
        let mut map = HeaderMap::new();
        for (name, value) in iter {
            map.append(name, value);
        }
        map
    }
}

impl<N: Into<String>, V: Into<String>> Extend<(N, V)> for HeaderMap {
    fn extend<T: IntoIterator<Item = (N, V)>>(&mut self, iter: T) {
        for (name, value) in iter {
            self.append(name, value);
        }
    }
}

impl fmt::Display for HeaderMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.iter() {
            writeln!(f, "{name}: {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_case_insensitive_get() {
        let mut h = HeaderMap::new();
        h.insert("Content-Type", "text/plain");
        assert_eq!(h.get("content-type"), Some("text/plain"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/plain"));
        assert_eq!(h.get("missing"), None);
        assert!(h.contains("Content-type"));
    }

    #[test]
    fn insert_replaces_all_duplicates() {
        let mut h = HeaderMap::new();
        h.append("X-A", "1");
        h.append("x-a", "2");
        h.append("X-B", "3");
        h.insert("X-A", "9");
        assert_eq!(h.len(), 2);
        assert_eq!(h.get("x-a"), Some("9"));
        // position of first occurrence preserved
        let order: Vec<_> = h.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(order, vec!["X-A", "X-B"]);
    }

    #[test]
    fn append_keeps_duplicates() {
        let mut h = HeaderMap::new();
        h.append("Set-Cookie", "a=1");
        h.append("Set-Cookie", "b=2");
        let all: Vec<_> = h.get_all("set-cookie").collect();
        assert_eq!(all, vec!["a=1", "b=2"]);
    }

    #[test]
    fn remove_returns_first_value() {
        let mut h = HeaderMap::new();
        h.append("X", "1");
        h.append("x", "2");
        assert_eq!(h.remove("X"), Some("1".to_string()));
        assert!(h.is_empty());
        assert_eq!(h.remove("X"), None);
    }

    #[test]
    fn get_int_parses() {
        let mut h = HeaderMap::new();
        h.insert("Content-Length", " 42 ");
        assert_eq!(h.get_int("content-length"), Some(42));
        h.insert("Content-Length", "nan");
        assert_eq!(h.get_int("content-length"), None);
    }

    #[test]
    fn connection_close_detection() {
        let mut h = HeaderMap::new();
        assert!(!h.connection_close());
        h.insert("Connection", "keep-alive");
        assert!(!h.connection_close());
        h.insert("Connection", "Close");
        assert!(h.connection_close());
        h.insert("Connection", "keep-alive, close");
        assert!(h.connection_close());
    }

    #[test]
    fn chunked_detection() {
        let mut h = HeaderMap::new();
        assert!(!h.is_chunked());
        h.insert("Transfer-Encoding", "gzip, chunked");
        assert!(h.is_chunked());
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut h: HeaderMap = vec![("a", "1"), ("b", "2")].into_iter().collect();
        h.extend(vec![("c", "3")]);
        assert_eq!(h.len(), 3);
        assert_eq!(h.get("c"), Some("3"));
    }

    #[test]
    fn display_format() {
        let mut h = HeaderMap::new();
        h.insert("A", "1");
        assert_eq!(h.to_string(), "A: 1\n");
    }
}
