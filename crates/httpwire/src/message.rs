//! HTTP request and response message types.

use std::fmt;

use bytes::Bytes;

use crate::headers::{names, HeaderMap};
use crate::method::Method;
use crate::status::StatusCode;

/// The only HTTP version this crate speaks on the wire.
pub const HTTP_VERSION: &str = "HTTP/1.1";

/// An HTTP request.
///
/// # Examples
///
/// ```
/// use gremlin_http::{Method, Request};
///
/// let req = Request::builder(Method::Get, "/search?q=payments")
///     .header("Host", "catalog")
///     .request_id("test-123")
///     .build();
/// assert_eq!(req.path(), "/search");
/// assert_eq!(req.query(), Some("q=payments"));
/// assert_eq!(req.request_id(), Some("test-123"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    method: Method,
    target: String,
    headers: HeaderMap,
    body: Bytes,
}

impl Request {
    /// Starts building a request with the given method and target
    /// (path plus optional `?query`).
    pub fn builder(method: Method, target: impl Into<String>) -> RequestBuilder {
        RequestBuilder {
            request: Request {
                method,
                target: target.into(),
                headers: HeaderMap::new(),
                body: Bytes::new(),
            },
        }
    }

    /// Assembles a request the codec read off the wire; `headers` must
    /// already state `body`'s length the way [`Request::set_body`] would.
    pub(crate) fn from_parts(
        method: Method,
        target: String,
        headers: HeaderMap,
        body: Bytes,
    ) -> Request {
        Request {
            method,
            target,
            headers,
            body,
        }
    }

    /// Convenience constructor for a bodiless `GET` request.
    pub fn get(target: impl Into<String>) -> Request {
        Request::builder(Method::Get, target).build()
    }

    /// Convenience constructor for a `POST` request carrying `body`
    /// (`Content-Length` is set from it).
    pub fn post(target: impl Into<String>, body: impl Into<Bytes>) -> Request {
        Request::builder(Method::Post, target).body(body).build()
    }

    /// The request method.
    pub fn method(&self) -> &Method {
        &self.method
    }

    /// The full request target as it appears on the request line
    /// (path and query).
    pub fn target(&self) -> &str {
        &self.target
    }

    /// The path component of the target (everything before `?`).
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((path, _)) => path,
            None => &self.target,
        }
    }

    /// The query component of the target (everything after `?`), if
    /// present.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// The request headers.
    pub fn headers(&self) -> &HeaderMap {
        &self.headers
    }

    /// Mutable access to the request headers.
    pub fn headers_mut(&mut self) -> &mut HeaderMap {
        &mut self.headers
    }

    /// The request body.
    pub fn body(&self) -> &Bytes {
        &self.body
    }

    /// Replaces the body, updating `Content-Length`.
    pub fn set_body(&mut self, body: impl Into<Bytes>) {
        self.body = body.into();
        self.headers
            .insert(names::CONTENT_LENGTH, self.body.len().to_string());
    }

    /// The propagated Gremlin request ID
    /// (the [`X-Gremlin-ID`](names::REQUEST_ID) header), if present.
    pub fn request_id(&self) -> Option<&str> {
        self.headers.get(names::REQUEST_ID)
    }

    /// Sets the propagated Gremlin request ID.
    pub fn set_request_id(&mut self, id: impl Into<String>) {
        self.headers.insert(names::REQUEST_ID, id.into());
    }

    /// The propagated span ID (the
    /// [`X-Gremlin-Span`](names::SPAN_ID) header), if present.
    pub fn span_id(&self) -> Option<&str> {
        self.headers.get(names::SPAN_ID)
    }

    /// Sets the propagated span ID.
    pub fn set_span_id(&mut self, span: impl Into<String>) {
        self.headers.insert(names::SPAN_ID, span.into());
    }

    /// The parent span ID (the
    /// [`X-Gremlin-Parent`](names::PARENT_ID) header), if present.
    pub fn parent_id(&self) -> Option<&str> {
        self.headers.get(names::PARENT_ID)
    }

    /// Sets the parent span ID.
    pub fn set_parent_id(&mut self, parent: impl Into<String>) {
        self.headers.insert(names::PARENT_ID, parent.into());
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} ({} header(s), {} body byte(s))",
            self.method,
            self.target,
            self.headers.len(),
            self.body.len()
        )
    }
}

/// Incrementally configures a [`Request`]; created by
/// [`Request::builder`].
#[derive(Debug, Clone)]
pub struct RequestBuilder {
    request: Request,
}

impl RequestBuilder {
    /// Adds a header (appending, preserving duplicates).
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.request.headers.append(name, value);
        self
    }

    /// Sets the body and the matching `Content-Length` header.
    pub fn body(mut self, body: impl Into<Bytes>) -> Self {
        self.request.set_body(body);
        self
    }

    /// Sets the propagated Gremlin request ID header.
    pub fn request_id(mut self, id: impl Into<String>) -> Self {
        self.request.set_request_id(id);
        self
    }

    /// Finishes building the request.
    pub fn build(self) -> Request {
        self.request
    }
}

/// An HTTP response.
///
/// # Examples
///
/// ```
/// use gremlin_http::{Response, StatusCode};
///
/// let resp = Response::builder(StatusCode::OK)
///     .header("Content-Type", "application/json")
///     .body(r#"{"ok":true}"#)
///     .build();
/// assert!(resp.status().is_success());
/// assert_eq!(resp.body_str(), r#"{"ok":true}"#);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    status: StatusCode,
    reason: String,
    headers: HeaderMap,
    body: Bytes,
}

impl Response {
    /// Starts building a response with the given status code; the
    /// canonical reason phrase is filled in automatically.
    pub fn builder(status: StatusCode) -> ResponseBuilder {
        ResponseBuilder {
            response: Response {
                status,
                reason: status.canonical_reason().to_string(),
                headers: HeaderMap::new(),
                body: Bytes::new(),
            },
        }
    }

    /// Assembles a response the codec read off the wire; `headers` must
    /// already state `body`'s length the way [`Response::set_body`] would.
    pub(crate) fn from_parts(
        status: StatusCode,
        reason: String,
        headers: HeaderMap,
        body: Bytes,
    ) -> Response {
        Response {
            status,
            reason,
            headers,
            body,
        }
    }

    /// Convenience constructor for a `200 OK` response with a text
    /// body.
    pub fn ok(body: impl Into<Bytes>) -> Response {
        Response::builder(StatusCode::OK).body(body).build()
    }

    /// Convenience constructor for an error response whose body is
    /// the reason phrase.
    pub fn error(status: StatusCode) -> Response {
        Response::builder(status)
            .body(status.canonical_reason())
            .build()
    }

    /// The response status code.
    pub fn status(&self) -> StatusCode {
        self.status
    }

    /// The reason phrase sent on the status line.
    pub fn reason(&self) -> &str {
        &self.reason
    }

    /// The response headers.
    pub fn headers(&self) -> &HeaderMap {
        &self.headers
    }

    /// Mutable access to the response headers.
    pub fn headers_mut(&mut self) -> &mut HeaderMap {
        &mut self.headers
    }

    /// The response body.
    pub fn body(&self) -> &Bytes {
        &self.body
    }

    /// The body interpreted as UTF-8, with invalid sequences replaced.
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Replaces the body, updating `Content-Length`.
    pub fn set_body(&mut self, body: impl Into<Bytes>) {
        self.body = body.into();
        self.headers
            .insert(names::CONTENT_LENGTH, self.body.len().to_string());
    }

    /// The request ID echoed on this response, if any.
    pub fn request_id(&self) -> Option<&str> {
        self.headers.get(names::REQUEST_ID)
    }

    /// The span ID echoed on this response, if any.
    pub fn span_id(&self) -> Option<&str> {
        self.headers.get(names::SPAN_ID)
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} ({} header(s), {} body byte(s))",
            self.status,
            self.reason,
            self.headers.len(),
            self.body.len()
        )
    }
}

/// Incrementally configures a [`Response`]; created by
/// [`Response::builder`].
#[derive(Debug, Clone)]
pub struct ResponseBuilder {
    response: Response,
}

impl ResponseBuilder {
    /// Adds a header (appending, preserving duplicates).
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.response.headers.append(name, value);
        self
    }

    /// Overrides the reason phrase on the status line.
    pub fn reason(mut self, reason: impl Into<String>) -> Self {
        self.response.reason = reason.into();
        self
    }

    /// Sets the body and the matching `Content-Length` header.
    pub fn body(mut self, body: impl Into<Bytes>) -> Self {
        self.response.set_body(body);
        self
    }

    /// Echoes a request ID header on the response.
    pub fn request_id(mut self, id: impl Into<String>) -> Self {
        self.response.headers.insert(names::REQUEST_ID, id.into());
        self
    }

    /// Finishes building the response.
    pub fn build(self) -> Response {
        self.response
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder_round_trip() {
        let req = Request::builder(Method::Post, "/api/v1/items?limit=5")
            .header("Host", "svc-b")
            .body("hello")
            .request_id("test-7")
            .build();
        assert_eq!(*req.method(), Method::Post);
        assert_eq!(req.target(), "/api/v1/items?limit=5");
        assert_eq!(req.path(), "/api/v1/items");
        assert_eq!(req.query(), Some("limit=5"));
        assert_eq!(req.headers().get("host"), Some("svc-b"));
        assert_eq!(req.headers().get_int("content-length"), Some(5));
        assert_eq!(req.request_id(), Some("test-7"));
        assert_eq!(&req.body()[..], b"hello");
    }

    #[test]
    fn post_convenience_sets_body_and_length() {
        let req = Request::post("/operator/wave", "{\"a\":1}");
        assert_eq!(*req.method(), Method::Post);
        assert_eq!(req.path(), "/operator/wave");
        assert_eq!(&req.body()[..], b"{\"a\":1}");
        assert_eq!(req.headers().get_int("content-length"), Some(7));
    }

    #[test]
    fn request_without_query() {
        let req = Request::get("/plain");
        assert_eq!(req.path(), "/plain");
        assert_eq!(req.query(), None);
        assert!(req.request_id().is_none());
    }

    #[test]
    fn set_body_updates_content_length() {
        let mut req = Request::get("/");
        req.set_body("abcd");
        assert_eq!(req.headers().get_int("content-length"), Some(4));
        req.set_body("");
        assert_eq!(req.headers().get_int("content-length"), Some(0));
    }

    #[test]
    fn response_builder_round_trip() {
        let resp = Response::builder(StatusCode::SERVICE_UNAVAILABLE)
            .header("Retry-After", "1")
            .body("try later")
            .build();
        assert_eq!(resp.status(), StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(resp.reason(), "Service Unavailable");
        assert_eq!(resp.body_str(), "try later");
        assert!(resp.status().is_error());
    }

    #[test]
    fn response_convenience_constructors() {
        let ok = Response::ok("body");
        assert_eq!(ok.status(), StatusCode::OK);
        assert_eq!(ok.body_str(), "body");
        let err = Response::error(StatusCode::NOT_FOUND);
        assert_eq!(err.status(), StatusCode::NOT_FOUND);
        assert_eq!(err.body_str(), "Not Found");
    }

    #[test]
    fn custom_reason() {
        let resp = Response::builder(StatusCode::OK).reason("Fine").build();
        assert_eq!(resp.reason(), "Fine");
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Request::get("/x").to_string().is_empty());
        assert!(!Response::ok("").to_string().is_empty());
    }
}
