//! Typed request errors, rendered as a JSON body with a stable shape.
//!
//! Every failed request answers `{"error":{"code":...,"message":...}}`
//! so the replay client and the malformed-input matrix can assert on the
//! machine-readable `code` rather than scraping free-text messages. A
//! batch admit refused part-way adds `"placed"`, the `{"id","host"}` pairs
//! of the members it placed before the refusal.

use bursty_obs::json::encode_string;

/// A request failure: an HTTP status plus a stable machine-readable code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    pub status: u16,
    pub code: &'static str,
    pub message: String,
    /// The encoded `"placed"` array of a batch refused part-way: the
    /// members it placed, which stay placed, in the success body's pair
    /// format.
    pub placed: Option<String>,
}

impl ServeError {
    pub(crate) fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        Self {
            status,
            code,
            message: message.into(),
            placed: None,
        }
    }

    pub(crate) fn bad_request(message: impl Into<String>) -> Self {
        Self::new(400, "bad_request", message)
    }

    pub(crate) fn invalid_params(message: impl Into<String>) -> Self {
        Self::new(400, "invalid_params", message)
    }

    pub(crate) fn not_found(message: impl Into<String>) -> Self {
        Self::new(404, "not_found", message)
    }

    pub(crate) fn method_not_allowed(message: impl Into<String>) -> Self {
        Self::new(405, "method_not_allowed", message)
    }

    pub(crate) fn conflict(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(409, code, message)
    }

    /// 503: the request was *not* applied and may be retried as-is —
    /// used when a buffered seq'd op is evicted because earlier seqs
    /// never arrived.
    pub(crate) fn unavailable(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(503, code, message)
    }

    pub(crate) fn internal(message: impl Into<String>) -> Self {
        Self::new(500, "internal", message)
    }

    /// The refusal of a batch that placed the members `placed` (an
    /// encoded JSON array) lists before it ran out of room.
    pub(crate) fn with_placed(self, placed: String) -> Self {
        Self {
            placed: Some(placed),
            ..self
        }
    }

    /// The `{"error":{...}}` response body.
    pub(crate) fn to_json(&self) -> String {
        let placed = self.placed.as_deref().unwrap_or_default();
        let mut out =
            String::with_capacity(48 + self.code.len() + self.message.len() + placed.len());
        out.push_str("{\"error\":{\"code\":\"");
        out.push_str(self.code);
        out.push_str("\",\"message\":");
        encode_string(&self.message, &mut out);
        if self.placed.is_some() {
            out.push_str(",\"placed\":");
            out.push_str(placed);
        }
        out.push_str("}}");
        out
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.status, self.code, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bursty_obs::json::Json;

    #[test]
    fn error_body_is_valid_json() {
        let e = ServeError::bad_request("no \"id\" field");
        let v = Json::parse(e.to_json().as_bytes()).unwrap();
        let inner = v.get("error").unwrap();
        assert_eq!(inner.get("code").unwrap().as_str(), Some("bad_request"));
        assert_eq!(
            inner.get("message").unwrap().as_str(),
            Some("no \"id\" field")
        );
    }
}
