//! Typed request errors, rendered as a JSON body with a stable shape.
//!
//! Every failed request answers `{"error":{"code":...,"message":...}}`
//! so the replay client and the malformed-input matrix can assert on the
//! machine-readable `code` rather than scraping free-text messages.

use bursty_obs::json::encode_string;

/// A request failure: an HTTP status plus a stable machine-readable code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    pub status: u16,
    pub code: &'static str,
    pub message: String,
}

impl ServeError {
    pub(crate) fn bad_request(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            code: "bad_request",
            message: message.into(),
        }
    }

    pub(crate) fn invalid_params(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            code: "invalid_params",
            message: message.into(),
        }
    }

    pub(crate) fn not_found(message: impl Into<String>) -> Self {
        Self {
            status: 404,
            code: "not_found",
            message: message.into(),
        }
    }

    pub(crate) fn method_not_allowed(message: impl Into<String>) -> Self {
        Self {
            status: 405,
            code: "method_not_allowed",
            message: message.into(),
        }
    }

    pub(crate) fn conflict(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            status: 409,
            code,
            message: message.into(),
        }
    }

    /// 503: the request was *not* applied and may be retried as-is —
    /// used when a buffered seq'd op is evicted because earlier seqs
    /// never arrived.
    pub(crate) fn unavailable(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            status: 503,
            code,
            message: message.into(),
        }
    }

    pub(crate) fn internal(message: impl Into<String>) -> Self {
        Self {
            status: 500,
            code: "internal",
            message: message.into(),
        }
    }

    /// The `{"error":{...}}` response body.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::with_capacity(48 + self.code.len() + self.message.len());
        out.push_str("{\"error\":{\"code\":\"");
        out.push_str(self.code);
        out.push_str("\",\"message\":");
        encode_string(&self.message, &mut out);
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
