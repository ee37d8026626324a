//! Request routing and body validation.
//!
//! Everything that can be checked without state access happens here, in
//! the worker thread: JSON shape, VM parameter ranges, seq extraction.
//! A request that fails validation is answered 4xx and *never* takes
//! the engine lock — the malformed-input matrix pins that by digest.

use std::collections::HashSet;

use bursty_workload::VmSpec;

use crate::error::ServeError;
use crate::http::Request;
use crate::state::Op;
use bursty_obs::json::Json;

/// What a framed, validated request asks the daemon to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// A state mutation, optionally ordered by `seq`.
    Apply { op: Op, seq: Option<u64> },
    /// Point-in-time digest read (under the engine lock).
    Digest,
    /// Fleet summary read (under the engine lock).
    Fleet,
    /// `/metrics` text view (under the engine lock).
    Metrics,
    /// Liveness probe; answered by the worker, no state access.
    Health,
    /// Graceful stop.
    Shutdown,
}

/// Maps a request to an [`Action`] or a typed 4xx.
pub fn route(req: &Request) -> Result<Action, ServeError> {
    match (req.method(), req.path()) {
        ("GET", "/healthz") => Ok(Action::Health),
        ("GET", "/metrics") => Ok(Action::Metrics),
        ("GET", "/v1/digest") => Ok(Action::Digest),
        ("GET", "/v1/fleet") => Ok(Action::Fleet),
        ("POST", "/v1/admit") => {
            let body = parse_body(&req.body)?;
            let vm = vm_from_json(&body)?;
            Ok(Action::Apply {
                op: Op::Admit(vm),
                seq: seq_from_json(&body)?,
            })
        }
        ("POST", "/v1/admit-batch") => {
            let body = parse_body(&req.body)?;
            let items = body
                .get("vms")
                .and_then(Json::as_array)
                .ok_or_else(|| ServeError::bad_request("missing \"vms\" array"))?;
            if items.is_empty() {
                return Err(ServeError::bad_request("\"vms\" must not be empty"));
            }
            let mut vms = Vec::with_capacity(items.len());
            for item in items {
                vms.push(vm_from_json(item)?);
            }
            // One pass in batch order: the first id seen twice is named.
            let mut seen = HashSet::with_capacity(vms.len());
            if let Some(vm) = vms.iter().find(|vm| !seen.insert(vm.id)) {
                return Err(ServeError::invalid_params(format!(
                    "vm id {} repeats within the batch",
                    vm.id
                )));
            }
            Ok(Action::Apply {
                op: Op::AdmitBatch(vms),
                seq: seq_from_json(&body)?,
            })
        }
        ("POST", "/v1/depart") => {
            let body = parse_body(&req.body)?;
            let id = body
                .get("id")
                .and_then(Json::as_usize)
                .ok_or_else(|| ServeError::bad_request("missing integer \"id\""))?;
            Ok(Action::Apply {
                op: Op::Depart { id },
                seq: seq_from_json(&body)?,
            })
        }
        ("POST", "/v1/recalibrate") => {
            let body = parse_body(&req.body)?;
            Ok(Action::Apply {
                op: Op::Recalibrate,
                seq: seq_from_json(&body)?,
            })
        }
        ("POST", "/v1/snapshot") => {
            let body = parse_body(&req.body)?;
            Ok(Action::Apply {
                op: Op::Snapshot,
                seq: seq_from_json(&body)?,
            })
        }
        ("POST", "/v1/shutdown") => Ok(Action::Shutdown),
        // Known path, wrong verb → 405; anything else → 404.
        (_, "/healthz" | "/metrics" | "/v1/digest" | "/v1/fleet") => Err(
            ServeError::method_not_allowed(format!("{} expects GET", req.path())),
        ),
        (
            _,
            "/v1/admit" | "/v1/admit-batch" | "/v1/depart" | "/v1/recalibrate" | "/v1/snapshot"
            | "/v1/shutdown",
        ) => Err(ServeError::method_not_allowed(format!(
            "{} expects POST",
            req.path()
        ))),
        (_, path) => Err(ServeError::not_found(format!("unknown route {path}"))),
    }
}

/// An empty POST body reads as `{}` (curl convenience); anything else
/// must parse as a JSON object.
fn parse_body(body: &[u8]) -> Result<Json, ServeError> {
    if body.is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    let v = Json::parse(body).map_err(|e| ServeError::bad_request(e.to_string()))?;
    match v {
        Json::Obj(_) => Ok(v),
        _ => Err(ServeError::bad_request(
            "request body must be a JSON object",
        )),
    }
}

fn seq_from_json(body: &Json) -> Result<Option<u64>, ServeError> {
    match body.get("seq") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| ServeError::bad_request("\"seq\" must be a non-negative integer")),
    }
}

/// Builds a `VmSpec` after range-checking every field, mirroring the
/// `VmSpec::new` contract — the daemon must answer 400, not panic.
fn vm_from_json(v: &Json) -> Result<VmSpec, ServeError> {
    let id = v
        .get("id")
        .and_then(Json::as_usize)
        .ok_or_else(|| ServeError::bad_request("missing integer \"id\""))?;
    let p_on = require_f64(v, "p_on")?;
    let p_off = require_f64(v, "p_off")?;
    let r_b = require_f64(v, "r_b")?;
    let r_e = require_f64(v, "r_e")?;
    // The parser admits finite numbers only, so the spec's own ranges are
    // the whole check.
    VmSpec::try_new(id, p_on, p_off, r_b, r_e)
        .map_err(|e| ServeError::invalid_params(format!("vm {id}: {e}")))
}

fn require_f64(v: &Json, key: &str) -> Result<f64, ServeError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ServeError::bad_request(format!("missing number \"{key}\"")))
}

/// Renders a `VmSpec` as the admit-request JSON shape (shared by the
/// replay client and the bench driver).
pub fn vm_to_json(vm: &VmSpec) -> Json {
    bursty_obs::json::obj(vec![
        ("id", Json::Num(vm.id as f64)),
        ("p_on", Json::Num(vm.p_on)),
        ("p_off", Json::Num(vm.p_off)),
        ("r_b", Json::Num(vm.r_b)),
        ("r_e", Json::Num(vm.r_e)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: &str, path: &str, body: &[u8]) -> Request {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let wire = [head.as_bytes(), body].concat();
        let never = std::sync::atomic::AtomicBool::new(false);
        crate::http::read_request(&mut &wire[..], 1 << 20, &never).expect("well-formed request")
    }

    #[test]
    fn routes_admit_with_seq() {
        let r = req(
            "POST",
            "/v1/admit",
            br#"{"id":3,"p_on":0.01,"p_off":0.09,"r_b":10,"r_e":5,"seq":42}"#,
        );
        match route(&r).unwrap() {
            Action::Apply {
                op: Op::Admit(vm),
                seq: Some(42),
            } => {
                assert_eq!(vm.id, 3);
                assert_eq!(vm.r_b, 10.0);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn rejects_invalid_vm_params_with_400() {
        for (body, frag) in [
            (
                &br#"{"id":1,"p_on":0.0,"p_off":0.09,"r_b":1,"r_e":0}"#[..],
                "p_on",
            ),
            (
                br#"{"id":1,"p_on":0.01,"p_off":1.5,"r_b":1,"r_e":0}"#,
                "p_off",
            ),
            (
                br#"{"id":1,"p_on":0.01,"p_off":0.09,"r_b":0,"r_e":0}"#,
                "r_b",
            ),
            (
                br#"{"id":1,"p_on":0.01,"p_off":0.09,"r_b":1,"r_e":-1}"#,
                "r_e",
            ),
            (
                br#"{"id":-1,"p_on":0.01,"p_off":0.09,"r_b":1,"r_e":0}"#,
                "id",
            ),
            (br#"{"p_on":0.01,"p_off":0.09,"r_b":1,"r_e":0}"#, "id"),
        ] {
            let e = route(&req("POST", "/v1/admit", body)).unwrap_err();
            assert_eq!(e.status, 400, "body {:?}", std::str::from_utf8(body));
            assert!(e.message.contains(frag), "{} !~ {frag}", e.message);
        }
    }

    #[test]
    fn unknown_route_404_wrong_verb_405() {
        assert_eq!(route(&req("GET", "/v1/nope", b"")).unwrap_err().status, 404);
        assert_eq!(
            route(&req("GET", "/v1/admit", b"")).unwrap_err().status,
            405
        );
        assert_eq!(
            route(&req("POST", "/metrics", b"")).unwrap_err().status,
            405
        );
    }

    #[test]
    fn batch_rejects_duplicate_ids_and_empty() {
        let e = route(&req(
            "POST",
            "/v1/admit-batch",
            br#"{"vms":[{"id":1,"p_on":0.01,"p_off":0.09,"r_b":1,"r_e":0},{"id":1,"p_on":0.01,"p_off":0.09,"r_b":2,"r_e":0}]}"#,
        ))
        .unwrap_err();
        assert_eq!((e.status, e.code), (400, "invalid_params"));
        assert_eq!(e.message, "vm id 1 repeats within the batch");
        let e = route(&req("POST", "/v1/admit-batch", br#"{"vms":[]}"#)).unwrap_err();
        assert_eq!(e.status, 400);
    }

    #[test]
    fn batch_names_the_first_repeat_among_20k_members() {
        // As many members as a 1 MiB body holds, the repeat the last of
        // them: the id named is the first one seen twice.
        let member = |id: usize| format!(r#"{{"id":{id},"p_on":1,"p_off":1,"r_b":1,"r_e":0}}"#);
        let mut members: Vec<String> = (0..19_999).map(member).collect();
        members.push(member(12_345));
        let body = format!(r#"{{"vms":[{}]}}"#, members.join(","));
        let e = route(&req("POST", "/v1/admit-batch", body.as_bytes())).unwrap_err();
        assert_eq!((e.status, e.code), (400, "invalid_params"));
        assert_eq!(e.message, "vm id 12345 repeats within the batch");
    }

    #[test]
    fn ids_are_exact_below_2_pow_53_only() {
        // 2^53 and 2^53 + 1 parse to the same f64: both are refused, or
        // two wire ids would be one VM.
        let admit = |id: &str| {
            let body = format!(r#"{{"id":{id},"p_on":0.01,"p_off":0.09,"r_b":1,"r_e":0}}"#);
            route(&req("POST", "/v1/admit", body.as_bytes()))
        };
        let depart = |id: &str| {
            route(&req(
                "POST",
                "/v1/depart",
                format!(r#"{{"id":{id}}}"#).as_bytes(),
            ))
        };
        let max = (1usize << 53) - 1;
        match admit("9007199254740991").unwrap() {
            Action::Apply {
                op: Op::Admit(vm), ..
            } => assert_eq!(vm.id, max),
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(
            depart("9007199254740991").unwrap(),
            Action::Apply {
                op: Op::Depart { id: max },
                seq: None
            }
        );
        for id in ["9007199254740992", "9007199254740993"] {
            for e in [admit(id).unwrap_err(), depart(id).unwrap_err()] {
                assert_eq!(e.status, 400, "id {id}");
                assert!(e.message.contains("\"id\""), "{}", e.message);
            }
        }
    }

    #[test]
    fn empty_recalibrate_body_is_ok() {
        assert_eq!(
            route(&req("POST", "/v1/recalibrate", b"")).unwrap(),
            Action::Apply {
                op: Op::Recalibrate,
                seq: None
            }
        );
    }
}
