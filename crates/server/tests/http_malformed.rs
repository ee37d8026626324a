//! Satellite 3: the malformed-input matrix for the hand-rolled
//! HTTP/JSON layer. Every row must answer a typed 4xx with a JSON error
//! body — and leave the apply loop provably untouched: the state digest
//! and applied-op counter read the same before and after the barrage.

use bursty_placement::OnlineCluster;
use bursty_server::replay::{apply_engine, build_program, drive_http};
use bursty_server::{spawn, Client, Json, ServerConfig};
use bursty_workload::PmSpec;

const D: usize = 16;
/// The daemon's cap on a declared request body (1 MiB).
const MAX_BODY: usize = 1 << 20;

fn pms(m: usize) -> Vec<PmSpec> {
    (0..m).map(|j| PmSpec::new(j, 100.0)).collect()
}

/// Reads the digest plus applied counter for before/after comparison.
fn digest_and_applied(client: &mut Client) -> (String, u64) {
    let v = client.get("/v1/digest").unwrap().json().unwrap();
    (
        v.get("digest").unwrap().as_str().unwrap().to_string(),
        v.get("applied").unwrap().as_u64().unwrap(),
    )
}

#[test]
fn malformed_inputs_get_typed_4xx_and_never_touch_the_apply_loop() {
    let handle = spawn(ServerConfig::new(pms(32), D, 0.01, 0.09, 0.01)).expect("daemon starts");
    let addr = handle.addr();

    // Put real state behind the daemon so "untouched" means something.
    let program = build_program(0x5EED, 150, 0);
    let mut engine = OnlineCluster::new(pms(32), D, 0.01, 0.09, 0.01);
    let expected = apply_engine(&mut engine, &program.ops);
    let warm = drive_http(addr, &program.ops, 2, 0).unwrap();
    assert_eq!(warm.digest, expected);

    let mut probe = Client::connect(addr).unwrap();
    let before = digest_and_applied(&mut probe);

    // --- Matrix rows: (raw bytes, expected status, expected code,
    // half-close write side so the server sees EOF). Each row uses a
    // fresh connection: framing errors close the stream.
    let vm_body = r#"{"id":9000,"p_on":0.01,"p_off":0.09,"r_b":10,"r_e":5}"#;
    let oversized_len = MAX_BODY + 1;
    let rows: Vec<(Vec<u8>, u16, &str, bool)> = vec![
        // Oversized declared body: rejected before any body byte is read.
        (
            format!("POST /v1/admit HTTP/1.1\r\nContent-Length: {oversized_len}\r\n\r\n")
                .into_bytes(),
            413,
            "payload_too_large",
            false,
        ),
        // Truncated request: body shorter than declared, then EOF.
        (
            b"POST /v1/admit HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"id\":1".to_vec(),
            400,
            "truncated_request",
            true,
        ),
        // Bad content-length.
        (
            b"POST /v1/admit HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec(),
            400,
            "bad_content_length",
            false,
        ),
        // Signed content-length: `usize::from_str` takes it, RFC 9110 does not.
        (
            b"POST /v1/admit HTTP/1.1\r\nContent-Length: +4\r\n\r\nnull".to_vec(),
            400,
            "bad_content_length",
            false,
        ),
        // A chunked request is refused, not framed by the length beside it.
        (
            format!(
                "POST /v1/admit HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: {}\r\n\r\n{vm_body}",
                vm_body.len()
            )
            .into_bytes(),
            400,
            "bad_header",
            false,
        ),
        // Bodied method with no content-length at all.
        (
            b"POST /v1/admit HTTP/1.1\r\n\r\n".to_vec(),
            400,
            "bad_content_length",
            false,
        ),
        // Garbage request line.
        (b"NONSENSE\r\n\r\n".to_vec(), 400, "bad_request_line", false),
        // Unknown route.
        (
            b"GET /v2/everything HTTP/1.1\r\n\r\n".to_vec(),
            404,
            "not_found",
            false,
        ),
        // Wrong verb on a known route.
        (
            format!(
                "GET /v1/admit HTTP/1.1\r\nContent-Length: {}\r\n\r\n{vm_body}",
                vm_body.len()
            )
            .into_bytes(),
            405,
            "method_not_allowed",
            false,
        ),
        // Body is not JSON.
        (
            b"POST /v1/admit HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!".to_vec(),
            400,
            "bad_request",
            false,
        ),
        // JSON but missing required fields.
        (
            b"POST /v1/admit HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"id\":123}".to_vec(),
            400,
            "bad_request",
            false,
        ),
        // Invalid VM parameters (p_on out of range).
        (
            {
                let bad = r#"{"id":9001,"p_on":7.5,"p_off":0.09,"r_b":10,"r_e":5}"#;
                format!(
                    "POST /v1/admit HTTP/1.1\r\nContent-Length: {}\r\n\r\n{bad}",
                    bad.len()
                )
                .into_bytes()
            },
            400,
            "invalid_params",
            false,
        ),
        // Negative r_b smuggled through a batch member.
        (
            {
                let bad = r#"{"vms":[{"id":9002,"p_on":0.01,"p_off":0.09,"r_b":-3,"r_e":5}]}"#;
                format!(
                    "POST /v1/admit-batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n{bad}",
                    bad.len()
                )
                .into_bytes()
            },
            400,
            "invalid_params",
            false,
        ),
        // Fractional seq.
        (
            {
                let bad = r#"{"id":9003,"p_on":0.01,"p_off":0.09,"r_b":1,"r_e":0,"seq":1.5}"#;
                format!(
                    "POST /v1/admit HTTP/1.1\r\nContent-Length: {}\r\n\r\n{bad}",
                    bad.len()
                )
                .into_bytes()
            },
            400,
            "bad_request",
            false,
        ),
    ];

    for (raw, want_status, want_code, half_close) in rows {
        let mut client = Client::connect(addr).unwrap();
        let send = if half_close {
            Client::send_raw_eof
        } else {
            Client::send_raw
        };
        let resp =
            send(&mut client, &raw).unwrap_or_else(|e| panic!("no response for {want_code}: {e}"));
        assert_eq!(
            resp.status,
            want_status,
            "row {want_code}: body {}",
            resp.text()
        );
        let body = resp.json().unwrap_or_else(|e| {
            panic!(
                "row {want_code}: non-JSON error body {:?}: {e}",
                resp.text()
            )
        });
        let err = body.get("error").expect("error envelope");
        assert_eq!(
            err.get("code").and_then(Json::as_str),
            Some(want_code),
            "row {want_code}"
        );
        assert!(err
            .get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| !m.is_empty()));
    }

    // The apply loop never saw any of it: digest AND applied-op counter
    // are exactly where the warm-up left them.
    let after = digest_and_applied(&mut probe);
    assert_eq!(before.0, after.0, "digest moved");
    assert_eq!(before.1, after.1, "applied counter moved");

    // The transport kept count of the rejects, though.
    let metrics = probe.get("/metrics").unwrap().text();
    let bad: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("serve_bad_requests "))
        .and_then(|v| v.parse().ok())
        .expect("serve_bad_requests line");
    assert!(bad >= 14, "expected >= 14 transport rejects, saw {bad}");

    drop(probe);
    handle.shutdown();
}

#[test]
fn pipelined_requests_in_one_segment_are_all_answered() {
    // Two requests written at once land in the reader's buffer together;
    // framing the first must leave the second where the next read — by
    // whichever worker picks the connection up — finds it.
    let handle = spawn(ServerConfig::new(pms(8), D, 0.01, 0.09, 0.01)).unwrap();
    let admit = |id: usize, seq: usize| {
        let body =
            format!(r#"{{"id":{id},"p_on":0.01,"p_off":0.09,"r_b":10,"r_e":5,"seq":{seq}}}"#);
        let len = body.len();
        format!("POST /v1/admit HTTP/1.1\r\nContent-Length: {len}\r\n\r\n{body}").into_bytes()
    };
    let mut plain = Client::connect(handle.addr()).unwrap();
    let two = b"GET /healthz HTTP/1.1\r\n\r\nGET /v1/fleet HTTP/1.1\r\n\r\n";
    assert_eq!(plain.send_raw(two).unwrap().text(), r#"{"status":"ok"}"#);
    let fleet = plain.send_raw(b"").unwrap().json().unwrap();
    assert_eq!(fleet.get("n_vms").and_then(Json::as_u64), Some(0));

    // Across a park: seq 1 waits in the window with seq 2 buffered
    // behind it on the same connection until seq 0 arrives elsewhere.
    let mut early = Client::connect(handle.addr()).unwrap();
    let mut late = Client::connect(handle.addr()).unwrap();
    let parked = std::thread::spawn(move || {
        let wire = [admit(1, 1), admit(2, 2)].concat();
        let first = early.send_raw(&wire).unwrap();
        (first, early.send_raw(b"").unwrap())
    });
    let waited = std::time::Instant::now();
    while !plain
        .get("/metrics")
        .unwrap()
        .text()
        .contains("serve_seq_pending 1\n")
    {
        assert!(waited.elapsed().as_secs() < 10, "seq 1 never parked");
        std::thread::yield_now();
    }
    assert_eq!(late.send_raw(&admit(0, 0)).unwrap().status, 200);
    let (first, second) = parked.join().unwrap();
    for (resp, id) in [(first, 1), (second, 2)] {
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(
            resp.json().unwrap().get("id").and_then(Json::as_u64),
            Some(id)
        );
    }
    assert_eq!(digest_and_applied(&mut plain).1, 3);
    drop((plain, late));
    handle.shutdown();
}

#[test]
fn engine_level_rejections_do_reach_the_loop_and_count() {
    // Contrast case: a well-formed op the *engine* rejects (departing an
    // unknown VM) is applied — the counter moves, the digest does not.
    let handle = spawn(ServerConfig::new(pms(8), D, 0.01, 0.09, 0.01)).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let before = digest_and_applied(&mut client);
    let resp = client
        .post("/v1/depart", &Json::parse(br#"{"id":424242}"#).unwrap())
        .unwrap();
    assert_eq!(resp.status, 404);
    let after = digest_and_applied(&mut client);
    assert_eq!(before.0, after.0);
    assert_eq!(after.1, before.1 + 1);
    drop(client);
    handle.shutdown();
}
