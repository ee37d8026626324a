//! The serving path's regression gate: heap allocations per stage of a
//! steady-state request, counted by a test-only global allocator.
//!
//! Timing cannot gate this path on a host whose serving runs flip
//! between 24 µs and 36 µs phases; an allocation count repeats exactly.
//! Each ceiling is what the stage's public signature returns (a head and
//! a body, a tree's keys and pair list, one rendered buffer) plus
//! nothing: a stage that starts building temporaries again fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::AtomicBool;

use bursty_server::http::{encode_response, read_request};
use bursty_server::{route, spawn, Action, Client, ClusterState, Json, Op, ServerConfig};
use bursty_workload::{PmSpec, VmSpec};

thread_local! {
    /// Allocations made by this thread (a `Cell` with no destructor:
    /// touching it from inside the allocator allocates nothing).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is handed to `System` unchanged; the only addition
// is the thread-local increment above. `realloc` and `alloc_zeroed` keep
// their default bodies, which go through `alloc`, so growth counts too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn pms(m: usize) -> Vec<PmSpec> {
    (0..m).map(|j| PmSpec::new(j, 100.0)).collect()
}

/// A state past its growth: 400 VMs placed, then enough admit/depart
/// cycles that the 256-event journal ring is full and every table the
/// ops touch has its capacity.
fn warm_state() -> ClusterState {
    let mut state = ClusterState::new(pms(64), 16, 0.01, 0.09, 0.01, 0.0, 256);
    let fleet = (0..400).map(|id| VmSpec::new(id, 0.01, 0.09, 5.0, 5.0));
    state.cluster_mut().arrive_batch(fleet.collect()).unwrap();
    for _ in 0..300 {
        state
            .apply(
                Op::Admit(VmSpec::new(9000, 0.01, 0.09, 5.0, 5.0)),
                None,
                4,
                0,
            )
            .unwrap();
        state.apply(Op::Depart { id: 9000 }, None, 4, 0).unwrap();
    }
    state
}

/// The request as `Client` puts it on the wire.
fn wire(path: &str, body: &str) -> Vec<u8> {
    let len = body.len();
    format!("POST {path} HTTP/1.1\r\nHost: bursty\r\nContent-Length: {len}\r\n\r\n{body}")
        .into_bytes()
}

/// One write through every stage the listener runs, in its order;
/// returns the allocations per stage.
fn stages(state: &mut ClusterState, wire: &[u8]) -> [u64; 5] {
    let never = AtomicBool::new(false);
    let mut stream = wire;
    let (req, read) = counted(|| read_request(&mut stream, 1 << 20, &never).unwrap());
    let (action, routed) = counted(|| route(&req).unwrap());
    let Action::Apply { op, .. } = action else {
        panic!("a write routes to Apply");
    };
    let (reply, applied) = counted(|| state.apply(op, None, 4, 0).unwrap());
    let (body, encoded) = counted(|| reply.encode());
    let (_, framed) = counted(|| encode_response(200, "application/json", body.as_bytes(), true));
    [read, routed, applied, encoded, framed]
}

#[test]
fn a_steady_state_write_allocates_what_it_returns() {
    let mut state = warm_state();
    let admit = wire(
        "/v1/admit",
        r#"{"id":9001,"p_on":0.01,"p_off":0.09,"r_b":5,"r_e":5,"seq":7}"#,
    );
    let depart = wire("/v1/depart", r#"{"id":9001,"seq":8}"#);
    for _ in 0..3 {
        let [read, routed, applied, encoded, framed] = stages(&mut state, &admit);
        assert!(read <= 3, "read_request: {read} (head, body; parent 18)");
        assert!(
            routed <= 8,
            "route(admit): {routed} (six keys, one pair list)"
        );
        assert!(applied <= 6, "apply(admit): {applied}");
        assert_eq!(encoded, 1, "Json::encode (parent 4)");
        assert_eq!(framed, 1, "encode_response (parent 2)");
        let whole = read + routed + applied + encoded + framed;
        assert!(whole <= 20, "admit: {whole} (parent 37)");

        let [read, routed, applied, encoded, framed] = stages(&mut state, &depart);
        assert!(read <= 3, "read_request: {read}");
        assert!(
            routed <= 3,
            "route(depart): {routed} (two keys, one pair list)"
        );
        assert!(applied <= 6, "apply(depart): {applied}");
        assert_eq!((encoded, framed), (1, 1));
        let whole = read + routed + applied + encoded + framed;
        assert!(whole <= 15, "depart: {whole} (parent 33)");
    }
}

#[test]
fn the_metrics_page_is_one_buffer() {
    let mut state = warm_state();
    let (text, made) = counted(|| state.metrics_text(0));
    assert!(made <= 2, "metrics_text: {made} (parent 110)");
    // The listener appends the seq window's two lines to this buffer.
    assert!(text.capacity() - text.len() >= 128, "{} bytes", text.len());
}

#[test]
fn a_client_round_trip_allocates_the_body_it_returns() {
    let mut config = ServerConfig::new(pms(8), 16, 0.01, 0.09, 0.01);
    config.workers = 1;
    let handle = spawn(config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let body = Json::parse(br#"{"id":1,"p_on":0.01,"p_off":0.09,"r_b":5,"r_e":5}"#).unwrap();
    assert_eq!(client.post("/v1/admit", &body).unwrap().status, 200);
    for _ in 0..3 {
        // The server's allocations are another thread's: not counted here.
        let (resp, made) = counted(|| client.request("POST", "/v1/depart", Some(r#"{"id":77}"#)));
        assert_eq!(resp.unwrap().status, 404);
        assert!(made <= 3, "Client::request: {made} (parent ~6)");
        let (resp, made) = counted(|| client.get("/v1/fleet"));
        assert_eq!(resp.unwrap().status, 200);
        assert!(made <= 3, "Client::get: {made}");
    }
    drop(client);
    handle.shutdown();
}
