//! The names later issues refer to: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repository root repeats these tables; a unit test keeps the two
//! in step.

use std::collections::BTreeMap;

use crate::stats::{best, summarize, Summary};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median a change may worsen the metric by.
    /// Per-layer metrics carry no bound.
    pub bound: f64,
}

impl MetricDef {
    /// The figure reported for an end-to-end metric: its best repeats —
    /// the shortest times, the highest rates (see [`best`]). The host has
    /// phases lasting from milliseconds to minutes in which identical
    /// work takes up to a third longer, and nothing makes a repeat
    /// faster than the code allows, so over ten seeded runs the good
    /// end of the repeats scatters two to ten times less than their
    /// median or either quartile (README, "Why the best repeats").
    pub fn reported(&self, repeats: &[f64]) -> f64 {
        best(repeats, self.better == Better::Lower)
    }

    /// How far the better half of the repeats reaches from the best
    /// one, as a share of it: small when the best repeat has company,
    /// large when it is a lone reading.
    pub fn good_half_spread(&self, repeats: &[f64]) -> f64 {
        let s = summarize(repeats);
        let best = self.reported(repeats);
        (s.median - best).abs() / best.abs().max(f64::MIN_POSITIVE)
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every metric;
/// the workload decides what "one decision" and "one item" are (see the
/// README's metric table).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("pipeline_s", "s", Lower, 0.25),
    e2e("decision_p50_ms", "ms", Lower, 0.25),
    e2e("throughput_per_s", "1/s", Higher, 0.25),
    e2e("pms_used", "count", Lower, 0.04),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// Single-layer figures from the traced run. A layer that is not on a
/// workload's path reports 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("workload.fit_s", "s", Lower),
    layer("workload.fit_ns_per_sample", "ns", Lower),
    layer("placement.rounding_s", "s", Lower),
    layer("placement.mapcal_build_s", "s", Lower),
    layer("placement.place_s", "s", Lower),
    layer("placement.place_ns_per_vm", "ns", Lower),
    layer("placement.batch_path", "count", Higher),
    layer("placement.pms_used", "count", Lower),
    layer("sim.run_s", "s", Lower),
    layer("sim.ns_per_vm_step", "ns", Lower),
    layer("sim.ns_per_pm_step", "ns", Lower),
    layer("sim.migrations", "count", Lower),
    layer("sim.cvr_mean", "share", Lower),
    layer("sim.cvr_max_pm", "share", Lower),
    layer("sim.kernel_s", "s", Lower),
    layer("sim.kernel_share", "share", Lower),
    layer("sim.cache_hit_rate", "share", Higher),
    layer("obs.memory_recorder_overhead_pct", "%", Lower),
    layer("obs.certify_s", "s", Lower),
    layer("plan.unattributed_s", "s", Lower),
    layer("placement.online.apply_ns_per_op", "ns", Lower),
    layer("placement.online.admit_p50_ns", "ns", Lower),
    layer("placement.online.depart_p50_ns", "ns", Lower),
    layer("placement.online.batch_p50_ns", "ns", Lower),
    layer("placement.online.recal_p50_ns", "ns", Lower),
    layer("server.json.parse_ns_per_req", "ns", Lower),
    layer("server.json.encode_ns_per_resp", "ns", Lower),
    layer("server.json.req_bytes_mean", "bytes", Lower),
    layer("server.json.resp_bytes_mean", "bytes", Lower),
    layer("server.http.read_request_ns_per_req", "ns", Lower),
    layer("server.http.encode_response_ns_per_resp", "ns", Lower),
    layer("server.routes.route_ns_per_req", "ns", Lower),
    layer("server.state.seq_offer_ns_per_op", "ns", Lower),
    layer("server.state.apply_ns_per_op", "ns", Lower),
    layer("server.state.metrics_text_ns", "ns", Lower),
    layer("server.state.digest_ms", "ms", Lower),
    layer("server.listener.healthz_rtt_p50_ns", "ns", Lower),
    layer("server.listener.fleet_rtt_p50_ns", "ns", Lower),
    layer("server.listener.residual_ns_per_req", "ns", Lower),
    layer("server.listener.cpu_us_per_req", "us", Lower),
    layer("server.listener.spawn_s", "s", Lower),
    layer("server.listener.write_p50_us", "us", Lower),
    layer("server.listener.write_p99_us", "us", Lower),
    layer("server.listener.read_p50_us", "us", Lower),
    layer("server.listener.read_p99_us", "us", Lower),
    layer("obs.durable.snapshot_ms", "ms", Lower),
    layer("obs.durable.snapshot_bytes", "bytes", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "plan_classheavy",
        why: "1M Table-I VMs on 250k PMs at paper host density: time is placement::batch plus the sim cell kernel and migration controller.",
    },
    WorkloadDef {
        name: "plan_traces",
        why: "4000 distinct fitted traces: per-VM packer and per-VM shared-stream sim, so class/batch/binomial-table work must show no change here.",
    },
    WorkloadDef {
        name: "serve_churn",
        why: "Seq-stamped single admits/departs on 2 connections against a 1M-VM daemon: tiny bodies, sub-us engine work, so time is listener/http/json/SeqWindow.",
    },
    WorkloadDef {
        name: "serve_mixed",
        why: "Un-seq'd writer with 12-VM batches and recalibrations beside a /v1/fleet + /metrics reader on a 100k-VM daemon: big bodies, engine-heavy ops stalling reads.",
    },
];

pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// What one workload run produced, before it is flattened to the
/// driver's result line.
#[derive(Default)]
pub struct Outcome {
    /// Operations offered to the system over the timed repeats: VMs to
    /// place for `plan_*`, HTTP requests for `serve_*`.
    pub attempted: u64,
    /// Operations the system did not complete: unplaced VMs, non-2xx
    /// responses, I/O errors.
    pub failed: u64,
    /// Correctness checks that did not hold, in words.
    pub errors: Vec<String>,
    /// Per-repeat samples of each end-to-end metric; the reported value
    /// is [`MetricDef::reported`] of them.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The traced run's ladder: `(layer, seconds per repeat)` rows that,
    /// with the last (residual) row, sum to `ladder_total`.
    pub ladder: Vec<(&'static str, f64)>,
    pub ladder_total: f64,
    /// `(row, part, seconds)`: a layer measured on its own whose time is
    /// contained in `row`'s.
    pub ladder_within: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            end_to_end(name).is_some(),
            "{name} is not an end-to-end metric"
        );
        self.samples.entry(name).or_default().push(value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.layers.insert(name, value);
    }

    pub fn summary(&self, name: &str) -> Option<Summary> {
        self.samples.get(name).map(|v| summarize(v))
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        Some(end_to_end(name)?.reported(self.samples.get(name)?))
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bursty_server::Json;

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the binary prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{key} array"))
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let direction = |def: &MetricDef| match def.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let table =
            |defs: &[MetricDef]| defs.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), table(END_TO_END));
        assert_eq!(names("per_layer"), table(PER_LAYER));
        assert_eq!(
            names("workloads"),
            WORKLOADS
                .iter()
                .map(|w| w.name.to_string())
                .collect::<Vec<_>>()
        );
        for (m, def) in json
            .get("end_to_end")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(m.get("better").and_then(Json::as_str), Some(direction(def)));
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                Some(def.bound),
                "{}",
                def.name
            );
        }
        for (m, def) in json
            .get("per_layer")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(m.get("better").and_then(Json::as_str), Some(direction(def)));
        }
        for (w, def) in json
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(w.get("why").and_then(Json::as_str), Some(def.why));
            assert!(def.why.len() <= 200, "{} why too long", def.name);
        }
    }
}
