//! Summarize a `--trace-out` JSONL dump (the format emitted by
//! [`MemoryRecorder::to_jsonl`](crate::MemoryRecorder::to_jsonl)) for the
//! `trace-report` CLI subcommand.
//!
//! Each complete line is parsed with [`Json::parse`], the same module that
//! wrote it, and read through its accessors: a line that is not JSON, or a
//! record that lacks a field the report uses, is an error naming its line.

use crate::json::Json;
use bursty_metrics::{Histogram, Log2Histogram};
use std::collections::BTreeMap;
use std::io::BufRead;

/// Parsed summary of one trace file.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Counter name → value, from the meta record.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value, from the meta record.
    pub gauges: BTreeMap<String, f64>,
    /// Events dropped by the ring buffer, from the meta record.
    pub journal_dropped: u64,
    /// Event `type` tag → occurrence count across the journal lines.
    pub event_counts: BTreeMap<String, u64>,
    /// Inclusive step range covered by journal events, if any.
    pub step_range: Option<(u64, u64)>,
    /// PM → violation-event count (journal lines, not the counter).
    pub violations_by_pm: BTreeMap<u64, u64>,
    /// Number of `cvr_series` records (one per sampled PM).
    pub cvr_series: usize,
    /// Total journal event lines parsed.
    pub events: u64,
    /// Sketch of `observed / capacity` across violation events: how far
    /// over the line the overloads run, summarized as percentiles. Fixed
    /// bins over `[1, 4)` — constant memory however long the trace is.
    pub overload_ratio: Histogram,
    /// Sketch of crash `displaced` counts (log2-bucketed: displacement
    /// sizes span orders of magnitude between idle and packed PMs).
    pub crash_displaced: Log2Histogram,
    /// Lines cut off mid-write at the end of the file (a crash while the
    /// trace was being written). The writer terminates every line with
    /// `\n`, so a final line without one is by construction torn; it is
    /// skipped and counted here rather than failing the parse.
    pub torn_tail: u64,
}

impl Default for TraceReport {
    fn default() -> Self {
        TraceReport {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            journal_dropped: 0,
            event_counts: BTreeMap::new(),
            step_range: None,
            violations_by_pm: BTreeMap::new(),
            cvr_series: 0,
            events: 0,
            overload_ratio: Histogram::new(1.0, 4.0, 120),
            crash_displaced: Log2Histogram::new(33),
            torn_tail: 0,
        }
    }
}

impl TraceReport {
    /// Parse a JSONL trace one line at a time. Memory stays bounded by the
    /// longest single line (its text and its parsed tree) plus the
    /// fixed-size sketches and per-name maps — never by the trace length,
    /// so multi-gigabyte `--trace-out` dumps report fine. Returns `Err`
    /// with a line number and reason when a complete line is not JSON or
    /// lacks a field the report reads, when no meta record is found, or
    /// when the reader fails.
    pub fn from_reader<R: BufRead>(mut input: R) -> Result<TraceReport, String> {
        let mut report = TraceReport::default();
        let mut saw_meta = false;
        let mut buf = String::new();
        let mut idx = 0usize;
        loop {
            buf.clear();
            let n = input
                .read_line(&mut buf)
                .map_err(|e| format!("read error at line {}: {e}", idx + 1))?;
            if n == 0 {
                break;
            }
            idx += 1;
            if !buf.ends_with('\n') {
                // `read_line` stops short of `\n` only at end of input,
                // and the trace writer `\n`-terminates every line — so
                // this is a crash-truncated tail. An expected state now
                // that traces outlive their writers: count it as a
                // warning instead of failing the whole report.
                report.torn_tail += 1;
                continue;
            }
            let line = buf.trim();
            if line.is_empty() {
                continue;
            }
            let record = Json::parse(line.as_bytes()).map_err(|e| format!("line {idx}: {e}"))?;
            let field = |key: &str| record.get(key).unwrap_or(&Json::Null);
            let int = |key: &str| {
                field(key)
                    .as_u64()
                    .ok_or_else(|| format!("line {idx}: no integer \"{key}\""))
            };
            let Some(kind) = field("type").as_str() else {
                return Err(format!("line {idx}: no \"type\" field"));
            };
            match kind {
                "meta" => {
                    saw_meta = true;
                    let members = |key: &str| match field(key) {
                        Json::Obj(pairs) => Ok(pairs),
                        _ => Err(format!("line {idx}: no \"{key}\" object")),
                    };
                    for (name, value) in members("counters")? {
                        let v = value
                            .as_u64()
                            .ok_or_else(|| format!("line {idx}: counter {name} is no integer"))?;
                        report.counters.insert(name.clone(), v);
                    }
                    for (name, value) in members("gauges")? {
                        // The writer turns a non-finite gauge into `null`.
                        let v = match value {
                            Json::Null => f64::NAN,
                            v => v
                                .as_f64()
                                .ok_or_else(|| format!("line {idx}: gauge {name} is no number"))?,
                        };
                        report.gauges.insert(name.clone(), v);
                    }
                    report.journal_dropped = int("journal_dropped")?;
                }
                "cvr_series" => report.cvr_series += 1,
                _ => {
                    let step = int("step")?;
                    report.events += 1;
                    *report.event_counts.entry(kind.to_string()).or_insert(0) += 1;
                    report.step_range = Some(match report.step_range {
                        None => (step, step),
                        Some((lo, hi)) => (lo.min(step), hi.max(step)),
                    });
                    if kind == "violation" {
                        *report.violations_by_pm.entry(int("pm")?).or_insert(0) += 1;
                        if let (Some(observed), Some(capacity)) =
                            (field("observed").as_f64(), field("capacity").as_f64())
                        {
                            if capacity > 0.0 {
                                report.overload_ratio.push(observed / capacity);
                            }
                        }
                    }
                    if kind == "crash" {
                        report.crash_displaced.record(int("displaced")?);
                    }
                }
            }
        }
        if !saw_meta {
            return Err("no meta record found; is this a --trace-out file?".to_string());
        }
        Ok(report)
    }

    /// Render the human-readable report the CLI prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "trace report");
        let _ = writeln!(out, "============");
        if let Some((lo, hi)) = self.step_range {
            let _ = writeln!(
                out,
                "journal events : {} (steps {}..={})",
                self.events, lo, hi
            );
        } else {
            let _ = writeln!(out, "journal events : {}", self.events);
        }
        if self.journal_dropped > 0 {
            let _ = writeln!(
                out,
                "  (ring buffer evicted {} older events)",
                self.journal_dropped
            );
        }
        if self.torn_tail > 0 {
            let _ = writeln!(
                out,
                "warning: {} torn line(s) at end of file (trace truncated mid-write)",
                self.torn_tail
            );
        }
        if !self.event_counts.is_empty() {
            let _ = writeln!(out, "by type:");
            for (kind, n) in &self.event_counts {
                let _ = writeln!(out, "  {:<18} {}", kind, n);
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {:<26} {}", name, v);
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {:<26} {}", name, v);
            }
        }
        if !self.violations_by_pm.is_empty() {
            // Top offenders, highest violation-event count first.
            let mut pms: Vec<(u64, u64)> = self
                .violations_by_pm
                .iter()
                .map(|(&pm, &n)| (pm, n))
                .collect();
            pms.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let _ = writeln!(out, "violations by pm (top {}):", pms.len().min(10));
            for &(pm, n) in pms.iter().take(10) {
                let _ = writeln!(out, "  pm {:<6} {}", pm, n);
            }
        }
        if self.overload_ratio.total() > 0 {
            let q = |p| self.overload_ratio.quantile(p).unwrap_or(f64::NAN);
            let _ = writeln!(
                out,
                "overload ratio : p50 {:.3}  p90 {:.3}  p99 {:.3} (observed/capacity)",
                q(0.5),
                q(0.9),
                q(0.99)
            );
        }
        if self.crash_displaced.total() > 0 {
            let q = |p| self.crash_displaced.quantile(p).unwrap_or(0);
            let _ = writeln!(
                out,
                "crash displaced: p50 <= {}  p99 <= {} VMs per crash",
                q(0.5),
                q(0.99)
            );
        }
        if self.cvr_series > 0 {
            let _ = writeln!(out, "cvr series     : {} sampled PMs", self.cvr_series);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Event, RetryCause};
    use crate::recorder::{Counter, Gauge, MemoryRecorder, Recorder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn round_trips_a_memory_recorder_dump() {
        let mut r = MemoryRecorder::new(64).with_cvr_sampling(10);
        r.counter_add(Counter::Steps, 200);
        r.counter_add(Counter::Migrations, 3);
        r.gauge_set(Gauge::FinalPmsUsed, 4.0);
        r.record_event(Event::Violation {
            step: 7,
            pm: 1,
            observed: 55.0,
            capacity: 50.0,
            degraded: false,
        });
        r.record_event(Event::Violation {
            step: 8,
            pm: 1,
            observed: 56.0,
            capacity: 50.0,
            degraded: false,
        });
        r.record_event(Event::Migration {
            step: 9,
            vm: 0,
            from: 1,
            to: 2,
            retried: false,
        });
        r.sample_cvr(9, &[2, 0], &[10, 10]);

        let report = TraceReport::from_reader(r.to_jsonl().as_bytes()).unwrap();
        assert_eq!(report.counters["steps"], 200);
        assert_eq!(report.counters["migrations"], 3);
        assert_eq!(report.gauges["final_pms_used"], 4.0);
        assert_eq!(report.events, 3);
        assert_eq!(report.event_counts["violation"], 2);
        assert_eq!(report.event_counts["migration"], 1);
        assert_eq!(report.step_range, Some((7, 9)));
        assert_eq!(report.violations_by_pm[&1], 2);
        assert_eq!(report.cvr_series, 2);

        let text = report.render();
        assert!(text.contains("violation"));
        assert!(text.contains("pm 1"));
    }

    #[test]
    fn streaming_reader_matches_in_memory_parse_and_sketches_fill() {
        let mut r = MemoryRecorder::new(64);
        for step in 0..40 {
            r.record_event(Event::Violation {
                step,
                pm: (step % 3) as usize,
                observed: 50.0 + step as f64,
                capacity: 50.0,
                degraded: false,
            });
        }
        r.record_event(Event::Crash {
            step: 41,
            pm: 0,
            displaced: 12,
        });
        let text = r.to_jsonl();

        let whole = TraceReport::from_reader(text.as_bytes()).unwrap();
        // Drip the same bytes through a tiny BufReader so read_line has to
        // cross buffer boundaries mid-line.
        let streamed =
            TraceReport::from_reader(std::io::BufReader::with_capacity(7, text.as_bytes()))
                .unwrap();
        assert_eq!(streamed.events, whole.events);
        assert_eq!(streamed.event_counts, whole.event_counts);
        assert_eq!(streamed.violations_by_pm, whole.violations_by_pm);
        assert_eq!(streamed.overload_ratio, whole.overload_ratio);
        assert_eq!(streamed.crash_displaced, whole.crash_displaced);

        // Ratios run 1.0..=1.78; the sketch must see all 40 and place the
        // median near 1.4.
        assert_eq!(streamed.overload_ratio.total(), 40);
        let p50 = streamed.overload_ratio.quantile(0.5).unwrap();
        assert!((1.3..1.5).contains(&p50), "p50 {p50}");
        assert_eq!(streamed.crash_displaced.total(), 1);
        assert_eq!(streamed.crash_displaced.quantile(0.5), Some(15));

        let rendered = streamed.render();
        assert!(rendered.contains("overload ratio"), "{rendered}");
        assert!(rendered.contains("crash displaced"), "{rendered}");
    }

    #[test]
    fn a_corrupt_complete_line_is_an_error_naming_it() {
        let meta = MemoryRecorder::new(0).to_jsonl();
        let cut = r#"{"type":"violation","step":7,"pm":"#;
        for bad in [
            cut,
            r#"xx "type":"crash" yy"#,
            r#"{"type":"violation","step":7}"#,
            r#"{"type":"crash","step":-1,"pm":0,"displaced":1}"#,
        ] {
            let text = meta.clone() + bad + "\n";
            let err = TraceReport::from_reader(text.as_bytes()).unwrap_err();
            assert!(err.starts_with("line 2: "), "{bad}: {err}");
        }
        // Without its `\n` the same cut line is a torn tail, not an error.
        let report = TraceReport::from_reader((meta + cut).as_bytes()).unwrap();
        assert_eq!((report.torn_tail, report.events), (1, 0));
    }

    #[test]
    fn a_null_gauge_reads_back_as_nan() {
        let mut r = MemoryRecorder::new(0);
        r.gauge_set(Gauge::EnergyJoules, f64::NAN);
        r.gauge_set(Gauge::PeakPmsUsed, f64::INFINITY);
        let report = TraceReport::from_reader(r.to_jsonl().as_bytes()).unwrap();
        assert!(report.gauges["energy_joules"].is_nan());
        assert!(report.gauges["peak_pms_used"].is_nan());
        assert!(report.render().contains("energy_joules              NaN"));
    }

    #[test]
    fn rejects_non_trace_input() {
        assert!(TraceReport::from_reader("hello world\n".as_bytes()).is_err());
        // Valid-looking events but no meta line.
        let err =
            TraceReport::from_reader("{\"type\":\"recovery\",\"step\":1,\"pm\":0}\n".as_bytes())
                .unwrap_err();
        assert!(err.contains("no meta record"));
    }

    #[test]
    fn byte_truncated_tail_is_a_warning_not_a_parse_failure() {
        let mut r = MemoryRecorder::new(64);
        for step in 0..5 {
            r.record_event(Event::Recovery { step, pm: 0 });
        }
        let text = r.to_jsonl();
        let full = TraceReport::from_reader(text.as_bytes()).unwrap();
        assert_eq!(full.torn_tail, 0);
        assert!(!full.render().contains("torn"));

        // Cut the dump mid final line at every possible byte offset: the
        // torn tail must be counted, never parsed, never a hard error.
        let last_line_start = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        for cut in last_line_start + 1..text.len() {
            let report = TraceReport::from_reader(&text.as_bytes()[..cut])
                .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(report.torn_tail, 1, "cut at {cut}");
            assert_eq!(report.events, full.events - 1, "cut at {cut}");
            assert!(report.render().contains("torn line(s) at end of file"));
        }

        // Truncating inside the *meta* line still fails (nothing usable),
        // but with the no-meta error, not a line-parse error.
        let meta_len = text.find('\n').unwrap();
        let err = TraceReport::from_reader(&text.as_bytes()[..meta_len - 2]).unwrap_err();
        assert!(err.contains("no meta record"), "{err}");
    }

    #[test]
    fn empty_meta_only_trace_is_fine() {
        let r = MemoryRecorder::new(8);
        let report = TraceReport::from_reader(r.to_jsonl().as_bytes()).unwrap();
        assert_eq!(report.events, 0);
        assert!(report.render().contains("journal events : 0"));
    }

    /// An integer a JSON number holds exactly, small most of the time.
    fn id(rng: &mut StdRng) -> usize {
        if rng.gen_bool(0.9) {
            rng.gen_range(0..64)
        } else {
            rng.gen_range(0..1usize << 53)
        }
    }

    /// Any finite `f64`, from its bits, or a plain load figure.
    fn finite(rng: &mut StdRng) -> f64 {
        let v = f64::from_bits(rng.next_u64());
        if v.is_finite() && rng.gen_bool(0.5) {
            v
        } else {
            rng.gen_range(0.0..200.0)
        }
    }

    fn event(rng: &mut StdRng) -> Event {
        let step = id(rng) as u64;
        let (vm, pm, flag) = (id(rng), id(rng), rng.gen_bool(0.5));
        match rng.gen_range(0..16) {
            0 => Event::Violation {
                step,
                pm,
                observed: finite(rng),
                capacity: finite(rng),
                degraded: flag,
            },
            1 => Event::Migration {
                step,
                vm,
                from: pm,
                to: id(rng),
                retried: flag,
            },
            2 => Event::MigrationFailed { step, vm, pm },
            3 => Event::Crash {
                step,
                pm,
                displaced: id(rng),
            },
            4 => Event::Recovery { step, pm },
            5 => Event::Evacuation {
                step,
                vm,
                from: pm,
                to: flag.then(|| id(rng)),
                degraded: rng.gen_bool(0.5),
            },
            6 => Event::RetryEnqueued {
                step,
                vm,
                cause: [RetryCause::Overload, RetryCause::Evacuation][flag as usize],
                attempts: rng.gen(),
                due_step: id(rng) as u64,
            },
            7 => Event::RetryAbandoned {
                step,
                vm,
                attempts: rng.gen(),
            },
            8 => Event::RetryCancelled { step, vm },
            9 => Event::Admission {
                step,
                vm,
                pm,
                degraded: flag,
            },
            10 => Event::CvrSample {
                step,
                pm,
                violations: id(rng) as u64,
                active: id(rng) as u64,
            },
            11 => Event::Step {
                step,
                pms_used: pm,
                violations: vm,
            },
            12 => Event::OnlineDeparture { step, vm, pm },
            13 => Event::Recalibration {
                step,
                p_on: finite(rng),
                p_off: finite(rng),
            },
            14 => Event::Snapshot { step, bytes: vm },
            _ => Event::Restore {
                step,
                discarded: pm,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn a_dump_reads_back_as_a_walk_of_the_recorder(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut r = MemoryRecorder::new(rng.gen_range(0..24)).with_cvr_sampling(5);
            for c in Counter::all() {
                if rng.gen_bool(0.5) {
                    r.counter_add(c, id(&mut rng) as u64);
                }
            }
            for g in Gauge::all() {
                if rng.gen_bool(0.7) {
                    r.gauge_set(g, finite(&mut rng));
                }
            }
            for _ in 0..rng.gen_range(0..40) {
                r.record_event(event(&mut rng));
            }
            let pms = rng.gen_range(0..4);
            r.sample_cvr(4, &vec![1; pms], &vec![5; pms]);

            let report = TraceReport::from_reader(r.to_jsonl().as_bytes()).unwrap();

            let counters: BTreeMap<String, u64> = Counter::all()
                .into_iter()
                .filter(|&c| r.counter(c) != 0)
                .map(|c| (c.name().to_string(), r.counter(c)))
                .collect();
            let gauges: BTreeMap<String, f64> = Gauge::all()
                .into_iter()
                .filter(|&g| r.gauge(g) != 0.0)
                .map(|g| (g.name().to_string(), r.gauge(g)))
                .collect();
            let mut event_counts = BTreeMap::new();
            let mut violations_by_pm = BTreeMap::new();
            for e in r.journal().iter() {
                *event_counts.entry(e.kind().to_string()).or_insert(0) += 1;
                if let Event::Violation { pm, .. } = *e {
                    *violations_by_pm.entry(pm as u64).or_insert(0) += 1;
                }
            }
            let steps = || r.journal().iter().map(Event::step);
            let step_range = steps().min().zip(steps().max());

            prop_assert_eq!(report.counters, counters);
            prop_assert_eq!(report.gauges, gauges);
            prop_assert_eq!(report.journal_dropped, r.journal().dropped());
            prop_assert_eq!(report.event_counts, event_counts);
            prop_assert_eq!(report.step_range, step_range);
            prop_assert_eq!(report.violations_by_pm, violations_by_pm);
            prop_assert_eq!(report.cvr_series, r.cvr_series().len());
            prop_assert_eq!(report.events, r.journal().len() as u64);
        }
    }
}
