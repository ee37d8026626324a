//! Summarize a `--trace-out` JSONL dump (the format emitted by
//! [`MemoryRecorder::to_jsonl`](crate::MemoryRecorder::to_jsonl)) for the
//! `trace-report` CLI subcommand.
//!
//! The workspace has no JSON library, so this parses with targeted string
//! scanning — sufficient because we only ever read back our own writer's
//! fixed field order, and defensive enough to reject non-trace input with
//! a useful error.

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

/// Extract `"key":<number>` from a JSON-ish line. Only handles the
/// non-negative integers our own writer emits.
fn int_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{}\":", key);
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract `"key":<number>` as an `f64` (handles the `-?d+(.d+)?(e±d+)?`
/// forms our own writer emits).
fn f64_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{}\":", key);
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract `"key":"value"` from a JSON-ish line.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{}\":\"", key);
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Parse the `"counters":{...}` / `"gauges":{...}` style object embedded
/// in the meta line, returning its `name -> numeric-text` pairs.
fn object_fields(line: &str, key: &str) -> Vec<(String, String)> {
    let pat = format!("\"{}\":{{", key);
    let Some(start) = line.find(&pat) else {
        return Vec::new();
    };
    let body_start = start + pat.len();
    let Some(rel_end) = line[body_start..].find('}') else {
        return Vec::new();
    };
    let body = &line[body_start..body_start + rel_end];
    let mut out = Vec::new();
    for pair in body.split(',') {
        let Some((name, value)) = pair.split_once(':') else {
            continue;
        };
        let name = name.trim().trim_matches('"');
        if name.is_empty() {
            continue;
        }
        out.push((name.to_string(), value.trim().to_string()));
    }
    out
}

impl TraceReport {
    /// Parse a JSONL trace one line at a time. Memory stays bounded by the
    /// longest single line plus the fixed-size sketches and per-name maps —
    /// never by the trace length, so multi-gigabyte `--trace-out` dumps
    /// report fine. Returns `Err` with a line number and reason when the
    /// input does not look like a trace dump (or the reader fails).
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
            let Some(kind) = str_field(line, "type") else {
                return Err(format!("line {idx}: no \"type\" field"));
            };
            match kind {
                "meta" => {
                    saw_meta = true;
                    for (name, value) in object_fields(line, "counters") {
                        if let Ok(v) = value.parse::<u64>() {
                            report.counters.insert(name, v);
                        }
                    }
                    for (name, value) in object_fields(line, "gauges") {
                        if let Ok(v) = value.parse::<f64>() {
                            report.gauges.insert(name, v);
                        }
                    }
                    report.journal_dropped = int_field(line, "journal_dropped").unwrap_or(0);
                }
                "cvr_series" => report.cvr_series += 1,
                _ => {
                    report.events += 1;
                    *report.event_counts.entry(kind.to_string()).or_insert(0) += 1;
                    if let Some(step) = int_field(line, "step") {
                        report.step_range = Some(match report.step_range {
                            None => (step, step),
                            Some((lo, hi)) => (lo.min(step), hi.max(step)),
                        });
                    }
                    if kind == "violation" {
                        if let Some(pm) = int_field(line, "pm") {
                            *report.violations_by_pm.entry(pm).or_insert(0) += 1;
                        }
                        if let (Some(observed), Some(capacity)) =
                            (f64_field(line, "observed"), f64_field(line, "capacity"))
                        {
                            if capacity > 0.0 {
                                report.overload_ratio.push(observed / capacity);
                            }
                        }
                    }
                    if kind == "crash" {
                        if let Some(displaced) = int_field(line, "displaced") {
                            report.crash_displaced.record(displaced);
                        }
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
    use crate::journal::Event;
    use crate::recorder::{Counter, Gauge, MemoryRecorder, Recorder};

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
}
