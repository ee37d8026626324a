//! Harness-side spans: the benchmark times its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//!
//! Spans stay in memory until the run ends and are then written as one
//! JSON object per line. A disabled tracer still runs the closure and
//! still returns its duration — the untraced run needs the same phase
//! times — it just keeps no record.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` indexes the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub repeat: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    repeat: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            repeat: 0,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off — a traced run alternates traced and
    /// untraced repeats to price the tracing itself.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn set_repeat(&mut self, repeat: u32) {
        self.repeat = repeat;
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that will contain child spans; close it with
    /// [`Tracer::close`]. Returns `None` when disabled.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            repeat: self.repeat,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some((self.spans.len() - 1) as u32)
    }

    pub fn close(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Times `f` as a leaf span under `parent`; returns its result and
    /// the seconds it took.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.close(id);
        (out, secs)
    }

    /// Records a span whose endpoints were taken elsewhere (a client
    /// thread's request timestamps, converted with [`Tracer::epoch`]).
    pub fn push(&mut self, name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                repeat: self.repeat,
                start_ns,
                end_ns,
                parent,
            });
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as a JSON line:
    /// `{"name":..,"workload":..,"repeat":..,"start_ns":..,"end_ns":..,"parent":..}`.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"workload\":\"{}\",\"repeat\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, workload, s.repeat, s.start_ns, s.end_ns, parent
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(true);
        t.set_repeat(3);
        let root = t.open("repeat", None);
        let (v, secs) = t.time("leaf", root, || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[1].name, s[1].parent, s[1].repeat), ("leaf", Some(0), 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        let root = off.open("repeat", None);
        let (v, _) = off.time("leaf", root, || 7);
        off.close(root);
        assert_eq!((v, off.spans().len(), root), (7, 0, None));
    }
}
