//! Typed event journal: a bounded ring buffer of simulation events with
//! deterministic sim-time timestamps.
//!
//! Events come only from serial sections of the engine (fault handling,
//! violation scan, migration trigger, retry processing — never from the
//! parallel VM-evolution chunks), so the journal contents are invariant
//! under thread count and RNG layout given the same seed.

/// Why a VM entered the retry queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryCause {
    /// A triggered migration found no feasible target.
    Overload,
    /// A crash-displaced VM could not be evacuated anywhere.
    Evacuation,
}

impl RetryCause {
    pub(crate) fn name(self) -> &'static str {
        match self {
            RetryCause::Overload => "overload",
            RetryCause::Evacuation => "evacuation",
        }
    }
}

/// One structured simulation event. `step` is the engine's 0-based step
/// index at emission time — the deterministic sim-time timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A PM exceeded its capacity this step.
    Violation {
        step: u64,
        pm: usize,
        /// Aggregate observed load on the PM.
        observed: f64,
        /// The PM's capacity.
        capacity: f64,
        /// Whether the PM held degraded (epsilon) admissions this step.
        degraded: bool,
    },
    /// A VM moved between PMs.
    Migration {
        step: u64,
        vm: usize,
        from: usize,
        to: usize,
        /// True when the move landed from the retry queue.
        retried: bool,
    },
    /// A triggered migration found no feasible target.
    MigrationFailed { step: u64, vm: usize, pm: usize },
    /// A PM crashed, evicting `displaced` VMs.
    Crash {
        step: u64,
        pm: usize,
        displaced: usize,
    },
    /// A crashed PM came back.
    Recovery { step: u64, pm: usize },
    /// A displaced VM was evacuated (`to: None` means no PM could take it
    /// and the VM entered the retry queue).
    Evacuation {
        step: u64,
        vm: usize,
        from: usize,
        to: Option<usize>,
        /// Placed under the degraded (epsilon) admission rule.
        degraded: bool,
    },
    /// A VM entered the retry queue.
    RetryEnqueued {
        step: u64,
        vm: usize,
        cause: RetryCause,
        /// Prior attempts (0 on first enqueue).
        attempts: u32,
        /// The step at which the retry comes due.
        due_step: u64,
    },
    /// An overload retry was dropped after exhausting its attempts.
    RetryAbandoned { step: u64, vm: usize, attempts: u32 },
    /// An overload retry became moot (VM unhosted or back under budget).
    RetryCancelled { step: u64, vm: usize },
    /// A VM was admitted under the degraded (epsilon) margin.
    Admission {
        step: u64,
        vm: usize,
        pm: usize,
        degraded: bool,
    },
    /// Cumulative per-PM CVR inputs at a sampling point.
    CvrSample {
        step: u64,
        pm: usize,
        violations: u64,
        active: u64,
    },
    /// Per-step snapshot (only when the recorder opts in — high volume).
    Step {
        step: u64,
        pms_used: usize,
        violations: usize,
    },
    /// A VM left the online cluster (`step` is the driver's op index).
    OnlineDeparture { step: u64, vm: usize, pm: usize },
    /// An online recalibration re-rounded the switch probabilities;
    /// `rebuilt` is false when the pair moved less than ε and the cached
    /// mapping table was kept.
    Recalibration {
        step: u64,
        p_on: f64,
        p_off: f64,
        rebuilt: bool,
    },
    /// The placement daemon wrote a fleet snapshot (`step` is the applied
    /// op count at the checkpoint seam, `bytes` the frame size).
    Snapshot { step: u64, bytes: usize },
    /// The placement daemon restored a fleet snapshot at startup
    /// (`discarded` counts newer snapshot files rejected as corrupt
    /// before one verified).
    Restore { step: u64, discarded: usize },
}

impl Event {
    /// The event's deterministic sim-time timestamp.
    pub fn step(&self) -> u64 {
        match *self {
            Event::Violation { step, .. }
            | Event::Migration { step, .. }
            | Event::MigrationFailed { step, .. }
            | Event::Crash { step, .. }
            | Event::Recovery { step, .. }
            | Event::Evacuation { step, .. }
            | Event::RetryEnqueued { step, .. }
            | Event::RetryAbandoned { step, .. }
            | Event::RetryCancelled { step, .. }
            | Event::Admission { step, .. }
            | Event::CvrSample { step, .. }
            | Event::Step { step, .. }
            | Event::OnlineDeparture { step, .. }
            | Event::Recalibration { step, .. }
            | Event::Snapshot { step, .. }
            | Event::Restore { step, .. } => step,
        }
    }

    /// The PM the event concerns, when it has a single natural one.
    pub(crate) fn pm(&self) -> Option<usize> {
        match *self {
            Event::Violation { pm, .. }
            | Event::MigrationFailed { pm, .. }
            | Event::Crash { pm, .. }
            | Event::Recovery { pm, .. }
            | Event::Admission { pm, .. }
            | Event::CvrSample { pm, .. }
            | Event::OnlineDeparture { pm, .. } => Some(pm),
            Event::Migration { to, .. } => Some(to),
            Event::Evacuation { to, .. } => to,
            Event::RetryEnqueued { .. }
            | Event::RetryAbandoned { .. }
            | Event::RetryCancelled { .. }
            | Event::Step { .. }
            | Event::Recalibration { .. }
            | Event::Snapshot { .. }
            | Event::Restore { .. } => None,
        }
    }

    /// Stable `type` tag used in the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Violation { .. } => "violation",
            Event::Migration { .. } => "migration",
            Event::MigrationFailed { .. } => "migration_failed",
            Event::Crash { .. } => "crash",
            Event::Recovery { .. } => "recovery",
            Event::Evacuation { .. } => "evacuation",
            Event::RetryEnqueued { .. } => "retry_enqueued",
            Event::RetryAbandoned { .. } => "retry_abandoned",
            Event::RetryCancelled { .. } => "retry_cancelled",
            Event::Admission { .. } => "admission",
            Event::CvrSample { .. } => "cvr_sample",
            Event::Step { .. } => "step",
            Event::OnlineDeparture { .. } => "online_departure",
            Event::Recalibration { .. } => "recalibration",
            Event::Snapshot { .. } => "snapshot",
            Event::Restore { .. } => "restore",
        }
    }

    /// One JSON object per line, `\n`-terminated. Field order is fixed so
    /// `report::TraceReport` can parse with plain string scanning.
    pub fn to_json_line(&self) -> String {
        match *self {
            Event::Violation {
                step,
                pm,
                observed,
                capacity,
                degraded,
            } => format!(
                "{{\"type\":\"violation\",\"step\":{},\"pm\":{},\"observed\":{},\"capacity\":{},\"degraded\":{}}}\n",
                step, pm, observed, capacity, degraded
            ),
            Event::Migration {
                step,
                vm,
                from,
                to,
                retried,
            } => format!(
                "{{\"type\":\"migration\",\"step\":{},\"vm\":{},\"from\":{},\"to\":{},\"retried\":{}}}\n",
                step, vm, from, to, retried
            ),
            Event::MigrationFailed { step, vm, pm } => format!(
                "{{\"type\":\"migration_failed\",\"step\":{},\"vm\":{},\"pm\":{}}}\n",
                step, vm, pm
            ),
            Event::Crash {
                step,
                pm,
                displaced,
            } => format!(
                "{{\"type\":\"crash\",\"step\":{},\"pm\":{},\"displaced\":{}}}\n",
                step, pm, displaced
            ),
            Event::Recovery { step, pm } => format!(
                "{{\"type\":\"recovery\",\"step\":{},\"pm\":{}}}\n",
                step, pm
            ),
            Event::Evacuation {
                step,
                vm,
                from,
                to,
                degraded,
            } => match to {
                Some(to) => format!(
                    "{{\"type\":\"evacuation\",\"step\":{},\"vm\":{},\"from\":{},\"to\":{},\"degraded\":{}}}\n",
                    step, vm, from, to, degraded
                ),
                None => format!(
                    "{{\"type\":\"evacuation\",\"step\":{},\"vm\":{},\"from\":{},\"to\":null,\"degraded\":{}}}\n",
                    step, vm, from, degraded
                ),
            },
            Event::RetryEnqueued {
                step,
                vm,
                cause,
                attempts,
                due_step,
            } => format!(
                "{{\"type\":\"retry_enqueued\",\"step\":{},\"vm\":{},\"cause\":\"{}\",\"attempts\":{},\"due_step\":{}}}\n",
                step,
                vm,
                cause.name(),
                attempts,
                due_step
            ),
            Event::RetryAbandoned { step, vm, attempts } => format!(
                "{{\"type\":\"retry_abandoned\",\"step\":{},\"vm\":{},\"attempts\":{}}}\n",
                step, vm, attempts
            ),
            Event::RetryCancelled { step, vm } => format!(
                "{{\"type\":\"retry_cancelled\",\"step\":{},\"vm\":{}}}\n",
                step, vm
            ),
            Event::Admission {
                step,
                vm,
                pm,
                degraded,
            } => format!(
                "{{\"type\":\"admission\",\"step\":{},\"vm\":{},\"pm\":{},\"degraded\":{}}}\n",
                step, vm, pm, degraded
            ),
            Event::CvrSample {
                step,
                pm,
                violations,
                active,
            } => format!(
                "{{\"type\":\"cvr_sample\",\"step\":{},\"pm\":{},\"violations\":{},\"active\":{}}}\n",
                step, pm, violations, active
            ),
            Event::Step {
                step,
                pms_used,
                violations,
            } => format!(
                "{{\"type\":\"step\",\"step\":{},\"pms_used\":{},\"violations\":{}}}\n",
                step, pms_used, violations
            ),
            Event::OnlineDeparture { step, vm, pm } => format!(
                "{{\"type\":\"online_departure\",\"step\":{},\"vm\":{},\"pm\":{}}}\n",
                step, vm, pm
            ),
            Event::Recalibration {
                step,
                p_on,
                p_off,
                rebuilt,
            } => format!(
                "{{\"type\":\"recalibration\",\"step\":{},\"p_on\":{},\"p_off\":{},\"rebuilt\":{}}}\n",
                step, p_on, p_off, rebuilt
            ),
            Event::Snapshot { step, bytes } => format!(
                "{{\"type\":\"snapshot\",\"step\":{},\"bytes\":{}}}\n",
                step, bytes
            ),
            Event::Restore { step, discarded } => format!(
                "{{\"type\":\"restore\",\"step\":{},\"discarded\":{}}}\n",
                step, discarded
            ),
        }
    }
}

impl Event {
    /// Appends the event's compact binary encoding (tag byte + fields,
    /// all integers little-endian) — the checkpoint representation;
    /// [`Event::decode`] is the exact inverse.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        use crate::durable::{put_bool, put_f64, put_u32, put_u64, put_u8, put_usize};
        match *self {
            Event::Violation {
                step,
                pm,
                observed,
                capacity,
                degraded,
            } => {
                put_u8(buf, 0);
                put_u64(buf, step);
                put_usize(buf, pm);
                put_f64(buf, observed);
                put_f64(buf, capacity);
                put_bool(buf, degraded);
            }
            Event::Migration {
                step,
                vm,
                from,
                to,
                retried,
            } => {
                put_u8(buf, 1);
                put_u64(buf, step);
                put_usize(buf, vm);
                put_usize(buf, from);
                put_usize(buf, to);
                put_bool(buf, retried);
            }
            Event::MigrationFailed { step, vm, pm } => {
                put_u8(buf, 2);
                put_u64(buf, step);
                put_usize(buf, vm);
                put_usize(buf, pm);
            }
            Event::Crash {
                step,
                pm,
                displaced,
            } => {
                put_u8(buf, 3);
                put_u64(buf, step);
                put_usize(buf, pm);
                put_usize(buf, displaced);
            }
            Event::Recovery { step, pm } => {
                put_u8(buf, 4);
                put_u64(buf, step);
                put_usize(buf, pm);
            }
            Event::Evacuation {
                step,
                vm,
                from,
                to,
                degraded,
            } => {
                put_u8(buf, 5);
                put_u64(buf, step);
                put_usize(buf, vm);
                put_usize(buf, from);
                match to {
                    Some(j) => {
                        put_bool(buf, true);
                        put_usize(buf, j);
                    }
                    None => put_bool(buf, false),
                }
                put_bool(buf, degraded);
            }
            Event::RetryEnqueued {
                step,
                vm,
                cause,
                attempts,
                due_step,
            } => {
                put_u8(buf, 6);
                put_u64(buf, step);
                put_usize(buf, vm);
                put_u8(buf, matches!(cause, RetryCause::Evacuation) as u8);
                put_u32(buf, attempts);
                put_u64(buf, due_step);
            }
            Event::RetryAbandoned { step, vm, attempts } => {
                put_u8(buf, 7);
                put_u64(buf, step);
                put_usize(buf, vm);
                put_u32(buf, attempts);
            }
            Event::RetryCancelled { step, vm } => {
                put_u8(buf, 8);
                put_u64(buf, step);
                put_usize(buf, vm);
            }
            Event::Admission {
                step,
                vm,
                pm,
                degraded,
            } => {
                put_u8(buf, 9);
                put_u64(buf, step);
                put_usize(buf, vm);
                put_usize(buf, pm);
                put_bool(buf, degraded);
            }
            Event::CvrSample {
                step,
                pm,
                violations,
                active,
            } => {
                put_u8(buf, 10);
                put_u64(buf, step);
                put_usize(buf, pm);
                put_u64(buf, violations);
                put_u64(buf, active);
            }
            Event::Step {
                step,
                pms_used,
                violations,
            } => {
                put_u8(buf, 11);
                put_u64(buf, step);
                put_usize(buf, pms_used);
                put_usize(buf, violations);
            }
            Event::OnlineDeparture { step, vm, pm } => {
                put_u8(buf, 12);
                put_u64(buf, step);
                put_usize(buf, vm);
                put_usize(buf, pm);
            }
            Event::Recalibration {
                step,
                p_on,
                p_off,
                rebuilt,
            } => {
                put_u8(buf, 13);
                put_u64(buf, step);
                put_f64(buf, p_on);
                put_f64(buf, p_off);
                put_bool(buf, rebuilt);
            }
            Event::Snapshot { step, bytes } => {
                put_u8(buf, 14);
                put_u64(buf, step);
                put_usize(buf, bytes);
            }
            Event::Restore { step, discarded } => {
                put_u8(buf, 15);
                put_u64(buf, step);
                put_usize(buf, discarded);
            }
        }
    }

    /// Decodes one event from a [`Cursor`](crate::durable::Cursor);
    /// inverse of [`Event::encode`].
    pub(crate) fn decode(
        c: &mut crate::durable::Cursor<'_>,
    ) -> Result<Self, crate::durable::FrameError> {
        use crate::durable::FrameError;
        let tag = c.u8()?;
        Ok(match tag {
            0 => Event::Violation {
                step: c.u64()?,
                pm: c.usize()?,
                observed: c.f64()?,
                capacity: c.f64()?,
                degraded: c.boolean()?,
            },
            1 => Event::Migration {
                step: c.u64()?,
                vm: c.usize()?,
                from: c.usize()?,
                to: c.usize()?,
                retried: c.boolean()?,
            },
            2 => Event::MigrationFailed {
                step: c.u64()?,
                vm: c.usize()?,
                pm: c.usize()?,
            },
            3 => Event::Crash {
                step: c.u64()?,
                pm: c.usize()?,
                displaced: c.usize()?,
            },
            4 => Event::Recovery {
                step: c.u64()?,
                pm: c.usize()?,
            },
            5 => Event::Evacuation {
                step: c.u64()?,
                vm: c.usize()?,
                from: c.usize()?,
                to: if c.boolean()? { Some(c.usize()?) } else { None },
                degraded: c.boolean()?,
            },
            6 => Event::RetryEnqueued {
                step: c.u64()?,
                vm: c.usize()?,
                cause: if c.u8()? == 1 {
                    RetryCause::Evacuation
                } else {
                    RetryCause::Overload
                },
                attempts: c.u32()?,
                due_step: c.u64()?,
            },
            7 => Event::RetryAbandoned {
                step: c.u64()?,
                vm: c.usize()?,
                attempts: c.u32()?,
            },
            8 => Event::RetryCancelled {
                step: c.u64()?,
                vm: c.usize()?,
            },
            9 => Event::Admission {
                step: c.u64()?,
                vm: c.usize()?,
                pm: c.usize()?,
                degraded: c.boolean()?,
            },
            10 => Event::CvrSample {
                step: c.u64()?,
                pm: c.usize()?,
                violations: c.u64()?,
                active: c.u64()?,
            },
            11 => Event::Step {
                step: c.u64()?,
                pms_used: c.usize()?,
                violations: c.usize()?,
            },
            12 => Event::OnlineDeparture {
                step: c.u64()?,
                vm: c.usize()?,
                pm: c.usize()?,
            },
            13 => Event::Recalibration {
                step: c.u64()?,
                p_on: c.f64()?,
                p_off: c.f64()?,
                rebuilt: c.boolean()?,
            },
            14 => Event::Snapshot {
                step: c.u64()?,
                bytes: c.usize()?,
            },
            15 => Event::Restore {
                step: c.u64()?,
                discarded: c.usize()?,
            },
            t => return Err(FrameError::Decode(format!("unknown event tag {t}"))),
        })
    }
}

/// Bounded FIFO of events. When full, pushing evicts the oldest event and
/// bumps the `dropped` count, so long runs keep the most recent history —
/// the part a failure diagnosis needs.
#[derive(Debug, Clone)]
pub struct EventJournal {
    buf: Vec<Event>,
    /// Index of the logical first (oldest) element in `buf`.
    head: usize,
    cap: usize,
    dropped: u64,
}

impl EventJournal {
    /// A journal holding at most `cap` events; `cap == 0` discards all.
    pub(crate) fn new(cap: usize) -> Self {
        EventJournal {
            buf: Vec::with_capacity(cap.min(4096)),
            head: 0,
            cap,
            dropped: 0,
        }
    }

    /// Rebuilds a journal from snapshot parts: `events` oldest → newest
    /// (at most `cap` of them) and the prior eviction count. The
    /// restored journal's `iter`/`tail`/`push` behaviour is
    /// indistinguishable from the original's.
    ///
    /// # Panics
    /// Panics when `events.len() > cap`.
    pub(crate) fn from_parts(cap: usize, events: Vec<Event>, dropped: u64) -> Self {
        assert!(
            events.len() <= cap,
            "{} events exceed capacity {cap}",
            events.len()
        );
        EventJournal {
            buf: events,
            head: 0,
            cap,
            dropped,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted (or discarded by a zero-capacity journal).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn push(&mut self, event: Event) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Iterate oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let (tail, head) = self.buf.split_at(self.head);
        head.iter().chain(tail.iter())
    }

    /// The last `n` events (oldest → newest), optionally filtered to those
    /// touching one PM — the "journal tail" the certification suite prints
    /// for an offending PM.
    pub fn tail(&self, n: usize, pm: Option<usize>) -> Vec<Event> {
        let mut picked: Vec<Event> = self
            .iter()
            .filter(|e| pm.is_none() || e.pm() == pm)
            .copied()
            .collect();
        if picked.len() > n {
            picked.drain(..picked.len() - n);
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(step: u64, pm: usize) -> Event {
        Event::Recovery { step, pm }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut j = EventJournal::new(3);
        for step in 0..5 {
            j.push(rec(step, 0));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        let steps: Vec<u64> = j.iter().map(|e| e.step()).collect();
        assert_eq!(steps, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_discards() {
        let mut j = EventJournal::new(0);
        j.push(rec(0, 0));
        assert!(j.is_empty());
        assert_eq!(j.dropped(), 1);
    }

    #[test]
    fn tail_filters_by_pm() {
        let mut j = EventJournal::new(16);
        j.push(rec(0, 0));
        j.push(rec(1, 1));
        j.push(rec(2, 0));
        j.push(rec(3, 1));
        let t = j.tail(10, Some(1));
        assert_eq!(t.len(), 2);
        assert!(t.iter().all(|e| e.pm() == Some(1)));
        let t = j.tail(1, Some(0));
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].step(), 2);
    }

    #[test]
    fn json_lines_carry_type_tags() {
        let events = [
            Event::Violation {
                step: 1,
                pm: 2,
                observed: 55.0,
                capacity: 50.0,
                degraded: false,
            },
            Event::Evacuation {
                step: 2,
                vm: 3,
                from: 1,
                to: None,
                degraded: false,
            },
            Event::RetryEnqueued {
                step: 2,
                vm: 3,
                cause: RetryCause::Evacuation,
                attempts: 0,
                due_step: 4,
            },
        ];
        for e in &events {
            let line = e.to_json_line();
            assert!(line.ends_with('\n'));
            assert!(line.contains(&format!("\"type\":\"{}\"", e.kind())));
        }
        assert!(events[1].to_json_line().contains("\"to\":null"));
        assert!(events[2]
            .to_json_line()
            .contains("\"cause\":\"evacuation\""));
    }
}
