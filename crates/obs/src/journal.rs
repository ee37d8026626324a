//! Typed event journal: a bounded ring buffer of simulation events with
//! deterministic sim-time timestamps.
//!
//! Events come only from serial sections of the engine (fault handling,
//! violation scan, migration trigger, retry processing — never from the
//! parallel VM-evolution chunks), so the journal contents are invariant
//! under thread count and RNG layout given the same seed.

use crate::durable::{Cursor, FrameError, Wire};
use crate::json::{obj, Json};

/// Why a VM entered the retry queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryCause {
    /// A triggered migration found no feasible target.
    Overload,
    /// A crash-displaced VM could not be evacuated anywhere.
    Evacuation,
}

/// One byte: `0` for `Overload`, `1` for `Evacuation`; any other byte
/// fails to decode.
impl Wire for RetryCause {
    const MIN_BYTES: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        u8::from(*self == RetryCause::Evacuation).put(buf);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        match u8::get(c)? {
            0 => Ok(RetryCause::Overload),
            1 => Ok(RetryCause::Evacuation),
            t => Err(FrameError::Decode(format!("unknown retry cause {t}"))),
        }
    }
}

/// The JSON value of one event field; its binary form is its [`Wire`]
/// impl. Every field type an [`Event`] carries implements both, so the
/// codecs below are generated per field rather than per variant.
pub(crate) trait Field: Wire {
    fn to_json(self) -> Json;
}

impl Field for u64 {
    fn to_json(self) -> Json {
        Json::Num(self as f64)
    }
}

impl Field for usize {
    fn to_json(self) -> Json {
        Json::Num(self as f64)
    }
}

impl Field for u32 {
    fn to_json(self) -> Json {
        Json::Num(self.into())
    }
}

impl Field for f64 {
    fn to_json(self) -> Json {
        Json::Num(self)
    }
}

impl Field for bool {
    fn to_json(self) -> Json {
        Json::Bool(self)
    }
}

/// `null` when absent.
impl Field for Option<usize> {
    fn to_json(self) -> Json {
        self.map_or(Json::Null, Field::to_json)
    }
}

/// The cause's lower-case name.
impl Field for RetryCause {
    fn to_json(self) -> Json {
        Json::Str(
            match self {
                RetryCause::Overload => "overload",
                RetryCause::Evacuation => "evacuation",
            }
            .to_string(),
        )
    }
}

/// Declares [`Event`] once: each variant with its doc comment, its binary
/// tag, its JSONL `type` string and its fields in order. Every variant
/// starts with `step: u64`; `step()`, `kind()`, `to_json_line()` and the
/// [`Wire`] impl are generated from the entry, so a new event is one
/// entry (plus its arm in the hand-written [`Event::pm`]).
macro_rules! events {
    ($(#[$meta:meta])* pub enum Event {
        $($(#[$doc:meta])* $variant:ident = $tag:literal, $kind:literal {
            $($(#[$fdoc:meta])* $field:ident: $ty:ty),* $(,)?
        },)*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum Event {
            $($(#[$doc])* $variant { step: u64, $($(#[$fdoc])* $field: $ty,)* },)*
        }

        impl Event {
            /// The event's deterministic sim-time timestamp.
            pub fn step(&self) -> u64 {
                match *self {
                    $(Event::$variant { step, .. })|* => step,
                }
            }

            /// Stable `type` tag used in the JSONL encoding.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $kind,)*
                }
            }

            /// One JSON object per line, `\n`-terminated: `type` and `step`
            /// first, then the variant's fields in declaration order.
            pub fn to_json_line(&self) -> String {
                let fields = match *self {
                    $(Event::$variant { step, $($field,)* } => vec![
                        ("type", Json::Str($kind.to_string())),
                        ("step", step.to_json()),
                        $((stringify!($field), $field.to_json()),)*
                    ],)*
                };
                let mut line = obj(fields).encode();
                line.push('\n');
                line
            }

        }

        /// The checkpoint representation: the tag byte, then `step` and
        /// the fields in declaration order.
        impl Wire for Event {
            /// The tag byte and `step`.
            const MIN_BYTES: usize = 1 + 8;
            fn put(&self, buf: &mut Vec<u8>) {
                match *self {
                    $(Event::$variant { step, $($field,)* } => {
                        buf.push($tag);
                        step.put(buf);
                        $($field.put(buf);)*
                    })*
                }
            }
            fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
                Ok(match u8::get(c)? {
                    $($tag => Event::$variant {
                        step: Wire::get(c)?,
                        $($field: Wire::get(c)?,)*
                    },)*
                    t => return Err(FrameError::Decode(format!("unknown event tag {t}"))),
                })
            }
        }
    };
}

events! {
    /// One structured simulation event. `step` is the engine's 0-based step
    /// index at emission time — the deterministic sim-time timestamp.
    pub enum Event {
        /// A PM exceeded its capacity this step.
        Violation = 0, "violation" {
            pm: usize,
            /// Aggregate observed load on the PM.
            observed: f64,
            /// The PM's capacity.
            capacity: f64,
            /// Whether the PM held degraded (epsilon) admissions this step.
            degraded: bool,
        },
        /// A VM moved between PMs.
        Migration = 1, "migration" {
            vm: usize,
            from: usize,
            to: usize,
            /// True when the move landed from the retry queue.
            retried: bool,
        },
        /// A triggered migration found no feasible target.
        MigrationFailed = 2, "migration_failed" { vm: usize, pm: usize },
        /// A PM crashed, evicting `displaced` VMs.
        Crash = 3, "crash" { pm: usize, displaced: usize },
        /// A crashed PM came back.
        Recovery = 4, "recovery" { pm: usize },
        /// A displaced VM was evacuated (`to: None` means no PM could take it
        /// and the VM entered the retry queue).
        Evacuation = 5, "evacuation" {
            vm: usize,
            from: usize,
            to: Option<usize>,
            /// Placed under the degraded (epsilon) admission rule.
            degraded: bool,
        },
        /// A VM entered the retry queue.
        RetryEnqueued = 6, "retry_enqueued" {
            vm: usize,
            cause: RetryCause,
            /// Prior attempts (0 on first enqueue).
            attempts: u32,
            /// The step at which the retry comes due.
            due_step: u64,
        },
        /// An overload retry was dropped after exhausting its attempts.
        RetryAbandoned = 7, "retry_abandoned" { vm: usize, attempts: u32 },
        /// An overload retry became moot (VM unhosted or back under budget).
        RetryCancelled = 8, "retry_cancelled" { vm: usize },
        /// A VM was admitted under the degraded (epsilon) margin.
        Admission = 9, "admission" { vm: usize, pm: usize, degraded: bool },
        /// Cumulative per-PM CVR inputs at a sampling point.
        CvrSample = 10, "cvr_sample" { pm: usize, violations: u64, active: u64 },
        /// Per-step snapshot (only when the recorder opts in — high volume).
        Step = 11, "step" { pms_used: usize, violations: usize },
        /// A VM left the online cluster (`step` is the churn program's op index).
        OnlineDeparture = 12, "online_departure" { vm: usize, pm: usize },
        /// An online recalibration reported the hottest live class's
        /// switch probabilities.
        Recalibration = 13, "recalibration" { p_on: f64, p_off: f64 },
        /// The placement daemon wrote a fleet snapshot (`step` is the applied
        /// op count at the checkpoint seam, `bytes` the frame size).
        Snapshot = 14, "snapshot" { bytes: usize },
        /// The placement daemon restored a fleet snapshot at startup
        /// (`discarded` counts newer snapshot files rejected as corrupt
        /// before one verified).
        Restore = 15, "restore" { discarded: usize },
    }
}

impl Event {
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
}

/// Capacity, eviction count, then the events oldest → newest (at most
/// capacity of them) as a `Vec<Event>`. The restored journal's
/// `iter`/`tail`/`push` behaviour is indistinguishable from the
/// original's.
impl Wire for EventJournal {
    const MIN_BYTES: usize = 8 + 8 + 8;
    fn put(&self, buf: &mut Vec<u8>) {
        self.cap.put(buf);
        self.dropped.put(buf);
        self.buf.len().put(buf);
        for event in self.iter() {
            event.put(buf);
        }
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        let (cap, dropped, buf): (usize, u64, Vec<Event>) = Wire::get(c)?;
        if buf.len() > cap {
            let msg = format!("{} journal events exceed capacity {cap}", buf.len());
            return Err(FrameError::Decode(msg));
        }
        Ok(EventJournal {
            buf,
            head: 0,
            cap,
            dropped,
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
pub(crate) mod tests {
    use super::*;

    /// One event of each variant, both `Option` states and both retry
    /// causes included.
    pub(crate) fn one_of_each() -> Vec<Event> {
        let (step, vm, pm) = (1, 2, 3);
        vec![
            Event::Violation {
                step,
                pm,
                observed: 55.5,
                capacity: 50.0,
                degraded: true,
            },
            Event::Migration {
                step,
                vm,
                from: pm,
                to: 4,
                retried: false,
            },
            Event::MigrationFailed { step, vm, pm },
            Event::Crash {
                step,
                pm,
                displaced: 5,
            },
            Event::Recovery { step, pm },
            Event::Evacuation {
                step,
                vm,
                from: pm,
                to: Some(4),
                degraded: true,
            },
            Event::Evacuation {
                step,
                vm,
                from: pm,
                to: None,
                degraded: false,
            },
            Event::RetryEnqueued {
                step,
                vm,
                cause: RetryCause::Overload,
                attempts: 1,
                due_step: 9,
            },
            Event::RetryEnqueued {
                step,
                vm,
                cause: RetryCause::Evacuation,
                attempts: 0,
                due_step: 4,
            },
            Event::RetryAbandoned {
                step,
                vm,
                attempts: 6,
            },
            Event::RetryCancelled { step, vm },
            Event::Admission {
                step,
                vm,
                pm,
                degraded: true,
            },
            Event::CvrSample {
                step,
                pm,
                violations: 7,
                active: 8,
            },
            Event::Step {
                step,
                pms_used: 9,
                violations: 1,
            },
            Event::OnlineDeparture { step, vm, pm },
            Event::Recalibration {
                step,
                p_on: 0.01,
                p_off: 0.09,
            },
            Event::Snapshot { step, bytes: 4096 },
            Event::Restore { step, discarded: 2 },
        ]
    }

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
        let parsed: Vec<Json> = events
            .iter()
            .map(|e| {
                let line = e.to_json_line();
                assert!(line.ends_with('\n'));
                Json::parse(line.as_bytes()).unwrap()
            })
            .collect();
        for (e, record) in events.iter().zip(&parsed) {
            assert_eq!(record.get("type").and_then(Json::as_str), Some(e.kind()));
        }
        assert_eq!(parsed[1].get("to"), Some(&Json::Null));
        assert_eq!(
            parsed[2].get("cause").and_then(Json::as_str),
            Some("evacuation")
        );
    }
}
