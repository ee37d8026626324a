//! The `--trace-out` JSONL format, byte for byte: one literal line per
//! journal event variant, one meta record and one `cvr_series` record.
//! Any change to field order, key names or number text fails here.

use bursty_obs::{Counter, Event, Gauge, HistId, MemoryRecorder, Recorder, RetryCause};

#[test]
fn every_event_variant_encodes_to_its_pinned_line() {
    let table = [
        (
            Event::Violation {
                step: 7,
                pm: 1,
                observed: 55.5,
                capacity: 50.0,
                degraded: true,
            },
            r#"{"type":"violation","step":7,"pm":1,"observed":55.5,"capacity":50,"degraded":true}"#,
        ),
        (
            Event::Violation {
                step: 8,
                pm: 0,
                observed: 1e21,
                capacity: 1e-7,
                degraded: false,
            },
            r#"{"type":"violation","step":8,"pm":0,"observed":1000000000000000000000,"capacity":0.0000001,"degraded":false}"#,
        ),
        (
            Event::Migration {
                step: 9,
                vm: 0,
                from: 1,
                to: 2,
                retried: false,
            },
            r#"{"type":"migration","step":9,"vm":0,"from":1,"to":2,"retried":false}"#,
        ),
        (
            Event::MigrationFailed {
                step: 10,
                vm: 4,
                pm: 3,
            },
            r#"{"type":"migration_failed","step":10,"vm":4,"pm":3}"#,
        ),
        (
            Event::Crash {
                step: 11,
                pm: 5,
                displaced: 12,
            },
            r#"{"type":"crash","step":11,"pm":5,"displaced":12}"#,
        ),
        (
            Event::Recovery { step: 61, pm: 5 },
            r#"{"type":"recovery","step":61,"pm":5}"#,
        ),
        (
            Event::Evacuation {
                step: 11,
                vm: 6,
                from: 5,
                to: Some(2),
                degraded: false,
            },
            r#"{"type":"evacuation","step":11,"vm":6,"from":5,"to":2,"degraded":false}"#,
        ),
        (
            Event::Evacuation {
                step: 11,
                vm: 7,
                from: 5,
                to: None,
                degraded: true,
            },
            r#"{"type":"evacuation","step":11,"vm":7,"from":5,"to":null,"degraded":true}"#,
        ),
        (
            Event::RetryEnqueued {
                step: 11,
                vm: 7,
                cause: RetryCause::Evacuation,
                attempts: 0,
                due_step: 13,
            },
            r#"{"type":"retry_enqueued","step":11,"vm":7,"cause":"evacuation","attempts":0,"due_step":13}"#,
        ),
        (
            Event::RetryEnqueued {
                step: 14,
                vm: 8,
                cause: RetryCause::Overload,
                attempts: 2,
                due_step: 22,
            },
            r#"{"type":"retry_enqueued","step":14,"vm":8,"cause":"overload","attempts":2,"due_step":22}"#,
        ),
        (
            Event::RetryAbandoned {
                step: 20,
                vm: 8,
                attempts: 5,
            },
            r#"{"type":"retry_abandoned","step":20,"vm":8,"attempts":5}"#,
        ),
        (
            Event::RetryCancelled { step: 21, vm: 9 },
            r#"{"type":"retry_cancelled","step":21,"vm":9}"#,
        ),
        (
            Event::Admission {
                step: 0,
                vm: 10,
                pm: 0,
                degraded: true,
            },
            r#"{"type":"admission","step":0,"vm":10,"pm":0,"degraded":true}"#,
        ),
        (
            Event::CvrSample {
                step: 99,
                pm: 1,
                violations: 3,
                active: 100,
            },
            r#"{"type":"cvr_sample","step":99,"pm":1,"violations":3,"active":100}"#,
        ),
        (
            Event::Step {
                step: 100,
                pms_used: 4,
                violations: 1,
            },
            r#"{"type":"step","step":100,"pms_used":4,"violations":1}"#,
        ),
        (
            Event::OnlineDeparture {
                step: 12_345_678_901,
                vm: 42,
                pm: 7,
            },
            r#"{"type":"online_departure","step":12345678901,"vm":42,"pm":7}"#,
        ),
        (
            Event::Recalibration {
                step: 5,
                p_on: 1.0 / 3.0,
                p_off: 0.09,
            },
            r#"{"type":"recalibration","step":5,"p_on":0.3333333333333333,"p_off":0.09}"#,
        ),
        (
            Event::Snapshot {
                step: 300,
                bytes: 4096,
            },
            r#"{"type":"snapshot","step":300,"bytes":4096}"#,
        ),
        (
            Event::Restore {
                step: 0,
                discarded: 2,
            },
            r#"{"type":"restore","step":0,"discarded":2}"#,
        ),
    ];
    for (event, expected) in table {
        assert_eq!(event.to_json_line(), format!("{expected}\n"), "{event:?}");
    }
}

#[test]
fn meta_and_cvr_series_records_encode_to_their_pinned_lines() {
    let mut r = MemoryRecorder::new(2).with_cvr_sampling(10);
    r.counter_add(Counter::Steps, 200);
    r.counter_add(Counter::Migrations, 3);
    r.gauge_set(Gauge::FinalPmsUsed, 4.0);
    r.gauge_set(Gauge::EnergyJoules, 98.5);
    for v in [7, 900, 900] {
        r.record_value(HistId::RetryBackoffSteps, v);
    }
    r.record_value(HistId::ViolationsPerStep, 0);
    for step in 0..3 {
        r.record_event(Event::Recovery { step, pm: 0 });
    }
    r.sample_cvr(9, &[1, 0], &[10, 9]);
    r.sample_cvr(19, &[2, 0], &[20, 19]);

    let expected = [
        r#"{"type":"meta","version":1,"counters":{"steps":200,"migrations":3},"gauges":{"final_pms_used":4,"energy_joules":98.5},"histograms":{"retry_backoff_steps":[[4,7,1],[512,1023,2]],"violations_per_step":[[0,0,1]]},"journal_dropped":1}"#,
        r#"{"type":"cvr_series","samples":[[9,1,10],[19,2,20]]}"#,
        r#"{"type":"cvr_series","samples":[[9,0,9],[19,0,19]]}"#,
        r#"{"type":"recovery","step":1,"pm":0}"#,
        r#"{"type":"recovery","step":2,"pm":0}"#,
    ];
    let text = r.to_jsonl();
    assert!(text.ends_with('\n'));
    assert_eq!(text.lines().collect::<Vec<_>>(), expected);
}

#[test]
fn an_empty_recorder_writes_a_bare_meta_record() {
    assert_eq!(
        MemoryRecorder::new(0).to_jsonl(),
        "{\"type\":\"meta\",\"version\":1,\"counters\":{},\"gauges\":{},\"histograms\":{},\"journal_dropped\":0}\n"
    );
}
