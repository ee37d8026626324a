//! The `--before` reader against the checked-in reports: for every
//! section a bin carries into its next run, it returns exactly the rows
//! the line scanner it replaced returned — the lines led by
//! `{"commit":` between the section's `"<name>": [` and its closing `]`
//! (the whole file for `serve_bench`, which had one section).

use bursty_bench::Before;
use bursty_server::Json;

/// The replaced scanner, over `lines`.
fn commit_led<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<Json> {
    lines
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| l.starts_with("{\"commit\":"))
        .map(|l| Json::parse(l.as_bytes()).expect("a scanned row is JSON"))
        .collect()
}

fn section_lines<'a>(text: &'a str, section: &str) -> impl Iterator<Item = &'a str> {
    let open = format!("\"{section}\": [");
    text.lines()
        .skip_while(move |l| l.trim() != open)
        .skip(1)
        .take_while(|l| !l.trim().starts_with(']'))
}

#[test]
fn before_reader_returns_the_scanned_rows_of_every_checked_in_report() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for (file, sections) in [
        ("BENCH_admit.json", &["admit", "pairs"][..]),
        (
            "BENCH_engine.json",
            &[
                "engine",
                "paper_density",
                "shared_flip_sweep",
                "paired",
                "cell_kernel",
            ][..],
        ),
        ("BENCH_packing.json", &["fleets"][..]),
        ("BENCH_serve.json", &["serve"][..]),
    ] {
        let path = format!("{root}/{file}");
        let text = std::fs::read_to_string(&path).unwrap();
        let before = Before::load(Some(&path));
        for &section in sections {
            let scanned = if file == "BENCH_serve.json" {
                commit_led(text.lines())
            } else {
                commit_led(section_lines(&text, section))
            };
            assert!(!scanned.is_empty(), "{file} `{section}` has rows");
            assert_eq!(before.rows(section), scanned, "{file} `{section}`");
        }
    }
}
