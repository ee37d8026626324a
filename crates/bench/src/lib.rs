//! Criterion benchmark crate (see `benches/`), plus what the `BENCH_*.json`
//! emitters in `src/bin/` share.

/// The label a bench row carries for the commit it was measured at:
/// `explicit` if given, else `git describe --always --dirty`.
pub fn commit_label(explicit: Option<String>) -> String {
    explicit.unwrap_or_else(|| {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
    })
}

/// The rows of an earlier emitter output, for a before/after file:
/// emitters write such rows one per line, each led by its commit, and
/// this re-reads exactly those lines.
pub fn rows_led_by_commit(path: &str) -> Vec<String> {
    commit_led(read_before_file(path).lines().map(str::trim))
}

/// [`rows_led_by_commit`] restricted to one section of the file — the
/// lines between `"<section>": [` and its closing `]` — for emitters
/// that keep before/after rows in more than one array.
pub fn section_rows_led_by_commit(path: &str, section: &str) -> Vec<String> {
    let open = format!("\"{section}\": [");
    commit_led(
        read_before_file(path)
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != open)
            .skip(1)
            .take_while(|l| !l.starts_with(']')),
    )
}

fn read_before_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read before-rows file {path}: {e}"))
}

fn commit_led<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<String> {
    lines
        .map(|l| l.trim_end_matches(','))
        .filter(|l| l.starts_with("{\"commit\":"))
        .map(str::to_string)
        .collect()
}
