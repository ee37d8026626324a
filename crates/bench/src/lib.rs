//! The harness the `BENCH_*.json` emitters in `src/bin/` share:
//! declared flags, timing helpers, rows built as [`Json`] objects, and
//! one report writer with its `--before` reader.
//!
//! A report is one JSON object. Its top-level arrays are *sections*,
//! written one row per line; every row is led by the commit it was
//! measured at and the host's `available_parallelism` ([`row`]), and
//! `--before OLD.json` carries OLD's rows of a section in front of this
//! run's ([`Before`]). The harness uses only public API that existed
//! before it (`bursty_server::Json`), so `src/` copied into an older
//! checkout builds there for a before/after pair.

use bursty_server::Json;
use std::str::FromStr;
use std::time::Instant;

/// A bench binary's `--flag value` arguments, checked against the flags
/// it declares. Every flag takes a value; a usage error exits 2.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    /// The process arguments against `declared` (names without `--`).
    pub fn from_env(declared: &[&str]) -> Flags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Flags::parse(&args, declared).unwrap_or_else(|e| usage(&e))
    }

    /// Parses `args` against `declared`.
    ///
    /// # Errors
    /// The usage error naming the flag: undeclared, without a value (at
    /// the end, or followed by another flag), or given twice.
    pub fn parse(args: &[String], declared: &[&str]) -> Result<Flags, String> {
        let mut given: Vec<(String, String)> = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(token) = it.next() {
            let Some(name) = token.strip_prefix("--").filter(|n| declared.contains(n)) else {
                return Err(format!(
                    "unknown flag {token} (accepted: --{})",
                    declared.join(", --")
                ));
            };
            let value = it
                .next_if(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("--{name} needs a value"))?;
            if given.iter().any(|(n, _)| n == name) {
                return Err(format!("--{name} given twice"));
            }
            given.push((name.to_string(), value.clone()));
        }
        Ok(Flags(given))
    }

    /// `--name`'s value, if given.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.parsed(name, |v| v.parse().ok())
            .unwrap_or_else(|e| usage(&e))
    }

    /// `--name`'s comma-separated sizes, if given.
    pub fn list(&self, name: &str) -> Option<Vec<usize>> {
        self.parsed(name, |v| {
            v.split(',').map(|s| s.trim().parse().ok()).collect()
        })
        .unwrap_or_else(|e| usage(&e))
    }

    fn parsed<T>(
        &self,
        name: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some((_, value)) = self.0.iter().find(|(n, _)| n == name) else {
            return Ok(None);
        };
        parse(value)
            .map(Some)
            .ok_or_else(|| format!("--{name}: cannot parse `{value}`"))
    }
}

/// Prints a usage error and exits 2.
pub fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

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

/// The host's `available_parallelism`, 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// `f`'s result and its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// The fastest of `repeats` runs of `f`, in seconds: throughput
/// questions want the least-interfered run, not the mean.
pub fn best_secs<R>(repeats: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..repeats)
        .map(|_| timed(&mut f).1)
        .fold(f64::INFINITY, f64::min)
}

/// `[q1, median, q3]` of the samples: the sorted sample at zero-based
/// rank `q·n/4` (integer division) for `q = 1, 2, 3`, so an even `n`
/// reports the upper of its two middle samples as the median. Every
/// emitter's `q1`/`median`/`q3` keys hold this rank.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    [1, 2, 3].map(|q| sorted[q * sorted.len() / 4])
}

/// The [`quartiles`] of the samples as `{"q1", "median", "q3"}`.
pub fn spread(samples: &[f64]) -> Obj {
    let [q1, median, q3] = quartiles(samples);
    Obj::default()
        .field("q1", q1)
        .field("median", median)
        .field("q3", q3)
}

/// Exact nearest-rank quantile of ascending latency samples, in
/// nanoseconds: the sample at rank `round(q·(n − 1))`, 0 for no samples.
pub fn quantile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
    sorted[idx]
}

/// A value a row can hold. Numbers are written at full precision; a
/// non-finite one is written as `null`.
pub trait ToJson {
    fn to_json(self) -> Json;
}

impl ToJson for Json {
    fn to_json(self) -> Json {
        self
    }
}

macro_rules! numbers {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(self) -> Json {
                Json::Num(self as f64)
            }
        }
    )*};
}
numbers!(f64, u64, usize);

impl ToJson for bool {
    fn to_json(self) -> Json {
        Json::Bool(self)
    }
}

impl ToJson for &str {
    fn to_json(self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(self) -> Json {
        Json::Str(self)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(self) -> Json {
        Json::Arr(self.into_iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(self) -> Json {
        Json::Arr(self.into_iter().map(ToJson::to_json).collect())
    }
}

/// A JSON object under construction, keys in insertion order.
#[derive(Default)]
pub struct Obj(Vec<(String, Json)>);

impl Obj {
    /// Appends `key: value`.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Obj {
        self.push(key, value);
        self
    }

    /// Appends `key: value` in place.
    pub fn push(&mut self, key: &str, value: impl ToJson) {
        self.0.push((key.to_string(), value.to_json()));
    }
}

impl ToJson for Obj {
    fn to_json(self) -> Json {
        Json::Obj(self.0)
    }
}

/// A section row, led by `commit` and this host's
/// `available_parallelism`.
pub fn row(commit: &str) -> Obj {
    Obj::default()
        .field("commit", commit)
        .field("available_parallelism", available_parallelism())
}

/// A report, led by the emitter's name and this host's
/// `available_parallelism`.
pub fn report(generated_by: &str) -> Obj {
    Obj::default()
        .field("generated_by", generated_by)
        .field("available_parallelism", available_parallelism())
}

/// Renders `report` one top-level key per line and each section (a
/// top-level array) one row per line.
fn render(report: Obj) -> String {
    let mut out = String::from("{\n");
    let n = report.0.len();
    for (i, (key, value)) in report.0.into_iter().enumerate() {
        out += "  ";
        out += &Json::Str(key).encode();
        out += ": ";
        match value {
            Json::Arr(rows) => {
                out += "[\n";
                for (j, row) in rows.iter().enumerate() {
                    out += "    ";
                    out += &row.encode();
                    out += if j + 1 < rows.len() { ",\n" } else { "\n" };
                }
                out += "  ]";
            }
            other => out += &other.encode(),
        }
        out += if i + 1 < n { ",\n" } else { "\n" };
    }
    out + "}\n"
}

/// Writes the [`render`]ed `report` to `path` and returns the text.
///
/// # Panics
/// Panics when the file cannot be written.
pub fn write_report(path: &str, report: Obj) -> String {
    let text = render(report);
    std::fs::write(path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
    text
}

/// An earlier report, read for the rows it carries into this run's
/// (`--before`), or the report a child process wrote.
pub struct Before(Option<Json>);

impl Before {
    /// Reads the report at `path`, if one is named.
    ///
    /// # Panics
    /// Panics when the file cannot be read or is not JSON.
    pub fn load(path: Option<&str>) -> Before {
        Before(path.map(|path| {
            let bytes =
                std::fs::read(path).unwrap_or_else(|e| panic!("read before-rows file {path}: {e}"));
            Json::parse(&bytes).unwrap_or_else(|e| panic!("before-rows file {path}: {e}"))
        }))
    }

    /// The rows of `section` led by their commit, in file order; none
    /// without a file or without the section.
    pub fn rows(&self, section: &str) -> Vec<Json> {
        let rows = self.0.as_ref().and_then(|r| r.get(section)?.as_array());
        let led_by_commit = |row: &&Json| matches!(row, Json::Obj(p) if p.first().is_some_and(|(k, _)| k == "commit"));
        rows.unwrap_or_default()
            .iter()
            .filter(led_by_commit)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Flags::parse(&args, &["fleets", "out", "seed"])
    }

    #[test]
    fn flags_parse_declared_values() {
        let flags = parse(&["--fleets", "10, 20", "--seed", "7"]).unwrap();
        assert_eq!(flags.list("fleets"), Some(vec![10, 20]));
        assert_eq!(flags.get::<u64>("seed"), Some(7));
        assert_eq!(flags.get::<String>("out"), None);
    }

    #[test]
    fn flag_usage_errors_name_the_flag() {
        let error = |args: &[&str]| parse(args).err().expect("a usage error");
        assert!(error(&["--steps", "5"]).starts_with("unknown flag --steps (accepted: --fleets"));
        assert!(error(&["seed", "5"]).starts_with("unknown flag seed"));
        assert_eq!(error(&["--seed", "1", "--seed", "2"]), "--seed given twice");
        assert_eq!(error(&["--seed", "1", "--out"]), "--out needs a value");
        assert_eq!(error(&["--out", "--seed", "1"]), "--out needs a value");
        let flags = parse(&["--seed", "x", "--fleets", "1,,2"]).unwrap();
        let seed = flags.parsed("seed", |v| v.parse::<u64>().ok());
        assert_eq!(seed.unwrap_err(), "--seed: cannot parse `x`");
        let fleets = flags.parsed("fleets", |v| {
            v.split(',')
                .map(|s| s.parse::<usize>().ok())
                .collect::<Option<Vec<_>>>()
        });
        assert_eq!(fleets.unwrap_err(), "--fleets: cannot parse `1,,2`");
    }

    #[test]
    fn reports_write_non_finite_numbers_as_null_and_re_parse() {
        let text = render(
            report("test-bench")
                .field("config", Obj::default().field("ops", 0usize))
                .field("rows", vec![row("abc").field("refused_share", f64::NAN)])
                .field("empty", Vec::<Json>::new()),
        );
        let parsed = Json::parse(text.as_bytes()).expect("the report is JSON");
        let rows = parsed.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows[0].get("refused_share"), Some(&Json::Null));
        assert_eq!(rows[0].get("commit").and_then(Json::as_str), Some("abc"));
        // One row per line, led by its commit.
        assert!(text
            .lines()
            .any(|l| l.trim_start().starts_with("{\"commit\":\"abc\"")));
        let path = std::env::temp_dir().join(format!("bench-report-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        std::fs::write(path, &text).unwrap();
        assert_eq!(Before::load(Some(path)).rows("rows"), rows);
        assert!(Before::load(Some(path)).rows("config").is_empty());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn quartiles_take_rank_q_n_over_4() {
        // Samples are their own ranks, fed in descending order.
        for (n, ranks) in [
            (1, [0, 0, 0]),
            (3, [0, 1, 2]),
            (4, [1, 2, 3]),
            (9, [2, 4, 6]),
            (16, [4, 8, 12]),
        ] {
            let samples: Vec<f64> = (0..n).rev().map(f64::from).collect();
            assert_eq!(quartiles(&samples), ranks.map(f64::from), "n = {n}");
        }
    }

    #[test]
    fn quantile_ns_is_nearest_rank() {
        let sorted: Vec<u64> = (0..101).collect();
        assert_eq!(quantile_ns(&sorted, 0.5), 50);
        assert_eq!(quantile_ns(&sorted, 0.99), 99);
        assert_eq!(quantile_ns(&sorted, 1.0), 100);
        assert_eq!(quantile_ns(&[7, 9], 0.5), 9, "a tie rounds up");
        assert_eq!(quantile_ns(&[], 0.5), 0);
    }
}
