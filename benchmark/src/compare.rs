//! `benchmark compare <a.json> <b.json>`: one row per (workload,
//! end-to-end metric) with base, new, ratio and a verdict against the
//! metric's regression bound.

use std::path::Path;
use std::process::ExitCode;

use bursty_server::Json;

use crate::metrics::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::stats::summarize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The repeats scatter more widely than the bound and the two sides
    /// overlap: this pair of files cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base`, both lists of per-repeat values.
pub fn verdict(def: &MetricDef, base: &[f64], new: &[f64]) -> Verdict {
    let (b, n) = (summarize(base), summarize(new));
    // Positive = worse, as a share of the base figure.
    let sign = match def.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let (base_value, new_value) = (def.reported(base), def.reported(new));
    let worse_by = sign * (new_value - base_value) / base_value.abs().max(f64::MIN_POSITIVE);
    if def.good_half_spread(base).max(def.good_half_spread(new)) > def.bound {
        // Too noisy for the bound — unless the sides do not even touch.
        let new_wins = sign * (n.max - b.min) < 0.0 && sign * (n.min - b.max) < 0.0;
        let base_wins = sign * (n.max - b.min) > 0.0 && sign * (n.min - b.max) > 0.0;
        if !new_wins && !base_wins {
            return Verdict::Unresolved;
        }
    }
    if worse_by > def.bound {
        Verdict::Worse
    } else if worse_by < -def.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

struct Run {
    /// `workload -> metric -> repeats`
    json: Json,
}

impl Run {
    fn load(path: &Path) -> Result<Run, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Run { json })
    }

    fn workload(&self, name: &str) -> Option<&Json> {
        self.json.get("workloads")?.get(name)
    }

    fn repeats(&self, workload: &str, metric: &str) -> Option<Vec<f64>> {
        let list = self
            .workload(workload)?
            .get("detail")?
            .get("repeats")?
            .get(metric)?
            .as_array()?;
        let values: Vec<f64> = list.iter().filter_map(Json::as_f64).collect();
        (!values.is_empty()).then_some(values)
    }

    fn failed_share(&self, workload: &str) -> Option<f64> {
        let result = self.workload(workload)?.get("result")?;
        let attempted = result.get("attempted")?.as_f64()?;
        Some(result.get("failed")?.as_f64()? / attempted.max(1.0))
    }
}

pub fn main(a: &Path, b: &Path) -> ExitCode {
    let (base, new) = match (Run::load(a), Run::load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<16} {:<18} {:>16} {:>16} {:>8}  {:<6} verdict",
        "workload", "metric", "base", "new", "new/base", "unit"
    );
    let mut bad = false;
    for w in WORKLOADS {
        for m in END_TO_END {
            let row = |verdict: &str, base: f64, new: f64| {
                println!(
                    "{:<16} {:<18} {:>16.6} {:>16.6} {:>8.4}  {:<6} {verdict}",
                    w.name,
                    m.name,
                    base,
                    new,
                    new / base,
                    m.unit
                );
            };
            match (base.repeats(w.name, m.name), new.repeats(w.name, m.name)) {
                (Some(x), Some(y)) => {
                    let v = verdict(m, &x, &y);
                    bad |= v == Verdict::Worse;
                    row(v.as_str(), m.reported(&x), m.reported(&y));
                }
                // A side without the figure cannot be judged.
                _ => row(Verdict::Unresolved.as_str(), f64::NAN, f64::NAN),
            }
        }
        match (base.failed_share(w.name), new.failed_share(w.name)) {
            (Some(x), Some(y)) => {
                let worse = y > x;
                bad |= worse;
                println!(
                    "{:<16} {:<18} {:>16.6} {:>16.6} {:>8}  {:<6} {}",
                    w.name,
                    "failed/attempted",
                    x,
                    y,
                    "-",
                    "share",
                    if worse { "worse" } else { "same" }
                );
            }
            _ => bad = true,
        }
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_table() {
        let def = |better| MetricDef {
            name: "synthetic",
            unit: "s",
            better,
            bound: 0.10,
        };
        let (lower, higher) = (&def(Better::Lower), &def(Better::Higher));
        let tight = |c: f64| vec![c * 0.99, c, c * 1.01];
        let cases: &[(&MetricDef, Vec<f64>, Vec<f64>, Verdict)] = &[
            (lower, tight(10.0), tight(10.2), Verdict::Same),
            (lower, tight(10.0), tight(12.0), Verdict::Worse),
            (lower, tight(10.0), tight(8.0), Verdict::Better),
            (higher, tight(10.0), tight(12.0), Verdict::Better),
            (higher, tight(10.0), tight(8.0), Verdict::Worse),
            // Wide and overlapping: cannot tell.
            (
                lower,
                vec![8.0, 10.0, 12.0],
                vec![9.0, 11.0, 13.0],
                Verdict::Unresolved,
            ),
            // Wide, but every new repeat is slower than every base one.
            (
                lower,
                vec![8.0, 10.0, 12.0],
                vec![14.0, 16.0, 18.0],
                Verdict::Worse,
            ),
            (
                lower,
                vec![14.0, 16.0, 18.0],
                vec![8.0, 10.0, 12.0],
                Verdict::Better,
            ),
            (
                higher,
                vec![8.0, 10.0, 12.0],
                vec![14.0, 16.0, 18.0],
                Verdict::Better,
            ),
            // A single deterministic reading has no spread.
            (lower, vec![5.0], vec![5.0], Verdict::Same),
            (lower, vec![5.0], vec![6.0], Verdict::Worse),
        ];
        for (def, base, new, want) in cases {
            assert_eq!(
                verdict(def, base, new),
                *want,
                "{} {base:?} -> {new:?}",
                def.name
            );
        }
    }
}
