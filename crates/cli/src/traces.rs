//! Reading demand traces from CSV files.

use crate::{err, CliError};
use bursty_core::prelude::{fit_trace, VmSpec};
use std::fs;
use std::path::{Path, PathBuf};

/// Parses one CSV trace: each data line's *last* field is the demand
/// sample; a first line that fails to parse is treated as a header; blank
/// lines and `#` comments are skipped.
///
/// # Errors
/// [`CliError`] for unreadable files, data lines that are not a finite
/// number (`nan` and `inf` parse as `f64` but are a monitor's missing
/// value, not a demand), or traces with no samples.
pub fn read_trace(path: &Path) -> Result<Vec<f64>, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read {}: {e}", path.display())))?;
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let last = line.rsplit(',').next().unwrap_or(line).trim();
        match last.parse::<f64>() {
            Ok(v) if v.is_finite() => out.push(v),
            Ok(_) => {
                return Err(err(format!(
                    "{}:{}: `{last}` is not a finite demand",
                    path.display(),
                    lineno + 1
                )))
            }
            Err(_) if out.is_empty() && lineno == 0 => continue, // header
            Err(_) => {
                return Err(err(format!(
                    "{}:{}: `{last}` is not a number",
                    path.display(),
                    lineno + 1
                )))
            }
        }
    }
    if out.is_empty() {
        return Err(err(format!("{}: no demand samples found", path.display())));
    }
    Ok(out)
}

/// Lists the `.csv` files in a directory, sorted by name for deterministic
/// VM ids.
///
/// # Errors
/// [`CliError`] for unreadable directories or directories without CSVs.
pub fn list_traces(dir: &Path) -> Result<Vec<PathBuf>, CliError> {
    let entries = fs::read_dir(dir)
        .map_err(|e| err(format!("cannot read directory {}: {e}", dir.display())))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x.eq_ignore_ascii_case("csv")))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(err(format!("no .csv traces in {}", dir.display())));
    }
    Ok(files)
}

/// The two-sided Wilson level [`fit_dir`] bounds every fitted switch
/// probability at: each bound is one-sided at `α = (1 − level)/2 = 0.005`.
pub(crate) const FIT_CONFIDENCE: f64 = 0.99;

/// Fits every trace of a directory: the specs at their fit-error bounds
/// ([`bursty_core::workload::FittedModel::to_bounded_spec`] at
/// `FIT_CONFIDENCE`; ids in file-name order) and the file stems that
/// name them.
///
/// # Errors
/// [`CliError`] naming the file for anything [`list_traces`],
/// [`read_trace`] or the fit rejects.
pub fn fit_dir(dir: &Path) -> Result<(Vec<VmSpec>, Vec<String>), CliError> {
    let files = list_traces(dir)?;
    let mut specs = Vec::with_capacity(files.len());
    let mut names = Vec::with_capacity(files.len());
    for (id, file) in files.iter().enumerate() {
        let demands = read_trace(file)?;
        let model = fit_trace(&demands).map_err(|e| err(format!("{}: {e}", file.display())))?;
        specs.push(model.to_bounded_spec(id, demands.len(), FIT_CONFIDENCE));
        names.push(
            file.file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| id.to_string()),
        );
    }
    Ok((specs, names))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bursty-cli-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write(path: &Path, content: &str) {
        let mut f = fs::File::create(path).unwrap();
        f.write_all(content.as_bytes()).unwrap();
    }

    #[test]
    fn reads_last_column_and_skips_header() {
        let dir = scratch("read");
        let p = dir.join("a.csv");
        write(&p, "t,demand\n0,10.5\n1,12\n# comment\n\n2,10.5\n");
        assert_eq!(read_trace(&p).unwrap(), vec![10.5, 12.0, 10.5]);
    }

    #[test]
    fn single_column_works() {
        let dir = scratch("single");
        let p = dir.join("a.csv");
        write(&p, "1\n2\n3\n");
        assert_eq!(read_trace(&p).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn bad_data_line_reports_location() {
        let dir = scratch("bad");
        let p = dir.join("a.csv");
        write(&p, "1\nnot-a-number\n");
        let e = read_trace(&p).unwrap_err().to_string();
        assert!(e.contains(":2:"), "{e}");
    }

    #[test]
    fn non_finite_sample_reports_location() {
        let dir = scratch("nonfinite");
        let p = dir.join("a.csv");
        for gap in ["nan", "NaN", "inf", "-inf"] {
            write(
                &p,
                &format!("t,demand\n0,1\n# monitor restart\n1,{gap}\n2,3\n"),
            );
            let e = read_trace(&p).unwrap_err().to_string();
            assert!(e.contains("a.csv:4:") && e.contains(gap), "{e}");
        }
        // On the first line too: it parses, so it is no header.
        write(&p, "nan\n1\n2\n");
        assert!(read_trace(&p).unwrap_err().to_string().contains(":1:"));
    }

    #[test]
    fn fit_dir_fits_in_name_order_and_names_the_bad_file() {
        let dir = scratch("fitdir");
        write(&dir.join("b.csv"), "1\n1\n9\n9\n1\n");
        write(&dir.join("a.csv"), "t,demand\n0,2\n1,6\n2,2\n");
        let (specs, names) = fit_dir(&dir).unwrap();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!((specs[0].id, specs[0].r_b), (0, 2.0));
        assert_eq!((specs[1].id, specs[1].r_e), (1, 8.0));
        write(&dir.join("c.csv"), "5\n5\n5\n");
        let e = fit_dir(&dir).unwrap_err().to_string();
        assert!(e.contains("c.csv") && e.contains("transitions"), "{e}");
    }

    #[test]
    fn empty_file_is_error() {
        let dir = scratch("empty");
        let p = dir.join("a.csv");
        write(&p, "header-only\n");
        assert!(read_trace(&p)
            .unwrap_err()
            .to_string()
            .contains("no demand"));
    }

    #[test]
    fn missing_file_is_error() {
        let e = read_trace(Path::new("/nonexistent/x.csv")).unwrap_err();
        assert!(e.to_string().contains("cannot read"));
    }

    #[test]
    fn lists_csvs_sorted() {
        let dir = scratch("list");
        write(&dir.join("b.csv"), "1\n");
        write(&dir.join("a.csv"), "1\n");
        write(&dir.join("ignore.txt"), "x");
        let files = list_traces(&dir).unwrap();
        let names: Vec<_> = files
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap())
            .collect();
        assert_eq!(names, vec!["a.csv", "b.csv"]);
    }

    #[test]
    fn empty_dir_is_error() {
        let dir = scratch("nocsv");
        assert!(list_traces(&dir)
            .unwrap_err()
            .to_string()
            .contains("no .csv"));
    }
}
