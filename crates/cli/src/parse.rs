//! Minimal `--flag value` argument parsing.

use crate::{err, CliError};
use std::collections::HashMap;

/// Parsed arguments: named `--flag value` options, boolean `--flag`
/// switches, plus positional args.
#[derive(Debug, Default, Clone)]
pub struct Args {
    options: HashMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// Parses a flat argument list against a command's declared flags:
    /// a `--name` in `options` must be followed by a value, one in
    /// `switches` takes none (query it with [`Args::has`]), any other
    /// `--name` is rejected; everything else is positional.
    ///
    /// # Errors
    /// [`CliError`] naming the flag: undeclared, dangling, or given twice.
    pub fn parse(args: &[String], options: &[&str], switches: &[&str]) -> Result<Self, CliError> {
        let mut out = Args::default();
        let mut it = args.iter();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if switches.contains(&name) {
                    if out.switches.iter().any(|s| s == name) {
                        return Err(err(format!("flag --{name} given twice")));
                    }
                    out.switches.push(name.to_string());
                    continue;
                }
                if !options.contains(&name) {
                    let accepted: Vec<String> = options
                        .iter()
                        .chain(switches)
                        .map(|f| format!("--{f}"))
                        .collect();
                    return Err(err(format!(
                        "unknown flag --{name} (accepted: {})",
                        if accepted.is_empty() {
                            "none".to_string()
                        } else {
                            accepted.join(", ")
                        }
                    )));
                }
                let value = it
                    .next()
                    .ok_or_else(|| err(format!("flag --{name} needs a value")))?;
                if out
                    .options
                    .insert(name.to_string(), value.clone())
                    .is_some()
                {
                    return Err(err(format!("flag --{name} given twice")));
                }
            } else {
                out.positional.push(tok.clone());
            }
        }
        Ok(out)
    }

    /// Whether the boolean switch `--name` was passed.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// A required numeric option.
    ///
    /// # Errors
    /// Missing or unparsable value.
    pub fn require_f64(&self, name: &str) -> Result<f64, CliError> {
        self.get_f64(name)?
            .ok_or_else(|| err(format!("missing required flag --{name}")))
    }

    /// A required integer option.
    ///
    /// # Errors
    /// Missing or unparsable value.
    pub fn require_usize(&self, name: &str) -> Result<usize, CliError> {
        self.get_usize(name)?
            .ok_or_else(|| err(format!("missing required flag --{name}")))
    }

    /// An optional numeric option.
    ///
    /// # Errors
    /// Present but unparsable value.
    pub fn get_f64(&self, name: &str) -> Result<Option<f64>, CliError> {
        match self.options.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<f64>()
                .map(Some)
                .map_err(|_| err(format!("--{name} expects a number, got `{v}`"))),
        }
    }

    /// An optional integer option.
    ///
    /// # Errors
    /// Present but unparsable value.
    pub fn get_usize(&self, name: &str) -> Result<Option<usize>, CliError> {
        match self.options.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<usize>()
                .map(Some)
                .map_err(|_| err(format!("--{name} expects an integer, got `{v}`"))),
        }
    }

    /// An optional string option.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(toks: &[&str]) -> Result<Args, CliError> {
        let v: Vec<String> = toks.iter().map(|s| s.to_string()).collect();
        Args::parse(&v, &["k", "rho", "vms"], &["batch", "no-batch"])
    }

    #[test]
    fn mixes_flags_and_positionals() {
        let a = parse(&["file.csv", "--k", "16", "--rho", "0.05"]).unwrap();
        assert_eq!(a.positional(), &["file.csv".to_string()]);
        assert_eq!(a.require_usize("k").unwrap(), 16);
        assert_eq!(a.require_f64("rho").unwrap(), 0.05);
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse(&["--k"])
            .unwrap_err()
            .to_string()
            .contains("needs a value"));
    }

    #[test]
    fn duplicate_flag_is_error() {
        assert!(parse(&["--k", "1", "--k", "2"])
            .unwrap_err()
            .to_string()
            .contains("twice"));
    }

    #[test]
    fn bad_number_is_error() {
        let a = parse(&["--rho", "lots"]).unwrap();
        assert!(a
            .get_f64("rho")
            .unwrap_err()
            .to_string()
            .contains("expects a number"));
    }

    #[test]
    fn undeclared_flag_is_error_naming_it() {
        let e = parse(&["--k", "1", "--steps", "5"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("unknown flag --steps"), "{e}");
        assert!(e.contains("--k") && e.contains("--no-batch"), "{e}");
        // Rejected before its value is looked at, dangling or not.
        assert!(parse(&["--steps"])
            .unwrap_err()
            .to_string()
            .contains("unknown flag --steps"));
    }

    #[test]
    fn switches_take_no_value() {
        let a = parse(&["--batch", "--vms", "100", "trace.csv"]).unwrap();
        assert!(a.has("batch"));
        assert!(!a.has("no-batch"));
        assert_eq!(a.require_usize("vms").unwrap(), 100);
        assert_eq!(a.positional(), &["trace.csv".to_string()]);
    }

    #[test]
    fn duplicate_switch_is_error() {
        assert!(parse(&["--batch", "--batch"])
            .unwrap_err()
            .to_string()
            .contains("twice"));
    }

    #[test]
    fn optional_absent_is_none() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.get_f64("rho").unwrap(), None);
        assert!(a.require_f64("rho").is_err());
        assert_eq!(a.get_str("out"), None);
    }
}
