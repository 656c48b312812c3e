//! Minimal, dependency-free flag parsing.
//!
//! Flags are `--name value` pairs, plus valueless boolean switches
//! (`--metrics`); unknown flags are errors so typos surface instead of
//! silently using defaults.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Parsed `--flag value` pairs and boolean switches.
#[derive(Debug, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
    switches: BTreeSet<String>,
}

/// A user-facing argument error.
#[derive(Debug)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Flags {
    /// Parses `--name value` pairs (names in `allowed`) and valueless
    /// boolean switches (names in `switches`), rejecting anything else.
    pub fn parse(args: &[String], allowed: &[&str], switches: &[&str]) -> Result<Flags, ArgError> {
        let mut values = BTreeMap::new();
        let mut seen_switches = BTreeSet::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected argument `{arg}`")));
            };
            if switches.contains(&name) {
                if !seen_switches.insert(name.to_string()) {
                    return Err(ArgError(format!("flag `--{name}` given twice")));
                }
                continue;
            }
            if !allowed.contains(&name) {
                return Err(ArgError(format!(
                    "unknown flag `--{name}` (expected one of: {})",
                    allowed
                        .iter()
                        .chain(switches)
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
            let Some(value) = it.next() else {
                return Err(ArgError(format!("flag `--{name}` needs a value")));
            };
            if values.insert(name.to_string(), value.clone()).is_some() {
                return Err(ArgError(format!("flag `--{name}` given twice")));
            }
        }
        Ok(Flags {
            values,
            switches: seen_switches,
        })
    }

    /// Whether a boolean switch was present.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// String flag with a default.
    pub fn str_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.values.get(name).map(String::as_str).unwrap_or(default)
    }

    /// Optional string flag.
    pub fn str_opt(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Integer flag with a default.
    pub fn usize_or(&self, name: &str, default: usize) -> Result<usize, ArgError> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("`--{name}` expects an integer, got `{v}`"))),
        }
    }

    /// Integer flag with a default that must be at least 1 (a count of
    /// hosts, VMs or schedulers).
    pub fn positive_usize_or(&self, name: &str, default: usize) -> Result<usize, ArgError> {
        match self.usize_or(name, default)? {
            0 => Err(ArgError(format!("`--{name}` must be positive"))),
            n => Ok(n),
        }
    }

    /// u64 flag with a default.
    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, ArgError> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("`--{name}` expects an integer, got `{v}`"))),
        }
    }

    /// Float flag with a default.
    pub fn f64_or(&self, name: &str, default: f64) -> Result<f64, ArgError> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("`--{name}` expects a number, got `{v}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs() {
        let f = Flags::parse(
            &argv(&["--hosts", "8", "--policy", "suspend"]),
            &["hosts", "policy"],
            &[],
        )
        .unwrap();
        assert_eq!(f.usize_or("hosts", 1).unwrap(), 8);
        assert_eq!(f.str_or("policy", "x"), "suspend");
        assert_eq!(f.usize_or("vms", 99).unwrap(), 99);
    }

    #[test]
    fn parses_switches() {
        let f = Flags::parse(
            &argv(&["--metrics", "--hosts", "4"]),
            &["hosts"],
            &["metrics", "profile"],
        )
        .unwrap();
        assert!(f.switch("metrics"));
        assert!(!f.switch("profile"));
        assert_eq!(f.usize_or("hosts", 1).unwrap(), 4);
        // A switch never consumes the next token as a value.
        let f = Flags::parse(&argv(&["--metrics"]), &[], &["metrics"]).unwrap();
        assert!(f.switch("metrics"));
        let e = Flags::parse(&argv(&["--metrics", "--metrics"]), &[], &["metrics"]).unwrap_err();
        assert!(e.to_string().contains("twice"));
    }

    #[test]
    fn rejects_unknown_flag() {
        let e = Flags::parse(&argv(&["--bogus", "1"]), &["hosts"], &[]).unwrap_err();
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn rejects_missing_value() {
        let e = Flags::parse(&argv(&["--hosts"]), &["hosts"], &[]).unwrap_err();
        assert!(e.to_string().contains("needs a value"));
    }

    #[test]
    fn rejects_duplicates_and_bad_numbers() {
        let e =
            Flags::parse(&argv(&["--hosts", "1", "--hosts", "2"]), &["hosts"], &[]).unwrap_err();
        assert!(e.to_string().contains("twice"));
        let f = Flags::parse(&argv(&["--hosts", "abc"]), &["hosts"], &[]).unwrap();
        assert!(f.usize_or("hosts", 1).is_err());
    }
}
