//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed flags of a subcommand.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses `--key value` pairs and bare `--switch`es.
    ///
    /// # Errors
    ///
    /// Returns a message for positional arguments (none are accepted).
    pub fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.values.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.switches.push(name.to_string());
                i += 1;
            }
        }
        Ok(flags)
    }

    /// A string flag value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// Returns a message when missing.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    /// A numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects a number, got `{v}`")),
        }
    }

    /// Whether a bare switch is present.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Rejects every flag outside `accepted`, a whitespace-separated list
    /// of flag names.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown flags, in sorted order.
    pub fn only(&self, accepted: &str) -> Result<(), String> {
        let mut unknown: Vec<&str> = self
            .values
            .keys()
            .chain(&self.switches)
            .map(String::as_str)
            .filter(|name| !accepted.split_whitespace().any(|a| a == *name))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort_unstable();
        unknown.dedup();
        let names: Vec<String> = unknown.iter().map(|n| format!("`--{n}`")).collect();
        Err(format!("unknown flag {}", names.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let f = Flags::parse(&argv("--lc Resnet50 --queries 50 --json")).unwrap();
        assert_eq!(f.get("lc"), Some("Resnet50"));
        assert_eq!(f.get_u64("queries", 0).unwrap(), 50);
        assert!(f.has("json"));
        assert!(!f.has("quiet"));
    }

    #[test]
    fn rejects_positional() {
        assert!(Flags::parse(&argv("Resnet50")).is_err());
    }

    #[test]
    fn only_rejects_undeclared_flags() {
        let f = Flags::parse(&argv("--lc Resnet50 --json --zeta 1 --alpha")).unwrap();
        assert!(f.only("lc json zeta alpha").is_ok());
        assert_eq!(
            f.only("lc json").unwrap_err(),
            "unknown flag `--alpha`, `--zeta`"
        );
        assert!(Flags::parse(&[]).unwrap().only("").is_ok());
        // Names match whole: a prefix of a declared flag is not declared.
        assert!(Flags::parse(&argv("--l x")).unwrap().only("lc").is_err());
    }

    #[test]
    fn require_and_defaults() {
        let f = Flags::parse(&argv("--be fft")).unwrap();
        assert!(f.require("be").is_ok());
        assert!(f.require("lc").is_err());
        assert_eq!(f.get_u64("queries", 100).unwrap(), 100);
        let bad = Flags::parse(&argv("--queries many")).unwrap();
        assert!(bad.get_u64("queries", 1).is_err());
    }
}
