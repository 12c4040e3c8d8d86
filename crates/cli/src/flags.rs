//! A tiny `--flag value` argument parser (no external dependency).

use std::collections::BTreeMap;

use crate::CliError;

/// Parsed `--key value` pairs with typed accessors. Every flag must take
/// exactly one value; unknown flags are rejected by [`Flags::finish`].
#[derive(Debug)]
pub struct Flags {
    values: BTreeMap<String, String>,
    consumed: std::cell::RefCell<Vec<String>>,
}

impl Flags {
    /// Parses an argument list of the form `--key value --key2 value2`.
    pub fn parse(args: &[String]) -> Result<Flags, CliError> {
        let mut values = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(CliError(format!("expected a --flag, found {arg:?}")));
            };
            let Some(value) = it.next() else {
                return Err(CliError(format!("flag --{key} is missing its value")));
            };
            if values.insert(key.to_owned(), value.clone()).is_some() {
                return Err(CliError(format!("flag --{key} given twice")));
            }
        }
        Ok(Flags {
            values,
            consumed: std::cell::RefCell::new(Vec::new()),
        })
    }

    /// An optional string flag.
    pub fn get(&self, key: &str) -> Option<String> {
        self.consumed.borrow_mut().push(key.to_owned());
        self.values.get(key).cloned()
    }

    /// A required string flag.
    pub fn require(&self, key: &str) -> Result<String, CliError> {
        self.get(key)
            .ok_or_else(|| CliError(format!("missing required flag --{key}")))
    }

    /// An optional parsed flag.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        let parse = |v: String| {
            v.parse()
                .map_err(|_| CliError(format!("flag --{key}: cannot parse {v:?}")))
        };
        self.get(key).map(parse).transpose()
    }

    /// An optional parsed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        Ok(self.get_parsed(key)?.unwrap_or(default))
    }

    /// An optional count flag with a default, refused by name unless it
    /// is in `1..=max`. For counts that size threads, sockets or memory:
    /// the check runs before any of them is built.
    pub fn count_or(&self, key: &str, default: u32, max: u32) -> Result<u32, CliError> {
        let n: u32 = self.get_or(key, default)?;
        if n == 0 || n > max {
            return Err(CliError(format!("--{key} must be in 1..={max}, got {n}")));
        }
        Ok(n)
    }

    /// Rejects any flag that no accessor asked about (catches typos).
    pub fn finish(self) -> Result<(), CliError> {
        let consumed = self.consumed.into_inner();
        for key in self.values.keys() {
            if !consumed.contains(key) {
                return Err(CliError(format!("unknown flag --{key}")));
            }
        }
        Ok(())
    }
}

/// The most seeds one range may name. Every seed is a job per cell and a
/// trace held in memory for the whole sweep.
pub const MAX_SEEDS: u64 = 10_000;

/// The most shards `serve --shards` may start. Each shard is an engine,
/// an event-loop thread and a wake pipe.
pub const MAX_SHARDS: u32 = 256;

/// The most sessions `serve-bench --sessions` may schedule. Each is a
/// session workload and its object table, all allocated before the
/// first turn.
pub const MAX_SESSIONS: u32 = 4_096;

/// The most connections `client --connections` may open. Each is a
/// socket, and so a file descriptor, held until the run ends.
pub const MAX_CONNECTIONS: u32 = 1_024;

/// Parses a seed range: `5` (one seed) or `1..10` (inclusive), of at
/// most [`MAX_SEEDS`] seeds.
pub fn parse_seed_range(s: &str) -> Result<Vec<u64>, CliError> {
    if let Some((a, b)) = s.split_once("..") {
        let a: u64 = a
            .parse()
            .map_err(|_| CliError(format!("bad seed range start {a:?}")))?;
        let b: u64 = b
            .parse()
            .map_err(|_| CliError(format!("bad seed range end {b:?}")))?;
        if a > b {
            return Err(CliError(format!("empty seed range {s:?}")));
        }
        if b - a >= MAX_SEEDS {
            return Err(CliError(format!(
                "seed range {s:?} names more than {MAX_SEEDS} seeds"
            )));
        }
        Ok((a..=b).collect())
    } else {
        let v: u64 = s.parse().map_err(|_| CliError(format!("bad seed {s:?}")))?;
        Ok(vec![v])
    }
}

/// Parses a comma-separated list of numbers: `2,5,10.5`.
pub fn parse_number_list(s: &str) -> Result<Vec<f64>, CliError> {
    s.split(',')
        .map(|t| {
            t.trim()
                .parse::<f64>()
                .map_err(|_| CliError(format!("bad number {t:?} in list")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_key_value_pairs() {
        let f = Flags::parse(&argv("--conn 3 --seed 7")).unwrap();
        assert_eq!(f.get("conn"), Some("3".into()));
        assert_eq!(f.get_or::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(f.get_or::<u64>("missing", 42).unwrap(), 42);
        f.finish().unwrap();
    }

    #[test]
    fn rejects_missing_value_and_duplicates() {
        assert!(Flags::parse(&argv("--conn")).is_err());
        assert!(Flags::parse(&argv("--conn 3 --conn 4")).is_err());
        assert!(Flags::parse(&argv("conn 3")).is_err());
    }

    #[test]
    fn rejects_unknown_flags() {
        let f = Flags::parse(&argv("--conn 3 --tpyo 1")).unwrap();
        let _ = f.get("conn");
        assert!(f.finish().unwrap_err().to_string().contains("--tpyo"));
    }

    #[test]
    fn required_flag_errors_when_absent() {
        let f = Flags::parse(&[]).unwrap();
        assert!(f.require("out").is_err());
    }

    #[test]
    fn counts_are_refused_by_name_outside_one_to_max() {
        let f = Flags::parse(&argv("--shards 3")).unwrap();
        assert_eq!(f.count_or("shards", 2, 3).unwrap(), 3);
        assert_eq!(f.count_or("sessions", 2, 3).unwrap(), 2);
        for (n, max) in [(0, 3), (4, 3)] {
            let f = Flags::parse(&argv(&format!("--shards {n}"))).unwrap();
            let err = f.count_or("shards", 2, max).unwrap_err().to_string();
            assert_eq!(err, format!("--shards must be in 1..={max}, got {n}"));
        }
    }

    #[test]
    fn seed_ranges() {
        assert_eq!(parse_seed_range("5").unwrap(), vec![5]);
        assert_eq!(parse_seed_range("1..4").unwrap(), vec![1, 2, 3, 4]);
        assert!(parse_seed_range("4..1").is_err());
        assert_eq!(parse_seed_range("1..10000").unwrap().len(), 10_000);
        assert!(parse_seed_range("1..10001")
            .unwrap_err()
            .to_string()
            .contains("more than 10000 seeds"));
        assert!(parse_seed_range("1..18446744073709551615").is_err());
        assert!(parse_seed_range("0..18446744073709551615").is_err());
        assert!(parse_seed_range("x").is_err());
    }

    #[test]
    fn number_lists() {
        assert_eq!(parse_number_list("2,5,10.5").unwrap(), vec![2.0, 5.0, 10.5]);
        assert!(parse_number_list("2,x").is_err());
    }
}
