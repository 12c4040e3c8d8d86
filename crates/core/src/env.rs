//! Shared parsing of worker-count environment variables.
//!
//! `ODBGC_JOBS` (experiment-plan worker threads) and
//! `ODBGC_NET_THREADS` (serve event-loop pool size) are both "positive
//! integer or ignored" knobs, read in different crates. This helper
//! gives every reader the same validation and — critically — the same
//! warning message shape, so an invalid value is diagnosed identically
//! whether it reaches `sweep` or `serve`.

/// Parses a worker-count environment value: a positive integer after
/// trimming.
///
/// On success returns the count. On garbage (empty, non-numeric, zero,
/// negative) returns the canonical warning line the caller should print
/// to stderr before falling back:
///
/// ```text
/// odbgc: ignoring invalid <VAR>="<value>" (want a positive integer); <fallback>
/// ```
///
/// `fallback` finishes the sentence — e.g. `"using all available cores"`
/// — so the warning names the value the run will actually use.
pub fn parse_worker_env(var: &str, value: &str, fallback: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "odbgc: ignoring invalid {var}={value:?} (want a positive integer); {fallback}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_integers_parse() {
        assert_eq!(parse_worker_env("ODBGC_JOBS", "1", "using 1"), Ok(1));
        assert_eq!(parse_worker_env("ODBGC_JOBS", " 8 ", "using 1"), Ok(8));
        assert_eq!(
            parse_worker_env("ODBGC_NET_THREADS", "2", "using min(4, available cores)"),
            Ok(2)
        );
    }

    #[test]
    fn garbage_yields_the_canonical_warning() {
        for bad in ["", "0", "-2", "many", "3.5"] {
            let err = parse_worker_env("ODBGC_NET_THREADS", bad, "using min(4, available cores)")
                .unwrap_err();
            assert_eq!(
                err,
                format!(
                    "odbgc: ignoring invalid ODBGC_NET_THREADS={bad:?} \
                     (want a positive integer); using min(4, available cores)"
                )
            );
        }
    }

    #[test]
    fn both_variables_share_one_message_shape() {
        let jobs = parse_worker_env("ODBGC_JOBS", "x", "using all available cores").unwrap_err();
        let net = parse_worker_env("ODBGC_NET_THREADS", "x", "using min(4, available cores)")
            .unwrap_err();
        // Identical up to the variable name and fallback clause.
        assert_eq!(
            jobs.replace("ODBGC_JOBS", "VAR")
                .replace("using all available cores", "FALLBACK"),
            net.replace("ODBGC_NET_THREADS", "VAR")
                .replace("using min(4, available cores)", "FALLBACK"),
        );
    }
}
