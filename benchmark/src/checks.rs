//! Correctness checks every run makes. A failed check fails the command:
//! a number is never printed for a run whose outputs are wrong.

use crate::drive::{Res, RunResult};

/// The share a policy was asked to hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Requested {
    /// SAIO: collector share of all page I/O, percent.
    GcIoPct(f64),
    /// SAGA: garbage share of the database, percent.
    GarbagePct(f64),
}

/// Two drives of the same inputs must produce equal results, shard by
/// shard.
pub fn same_results(what: &str, expected: &[RunResult], got: &[RunResult]) -> Res<()> {
    if expected.len() != got.len() {
        return Err(format!(
            "{what}: {} results against {}",
            got.len(),
            expected.len()
        ));
    }
    for (i, (e, g)) in expected.iter().zip(got).enumerate() {
        if e != g {
            return Err(format!(
                "{what}: result {i} differs: {} collections, {} events, {} gc I/O against \
                 {} collections, {} events, {} gc I/O",
                g.collection_count(),
                g.events_replayed,
                g.gc_io_total,
                e.collection_count(),
                e.events_replayed,
                e.gc_io_total,
            ));
        }
    }
    Ok(())
}

/// Garbage is conserved: what was generated and not collected is still
/// there.
pub fn garbage_identity(r: &RunResult) -> Res<()> {
    let left = r
        .total_garbage_generated
        .checked_sub(r.total_garbage_collected);
    if left != Some(r.final_garbage_bytes) {
        return Err(format!(
            "garbage not conserved: generated {} - collected {} != remaining {}",
            r.total_garbage_generated, r.total_garbage_collected, r.final_garbage_bytes
        ));
    }
    Ok(())
}

/// `|achieved - requested|` in percentage points, from the result's
/// measured window.
pub fn policy_err_pp(requested: Requested, r: &RunResult) -> Res<f64> {
    let (want, achieved) = match requested {
        Requested::GcIoPct(want) => (want, r.gc_io_pct),
        Requested::GarbagePct(want) => (want, r.garbage_pct_mean),
    };
    let achieved = achieved.ok_or_else(|| {
        format!(
            "no measured window: only {} collections",
            r.collection_count()
        )
    })?;
    Ok((achieved - want).abs())
}

/// The tolerances `tests/policy_accuracy.rs` holds the policies to:
/// SAIO within 15 % of the request plus half a point, SAGA within three
/// points.
pub fn policy_within_tolerance(requested: Requested, err_pp: f64) -> Res<()> {
    let allowed = match requested {
        Requested::GcIoPct(want) => 0.15 * want + 0.5,
        Requested::GarbagePct(_) => 3.0,
    };
    if err_pp < allowed {
        Ok(())
    } else {
        Err(format!(
            "policy missed {requested:?} by {err_pp:.3} pp (allowed {allowed:.3})"
        ))
    }
}

/// What the two ends of a loopback rep counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetTally {
    /// Operations the client submitted.
    pub ops_sent: u64,
    /// Operations the server acknowledged as applied.
    pub ops_acked: u64,
    /// `events_replayed` summed over the shard results.
    pub ops_on_shards: u64,
    /// `Busy` answers the client saw.
    pub busy_seen: u64,
    /// `busy_rejections` summed over the server's client counters.
    pub busy_counted: u64,
    /// Connections the server did not see close cleanly.
    pub unclean_closes: u64,
    /// Shards that stopped serving.
    pub failed_shards: u64,
}

impl NetTally {
    /// Operations that were refused or lost.
    pub fn failed_ops(&self) -> u64 {
        self.ops_sent - self.ops_acked.min(self.ops_sent)
    }
}

/// No acknowledged operation is lost, nothing is refused, everyone says
/// goodbye.
pub fn net_accounting(t: &NetTally) -> Res<()> {
    if t.busy_seen != 0 || t.busy_counted != 0 {
        return Err(format!(
            "{} Busy answers seen, {} counted by the server: the window was overrun",
            t.busy_seen, t.busy_counted
        ));
    }
    if t.ops_acked != t.ops_sent {
        return Err(format!(
            "{} ops acknowledged of {} sent",
            t.ops_acked, t.ops_sent
        ));
    }
    if t.ops_on_shards != t.ops_acked {
        return Err(format!(
            "{} ops acknowledged but {} applied on the shards",
            t.ops_acked, t.ops_on_shards
        ));
    }
    if t.unclean_closes != 0 {
        return Err(format!("{} connections closed uncleanly", t.unclean_closes));
    }
    if t.failed_shards != 0 {
        return Err(format!("{} shards stopped serving", t.failed_shards));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(collected: u64) -> RunResult {
        RunResult {
            collections: Vec::new(),
            garbage_pct_mean: Some(5.4),
            gc_io_pct: Some(9.98),
            app_io_total: 100,
            gc_io_total: 10,
            total_garbage_generated: 1_000,
            total_garbage_collected: collected,
            final_db_size: 4_096,
            final_live_bytes: 3_000,
            final_garbage_bytes: 1_000 - collected,
            partition_count: 1,
            overwrite_clock: 7,
            events_replayed: 50,
            phases: Vec::new(),
        }
    }

    #[test]
    fn mismatched_results_fail() {
        let a = [result(400)];
        assert!(same_results("reps", &a, &a.clone()).is_ok());
        let err = same_results("reps", &a, &[result(401)]).expect_err("differs");
        assert!(err.contains("result 0 differs"), "{err}");
        assert!(same_results("reps", &a, &[]).is_err());
    }

    #[test]
    fn lost_garbage_fails() {
        assert!(garbage_identity(&result(400)).is_ok());
        let mut r = result(400);
        r.final_garbage_bytes += 1;
        assert!(garbage_identity(&r).is_err());
        r.total_garbage_collected = 2_000;
        assert!(
            garbage_identity(&r).is_err(),
            "collected more than generated"
        );
    }

    #[test]
    fn policy_error_and_tolerance() {
        let r = result(400);
        let saio = Requested::GcIoPct(10.0);
        let err = policy_err_pp(saio, &r).expect("window");
        assert!((err - 0.02).abs() < 1e-9);
        assert!(policy_within_tolerance(saio, err).is_ok());
        assert!(policy_within_tolerance(saio, 2.0).is_err());
        let saga = Requested::GarbagePct(5.0);
        assert!((policy_err_pp(saga, &r).expect("window") - 0.4).abs() < 1e-9);
        assert!(policy_within_tolerance(saga, 3.0).is_err());
        let mut none = result(400);
        none.gc_io_pct = None;
        assert!(policy_err_pp(saio, &none).is_err());
    }

    #[test]
    fn busy_and_lost_ops_fail() {
        let ok = NetTally {
            ops_sent: 800,
            ops_acked: 800,
            ops_on_shards: 800,
            ..NetTally::default()
        };
        assert!(net_accounting(&ok).is_ok());
        assert_eq!(ok.failed_ops(), 0);
        let busy = NetTally {
            busy_seen: 1,
            ops_acked: 792,
            ..ok
        };
        assert!(net_accounting(&busy).expect_err("busy").contains("Busy"));
        assert_eq!(busy.failed_ops(), 8);
        for bad in [
            NetTally {
                busy_counted: 2,
                ..ok
            },
            NetTally {
                ops_acked: 799,
                ..ok
            },
            NetTally {
                ops_on_shards: 799,
                ..ok
            },
            NetTally {
                unclean_closes: 1,
                ..ok
            },
            NetTally {
                failed_shards: 1,
                ..ok
            },
        ] {
            assert!(net_accounting(&bad).is_err(), "{bad:?}");
        }
    }
}
