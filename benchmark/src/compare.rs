//! `compare A.json B.json`: holds every (workload, end-to-end metric)
//! pair of two `all` documents against the metric's bound, and diffs the
//! exact-repeat counts.

use crate::json::Json;
use crate::metrics::{Better, Bound, EndToEnd, Metric, END_TO_END};

/// What a pair of medians says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sets of
    /// runs overlap: the pair cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric of B against the same metric of A.
pub fn judge(def: &EndToEnd, a: &Metric, b: &Metric) -> Verdict {
    let worse_by = match def.better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    let allowed = match def.bound {
        Bound::Share(share) => share * a.value.abs(),
        Bound::Absolute(amount) => amount,
    };
    if worse_by > allowed {
        return Verdict::Regressed;
    }
    let spread = (a.q3 - a.q1).max(b.q3 - b.q1);
    let b_clear_of_a = match def.better {
        Better::Lower => b.q3 < a.q1,
        Better::Higher => b.q1 > a.q3,
    };
    if spread > allowed && !b_clear_of_a {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// One compared pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: Metric,
    pub b: Metric,
    pub verdict: Verdict,
}

/// The comparison of two `all` documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// `(workload, count)` pairs whose exact-repeat value differs.
    pub changed_counts: Vec<(String, String)>,
}

impl Comparison {
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    /// The table `compare` prints.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<14} {:<15} {:>14} {:>14} {:>8}  {}\n",
            "workload", "metric", "A", "B", "change", "verdict"
        );
        for r in &self.rows {
            let change = if r.a.value == 0.0 {
                "-".to_owned()
            } else {
                format!("{:+.1}%", 100.0 * (r.b.value - r.a.value) / r.a.value)
            };
            out += &format!(
                "{:<14} {:<15} {:>14.4} {:>14.4} {:>8}  {}\n",
                r.workload,
                r.metric,
                r.a.value,
                r.b.value,
                change,
                r.verdict.as_str()
            );
        }
        for (workload, count) in &self.changed_counts {
            out += &format!("count differs: {workload} {count}\n");
        }
        out += if self.changed_counts.is_empty() {
            "behaviour: identical\n"
        } else {
            "behaviour: changed\n"
        };
        out
    }
}

/// Compares B against A. Every workload and metric of A must be in B.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let workloads = |doc: &Json, which: &str| {
        doc.get("workloads")
            .map(|w| w.members().to_vec())
            .ok_or_else(|| format!("{which} has no \"workloads\""))
    };
    let (a_workloads, b_workloads) = (workloads(a, "A")?, workloads(b, "B")?);
    let mut out = Comparison {
        rows: Vec::new(),
        changed_counts: Vec::new(),
    };
    for (workload, a_doc) in &a_workloads {
        let b_doc = b_workloads
            .iter()
            .find(|(name, _)| name == workload)
            .map(|(_, doc)| doc)
            .ok_or_else(|| format!("B has no workload {workload}"))?;
        for def in &END_TO_END {
            let metric = |doc: &Json| {
                doc.get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| Metric::from_json(def.name, m))
            };
            let Some(a_metric) = metric(a_doc) else {
                continue;
            };
            let b_metric =
                metric(b_doc).ok_or_else(|| format!("B has no {} for {workload}", def.name))?;
            out.rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                verdict: judge(def, &a_metric, &b_metric),
                a: a_metric,
                b: b_metric,
            });
        }
        let exact = |doc: &Json| {
            doc.get("exact")
                .map(|e| e.members().to_vec())
                .unwrap_or_default()
        };
        let (a_exact, b_exact) = (exact(a_doc), exact(b_doc));
        for (count, value) in &a_exact {
            if b_exact
                .iter()
                .find(|(name, _)| name == count)
                .map(|(_, v)| v)
                != Some(value)
            {
                out.changed_counts.push((workload.clone(), count.clone()));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("known metric")
    }

    fn metric(name: &str, q1: f64, value: f64, q3: f64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit: def(name).unit.to_owned(),
            value,
            q1,
            q3,
            n: 5,
        }
    }

    #[test]
    fn throughput_within_bound_is_ok_beyond_is_regressed() {
        let ops = def("ops_per_s");
        let a = metric("ops_per_s", 990.0, 1000.0, 1010.0);
        assert_eq!(
            judge(ops, &a, &metric("ops_per_s", 790.0, 800.0, 810.0)),
            Verdict::Ok
        );
        assert_eq!(
            judge(ops, &a, &metric("ops_per_s", 730.0, 740.0, 750.0)),
            Verdict::Regressed
        );
        // Higher is better: a gain is never a regression.
        assert_eq!(
            judge(ops, &a, &metric("ops_per_s", 1490.0, 1500.0, 1510.0)),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_overlapping_spread_is_unresolved() {
        let p50 = def("turn_p50_us");
        let a = metric("turn_p50_us", 90.0, 100.0, 115.0);
        let b = metric("turn_p50_us", 95.0, 104.0, 112.0);
        assert_eq!(judge(p50, &a, &b), Verdict::Unresolved);
        // Every run of B better than every run of A: resolved, ok.
        let clear = metric("turn_p50_us", 60.0, 70.0, 85.0);
        assert_eq!(judge(p50, &a, &clear), Verdict::Ok);
    }

    #[test]
    fn absolute_bounds() {
        let err = def("policy_err_pp");
        let a = metric("policy_err_pp", 0.021, 0.021, 0.021);
        assert_eq!(
            judge(err, &a, &metric("policy_err_pp", 0.06, 0.06, 0.06)),
            Verdict::Ok
        );
        assert_eq!(
            judge(err, &a, &metric("policy_err_pp", 0.08, 0.08, 0.08)),
            Verdict::Regressed
        );
        let failed = def("failed_ops_pct");
        let zero = metric("failed_ops_pct", 0.0, 0.0, 0.0);
        assert_eq!(judge(failed, &zero, &zero), Verdict::Ok);
        assert_eq!(
            judge(failed, &zero, &metric("failed_ops_pct", 0.1, 0.1, 0.1)),
            Verdict::Regressed
        );
    }
}
