//! `bench compare A.json B.json`: B (the change) held against A (the
//! baseline) by the bounds table, one verdict per (workload, metric).

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::{iqr_share, median, sorted};

/// What `compare` says about one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's own trials spread wider than the bound and the sides'
    /// ranges overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one cell from the two sides' trial values.
pub fn judge(base: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (a, b) = (median(base), median(change));
    // Positive = the change is worse, as a share of the baseline.
    let worse_by = if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    if iqr_share(base).max(iqr_share(change)) > bound {
        let (sa, sb) = (sorted(base), sorted(change));
        let overlap = sa[0] <= sb[sb.len() - 1] && sb[0] <= sa[sa.len() - 1];
        if overlap {
            return Verdict::Unresolved;
        }
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn trials(doc: &Json, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    doc.need("workloads")?
        .need(workload)?
        .need("end_to_end")?
        .need(metric)?
        .need("trials")?
        .as_f64_vec()
        .filter(|v| !v.is_empty())
        .ok_or_else(|| format!("{workload}.{metric}: no trial values"))
}

fn fail_ratio(doc: &Json, workload: &str) -> Result<f64, String> {
    let w = doc.need("workloads")?.need(workload)?;
    let num = |k: &str| {
        w.need(k)?
            .as_f64()
            .ok_or_else(|| format!("{workload}.{k} is not a number"))
    };
    Ok(num("failed")? / num("attempted")?.max(1.0))
}

/// The comparison table and whether it holds a regression: any `worse`
/// cell, or a workload whose fail ratio rose.
pub fn compare(base: &Json, change: &Json) -> Result<(String, bool), String> {
    let mut table = format!("{:<12}", "workload");
    for m in &END_TO_END {
        table += &format!(" {:>22}", m.name);
    }
    table += &format!(" {:>12}\n", "fail_ratio");
    let mut regressed = false;
    let workloads = base
        .need("workloads")?
        .as_obj()
        .ok_or("workloads is not an object")?;
    for (workload, _) in workloads {
        table += &format!("{workload:<12}");
        for m in &END_TO_END {
            let (a, b) = (
                trials(base, workload, m.name)?,
                trials(change, workload, m.name)?,
            );
            let verdict = judge(&a, &b, m.higher_is_better, m.bound);
            regressed |= verdict == Verdict::Worse;
            let delta = (median(&b) / median(&a) - 1.0) * 100.0;
            table += &format!(" {:>22}", format!("{} {delta:+.1}%", verdict.label()));
        }
        let (fa, fb) = (fail_ratio(base, workload)?, fail_ratio(change, workload)?);
        regressed |= fb > fa;
        table += &format!(" {:>12}\n", if fb > fa { "HIGHER" } else { "same" });
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower-is-better metric, 8 % bound.
        assert_eq!(judge(&base, &base, false, 0.08), Verdict::Same);
        let slower: Vec<f64> = base.iter().map(|v| v * 1.10).collect();
        assert_eq!(judge(&base, &slower, false, 0.08), Verdict::Worse);
        assert_eq!(judge(&slower, &base, false, 0.08), Verdict::Better);
        // The same shift read as throughput is a gain.
        assert_eq!(judge(&base, &slower, true, 0.08), Verdict::Better);
        // Wide spread and overlapping ranges: cannot tell …
        let noisy = [80.0, 95.0, 100.0, 110.0, 130.0];
        assert_eq!(judge(&base, &noisy, false, 0.08), Verdict::Unresolved);
        // … unless every run of one side beats every run of the other.
        let far: Vec<f64> = noisy.iter().map(|v| v * 2.0).collect();
        assert_eq!(judge(&base, &far, false, 0.08), Verdict::Worse);
    }
}
