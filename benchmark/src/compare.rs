//! `compare <a.json> <b.json>`: two sets of runs against the bounds in
//! `BENCHMARK.json`.
//!
//! A set is a JSON array of result objects (what `run.sh` writes): several
//! runs per workload, each with its own `--seed`. Per workload × end-to-end
//! metric the sets' medians are compared; `b` may be worse than `a` by at
//! most the metric's bound. Where either set's own runs spread wider than the
//! bound, the row is *unresolved* rather than passed — unless every run of
//! `b` beats every run of `a`. Counts marked exact in the per-layer table
//! must be identical wherever both sets hold a traced run of the same
//! workload and seed.

use crate::entry::{self, Value};
use crate::report::{Contract, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use std::collections::BTreeMap;

/// How one row came out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the runs are steady enough to say so.
    Pass,
    /// Worse by more than the bound.
    Fail,
    /// The runs spread wider than the bound.
    Unresolved,
}

/// One workload × metric row.
pub struct Row {
    /// Median of set `a` — the base of the ratio.
    pub base: f64,
    /// Median of set `b`.
    pub other: f64,
    /// How much worse `b` is, as a share of `base` (negative = better).
    pub worse_by: f64,
    /// The wider of the two sets' inter-quartile range ÷ median.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric from the two sets' values.
pub fn judge(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> Row {
    let (base, other) = (median(a), median(b));
    let worse_by = if higher_is_better {
        (base - other) / base
    } else {
        (other - base) / base
    };
    let spread = spread(a).max(spread(b));
    let b_always_better = !a.is_empty()
        && !b.is_empty()
        && a.iter().all(|x| {
            b.iter()
                .all(|y| if higher_is_better { y > x } else { y < x })
        });
    let verdict = if spread > bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Fail
    } else {
        Verdict::Pass
    };
    Row {
        base,
        other,
        worse_by,
        spread,
        verdict,
    }
}

fn load(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = entry::json_from_str(&text).map_err(|e| format!("{path}: {e:?}"))?;
    doc.as_array()
        .map(<[Value]>::to_vec)
        .ok_or_else(|| format!("{path}: not a JSON array of results"))
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn is_traced(result: &Value) -> bool {
    result.get("traced").and_then(Value::as_bool) == Some(true)
}

fn workload(result: &Value) -> &str {
    result.get("workload").and_then(Value::as_str).unwrap_or("")
}

/// Untraced values of `name` on `workload`, in file order.
fn values(set: &[Value], workload_name: &str, name: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| !is_traced(r) && workload(r) == workload_name)
        .filter_map(|r| metric(r, name))
        .collect()
}

/// Prints the comparison; `Ok(true)` when every row passed.
pub fn compare(path_a: &str, path_b: &str, contract: &Contract) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut all_pass = true;
    println!("compare: a = {path_a} (base), b = {path_b}");
    println!(
        "{:<15} {:<20} {:>3} {:>3} {:>13} {:>13} {:>8} {:>9} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "n_a",
        "n_b",
        "median_a",
        "median_b",
        "b/a",
        "worse_by",
        "spread",
        "bound"
    );
    for workload_name in &contract.workloads {
        for (name, _) in END_TO_END {
            let (va, vb) = (
                values(&a, workload_name, name),
                values(&b, workload_name, name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload_name:<15} {name:<20} missing from one set  FAIL");
                all_pass = false;
                continue;
            }
            let bound = contract.bounds[name];
            let row = judge(&va, &vb, bound, contract.higher_is_better[name]);
            all_pass &= row.verdict == Verdict::Pass;
            println!(
                "{workload_name:<15} {name:<20} {:>3} {:>3} {:>13.4} {:>13.4} {:>8.4} {:>+9.4} {:>7.4} {:>6.2}  {:?}",
                va.len(),
                vb.len(),
                row.base,
                row.other,
                row.other / row.base,
                row.worse_by,
                row.spread,
                bound,
                row.verdict
            );
        }
    }

    // Exact counts: same workload, same seed, traced on both sides.
    let traced_by_key = |set: &[Value]| -> BTreeMap<(String, u64), Value> {
        set.iter()
            .filter(|r| is_traced(r))
            .map(|r| {
                let seed = r.get("seed").and_then(Value::as_u64).unwrap_or(0);
                ((workload(r).to_string(), seed), r.clone())
            })
            .collect()
    };
    let (ta, tb) = (traced_by_key(&a), traced_by_key(&b));
    let mut compared = 0;
    for (key, ra) in &ta {
        let Some(rb) = tb.get(key) else { continue };
        for (name, _, exact) in PER_LAYER {
            if !exact {
                continue;
            }
            compared += 1;
            let (x, y) = (metric(ra, name), metric(rb, name));
            if x != y {
                all_pass = false;
                println!(
                    "exact count {name} on {} seed {}: a = {x:?}, b = {y:?}  FAIL",
                    key.0, key.1
                );
            }
        }
    }
    println!("exact per-layer counts compared: {compared}");
    println!(
        "result: {}",
        if all_pass {
            "every row within its bound"
        } else {
            "NOT every row within its bound"
        }
    );
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_sets_pass_or_fail_on_the_median() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [99.0, 100.0, 98.5, 99.5, 100.2];
        assert_eq!(judge(&a, &same, 0.10, true).verdict, Verdict::Pass);
        let slower = [85.0, 86.0, 84.0, 85.5, 84.5];
        let row = judge(&a, &slower, 0.10, true);
        assert_eq!(row.verdict, Verdict::Fail);
        assert!((row.worse_by - 0.15).abs() < 0.01);
        // Lower-is-better metrics flip the direction.
        assert_eq!(judge(&a, &slower, 0.10, false).verdict, Verdict::Pass);
        assert_eq!(judge(&slower, &a, 0.10, false).verdict, Verdict::Fail);
    }

    #[test]
    fn noisy_sets_are_unresolved_unless_b_always_wins() {
        let a = [100.0, 60.0, 140.0, 80.0, 120.0];
        let b = [95.0, 65.0, 130.0, 85.0, 115.0];
        assert_eq!(judge(&a, &b, 0.10, true).verdict, Verdict::Unresolved);
        let b_wins = [150.0, 200.0, 300.0, 160.0, 170.0];
        assert_eq!(judge(&a, &b_wins, 0.10, true).verdict, Verdict::Pass);
    }
}
