//! `feather_benchmark compare <a.json> <b.json>`: one row per (workload,
//! end-to-end metric) judging `b` against the base `a` by the bounds in
//! `BENCHMARK.json`.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Several runs per side whose spread exceeds the bound, and the sides
    /// overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the runs of `b` against those of the base `a`. `bound` is the share
/// of the base's median by which the metric may get worse.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (base, new) = (stats::median(a), stats::median(b));
    // Positive when `b` is worse, as a share of the base.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if base == 0.0 {
        sign * (new - base)
    } else {
        sign * (new - base) / base.abs()
    };
    let noisy = stats::spread(a).max(stats::spread(b)) > bound;
    if noisy {
        let every_b_beats_every_a = a.iter().all(|&x| b.iter().all(|&y| sign * (y - x) < 0.0));
        return if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

struct Bound {
    lower_is_better: bool,
    bound: f64,
}

fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds(benchmark: &Value) -> Result<BTreeMap<String, Bound>, String> {
    let listed = benchmark
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?;
    listed
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Value::as_str);
            let better = entry.get("better").and_then(Value::as_str);
            let bound = entry.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok((
                    name.to_string(),
                    Bound {
                        lower_is_better: better == "lower",
                        bound,
                    },
                )),
                _ => Err(format!("malformed end_to_end entry: {}", entry.render())),
            }
        })
        .collect()
}

fn values(results: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

/// The settings two result files must share to be comparable.
fn check_comparable(a: &Value, b: &Value) -> Result<(), String> {
    for key in ["seed", "seconds", "quick", "schema"] {
        let (x, y) = (a.get(key), b.get(key));
        if x.is_none() || x != y {
            return Err(format!(
                "the two files differ in `{key}` ({} vs {}): not comparable",
                x.map_or("missing".to_string(), Value::render),
                y.map_or("missing".to_string(), Value::render),
            ));
        }
    }
    Ok(())
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds_path = it.next().ok_or("--bounds needs a path")?.clone();
        } else {
            files.push(arg.as_str());
        }
    }
    let [a_path, b_path] = files[..] else {
        return Err("usage: compare <a.json> <b.json> [--bounds <BENCHMARK.json>]".to_string());
    };
    let (a, b) = (read(a_path)?, read(b_path)?);
    check_comparable(&a, &b)?;
    let bounds = bounds(&read(&bounds_path)?)?;

    println!(
        "{:<13} {:<16} {:>14} {:>14} {:>16} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    let mut any_worse = false;
    let workloads = a
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{a_path}: no `workloads`"))?;
    for (workload, _) in workloads {
        for (metric, bound) in &bounds {
            let (Some(va), Some(vb)) = (values(&a, workload, metric), values(&b, workload, metric))
            else {
                return Err(format!(
                    "{workload} {metric}: missing from one of the files"
                ));
            };
            let verdict = judge(&va, &vb, bound.lower_is_better, bound.bound);
            any_worse |= verdict == Verdict::Worse;
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let ratio = if ma == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:.4} of {:.4}", mb / ma, ma)
            };
            println!(
                "{workload:<13} {metric:<16} {ma:>14.4} {mb:>14.4} {ratio:>16} {:>7.3}  {}{}",
                bound.bound,
                verdict.as_str(),
                if verdict == Verdict::Unresolved {
                    format!(
                        " (spread a {:.3}, b {:.3})",
                        stats::spread(&va),
                        stats::spread(&vb)
                    )
                } else {
                    String::new()
                }
            );
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_against_the_bound() {
        // Lower is better, 8 % bound.
        assert_eq!(judge(&[10.0], &[10.5], true, 0.08), Verdict::Same);
        assert_eq!(judge(&[10.0], &[11.0], true, 0.08), Verdict::Worse);
        assert_eq!(judge(&[10.0], &[9.0], true, 0.08), Verdict::Better);
        // Higher is better flips the direction.
        assert_eq!(judge(&[300.0], &[270.0], false, 0.08), Verdict::Worse);
        assert_eq!(judge(&[300.0], &[330.0], false, 0.08), Verdict::Better);
        // A bound of 0 is exact.
        assert_eq!(judge(&[15395.0], &[15395.0], true, 0.0), Verdict::Same);
        assert_eq!(judge(&[15395.0], &[15396.0], true, 0.0), Verdict::Worse);
        assert_eq!(judge(&[15395.0], &[15394.0], true, 0.0), Verdict::Better);
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_unless_sides_separate() {
        let noisy = [10.0, 12.0, 8.0];
        assert_eq!(
            judge(&noisy, &[10.5, 9.0, 11.0], true, 0.08),
            Verdict::Unresolved
        );
        // Every run of b beats every run of a: better despite the noise.
        assert_eq!(judge(&noisy, &[7.0, 6.0, 7.5], true, 0.08), Verdict::Better);
        // Quiet sides are judged on their medians.
        assert_eq!(
            judge(&[10.0, 10.1, 9.9], &[10.2, 10.3, 10.1], true, 0.08),
            Verdict::Same
        );
    }

    #[test]
    fn files_with_different_settings_are_refused() {
        let file = |seed: f64, seconds: f64, quick: bool| {
            Value::obj(vec![
                ("schema", Value::Num(1.0)),
                ("seed", Value::Num(seed)),
                ("seconds", Value::Num(seconds)),
                ("quick", Value::Bool(quick)),
            ])
        };
        assert!(check_comparable(&file(1.0, 12.0, false), &file(1.0, 12.0, false)).is_ok());
        for other in [
            file(2.0, 12.0, false),
            file(1.0, 6.0, false),
            file(1.0, 12.0, true),
        ] {
            assert!(check_comparable(&file(1.0, 12.0, false), &other).is_err());
        }
    }
}
