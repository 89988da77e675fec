//! `compare A.json B.json`: one row per end-to-end metric × workload.
//!
//! Each file holds one result object per line (what a run writes to
//! `benchmark/out/result.<workload>.json`; `run.sh` concatenates them).
//! A workload that appears once is summarised by its own iterations; one
//! that appears several times — a set of runs — by the medians of its runs.

use std::collections::BTreeMap;

use crate::json::{parse, Value};
use crate::metrics::END_TO_END;
use crate::stats::{summarize, Summary};

/// How the second file's metric stands against the first's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    /// The spread is wider than the bound and the two interquartile
    /// ranges overlap: the runs cannot tell.
    Unresolved,
}

/// Judges `b` against baseline `a` for a lower-is-better metric.
pub fn judge(a: Summary, b: Summary, bound: f64) -> Verdict {
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    if a.spread().max(b.spread()) > bound && overlap && a.n > 1 && b.n > 1 {
        Verdict::Unresolved
    } else if b.value > a.value * (1.0 + bound) {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// `workload → metric → summary` of one result file.
pub fn load(text: &str) -> Result<BTreeMap<String, BTreeMap<String, Summary>>, String> {
    let mut runs: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        let workload = value
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", number + 1))?
            .to_string();
        runs.entry(workload).or_default().push(value);
    }
    let mut out = BTreeMap::new();
    for (workload, runs) in runs {
        let mut metrics = BTreeMap::new();
        for (name, _, _) in END_TO_END {
            let per_run: Option<Vec<Summary>> = runs
                .iter()
                .map(|run| run.get("metrics")?.get(name).and_then(Summary::from_json))
                .collect();
            let per_run = per_run.ok_or_else(|| format!("{workload}: no metric {name}"))?;
            let summary = match per_run.as_slice() {
                [only] => *only,
                many => summarize(&many.iter().map(|s| s.value).collect::<Vec<_>>()),
            };
            metrics.insert(name.to_string(), summary);
        }
        out.insert(workload, metrics);
    }
    Ok(out)
}

/// Prints the comparison; `Ok(true)` when every row is `within`.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare A.json B.json".into());
    };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        load(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (read(a_path)?, read(b_path)?);
    println!(
        "{:<20} {:<22} {:>36} {:>36} {:>18} {:>6}  verdict",
        "workload", "metric", "A value [q1, q3] n", "B value [q1, q3] n", "B vs A", "bound"
    );
    let cell = |s: Summary| format!("{:.5} [{:.5}, {:.5}] {}", s.value, s.q1, s.q3, s.n);
    let mut clean = true;
    for (workload, a_metrics) in &a {
        let b_metrics = b
            .get(workload)
            .ok_or_else(|| format!("{b_path}: no workload {workload}"))?;
        for (name, unit, bound) in END_TO_END {
            let (a, b) = (a_metrics[name], b_metrics[name]);
            let verdict = judge(a, b, bound);
            clean &= verdict == Verdict::Within;
            println!(
                "{workload:<20} {:<22} {:>36} {:>36} {:>+11.2}% of A {:>5.0}%  {}",
                format!("{name} ({unit})"),
                cell(a),
                cell(b),
                (b.value - a.value) / a.value * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64, n: usize) -> Summary {
        Summary {
            value: median,
            median,
            q1,
            q3,
            n,
        }
    }

    #[test]
    fn verdicts() {
        // Tight runs: the median decides.
        assert_eq!(
            judge(s(1.0, 0.99, 1.01, 9), s(1.05, 1.04, 1.06, 9), 0.10),
            Verdict::Within
        );
        assert_eq!(
            judge(s(1.0, 0.99, 1.01, 9), s(1.2, 1.19, 1.21, 9), 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(s(1.0, 0.99, 1.01, 9), s(0.5, 0.49, 0.51, 9), 0.10),
            Verdict::Within
        );
        // Spread wider than the bound and overlapping ranges: cannot tell.
        assert_eq!(
            judge(s(1.0, 0.9, 1.1, 9), s(1.05, 0.95, 1.2, 9), 0.10),
            Verdict::Unresolved
        );
        // Wide but disjoint: every run of B reads worse.
        assert_eq!(
            judge(s(1.0, 0.9, 1.1, 9), s(2.0, 1.8, 2.2, 9), 0.10),
            Verdict::Worse
        );
        // Single readings have no spread.
        assert_eq!(
            judge(s(1.0, 1.0, 1.0, 1), s(1.01, 1.01, 1.01, 1), 0.02),
            Verdict::Within
        );
        assert_eq!(
            judge(s(1.0, 1.0, 1.0, 1), s(1.03, 1.03, 1.03, 1), 0.02),
            Verdict::Worse
        );
    }

    #[test]
    fn load_groups_runs_by_workload() {
        let line = |workload: &str, wall: f64| {
            let metrics = END_TO_END
                .iter()
                .map(|(name, unit, _)| {
                    let value = if *name == "wall_s" { wall } else { 1.0 };
                    let mut fields = vec![("unit".to_string(), Value::Str((*unit).into()))];
                    fields.extend(
                        s(value, value * 0.9, value * 1.1, 7)
                            .to_json()
                            .fields()
                            .to_vec(),
                    );
                    (name.to_string(), Value::Obj(fields))
                })
                .collect();
            Value::Obj(vec![
                ("workload".into(), Value::Str(workload.into())),
                ("metrics".into(), Value::Obj(metrics)),
            ])
            .to_json()
        };
        let text = [
            line("a", 2.0),
            line("b", 3.0),
            line("b", 5.0),
            line("b", 4.0),
        ]
        .join("\n");
        let loaded = load(&text).unwrap();
        // One run: its own iterations.
        assert_eq!(loaded["a"]["wall_s"], s(2.0, 1.8, 2.2, 7));
        // Three runs: the medians of the runs.
        assert_eq!(loaded["b"]["wall_s"], s(4.0, 3.0, 5.0, 3));
        assert!(load("{\"metrics\": {}}").is_err());
        assert!(load(&line("a", 1.0).replace("wall_s", "wall")).is_err());
    }
}
