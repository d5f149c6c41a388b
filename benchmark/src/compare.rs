//! `compare`: two `report.json` files, one row per (end-to-end metric,
//! workload), judged with the bounds `BENCHMARK.json` fixes. This is the
//! check behind "two sets of runs of one commit agree" and the first
//! look at any before/after pair.

use crate::json::Value;
use crate::spec::{self, Better};
use crate::stats;

/// How one (metric, workload) pair moved from the first report to the
/// second.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    Better,
    Worse,
    /// One side's own repetitions spread wider than the bound and the
    /// two sides' samples overlap: the pair cannot be told apart.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Spread of one side's samples as a share of their median: the
/// quartile distance from four samples on, the full range below that.
fn spread(samples: &[f64]) -> f64 {
    let median = stats::median(samples);
    if samples.len() >= 4 {
        stats::quartile_spread(samples).unwrap_or(0.0)
    } else {
        let max = samples.iter().copied().fold(f64::MIN, f64::max);
        let min = samples.iter().copied().fold(f64::MAX, f64::min);
        (max - min) / median
    }
}

/// Judge one pair. `change` in the result is the relative change of the
/// median in the metric's *worse* direction (positive = got worse).
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let improved = |x: f64, y: f64| match better {
        Better::Lower => y < x,
        Better::Higher => y > x,
    };
    let b_beats_all_a = a.iter().all(|&x| b.iter().all(|&y| improved(x, y)));
    let a_beats_all_b = b.iter().all(|&y| a.iter().all(|&x| improved(y, x)));
    let noisy = spread(a) > bound || spread(b) > bound;
    let verdict = if noisy && !b_beats_all_a && !a_beats_all_b {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

fn workload<'a>(report: &'a Value, name: &str) -> Option<&'a Value> {
    report
        .get("workloads")?
        .as_array()
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

fn samples(entry: &Value, metric: &str) -> Vec<f64> {
    entry
        .get("end_to_end")
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("samples"))
        .map(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_f64)
        .collect()
}

fn failure_share(entry: &Value) -> f64 {
    let get = |k: &str| entry.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    get("failed") / get("attempted").max(1.0)
}

/// Print the comparison; returns how many rows read worse, unresolved,
/// or changed what was simulated.
pub fn compare(a: &Value, b: &Value, benchmark: &Value) -> usize {
    let bound_of = |metric: &str| -> f64 {
        benchmark
            .get("end_to_end")
            .map(Value::as_array)
            .unwrap_or_default()
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(metric))
            .and_then(|m| m.get("bound"))
            .and_then(Value::as_f64)
            .unwrap_or(0.10)
    };
    println!(
        "{:18} {:20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut flagged = 0;
    for name in spec::WORKLOADS {
        let (Some(wa), Some(wb)) = (workload(a, name), workload(b, name)) else {
            continue;
        };
        for def in &spec::END_TO_END {
            let (sa, sb) = (samples(wa, def.name), samples(wb, def.name));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let bound = bound_of(def.name);
            let (verdict, worse_by) = judge(def.better, bound, &sa, &sb);
            flagged += usize::from(matches!(verdict, Verdict::Worse | Verdict::Unresolved));
            println!(
                "{:18} {:20} {:>14.6} {:>14.6} {:>+8.1}% {:>6.0}%  {}",
                name,
                def.name,
                stats::median(&sa),
                stats::median(&sb),
                worse_by * 100.0,
                bound * 100.0,
                verdict.as_str()
            );
        }
        let fp = |w: &Value| {
            w.get("sim_fingerprint")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string()
        };
        if fp(wa) != fp(wb) {
            flagged += 1;
            println!(
                "{name:18} sim_fingerprint changed: {} -> {} (what is simulated differs)",
                fp(wa),
                fp(wb)
            );
        }
        if failure_share(wa) != failure_share(wb) {
            flagged += 1;
            println!(
                "{name:18} failure share changed: {:.4} -> {:.4}",
                failure_share(wa),
                failure_share(wb)
            );
        }
    }
    flagged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let up: Vec<f64> = steady.iter().map(|x| x * 1.2).collect();
        // Lower-is-better: a 20 % rise is worse, a 20 % fall better.
        assert_eq!(judge(Better::Lower, 0.10, &steady, &up).0, Verdict::Worse);
        assert_eq!(judge(Better::Lower, 0.10, &up, &steady).0, Verdict::Better);
        // Higher-is-better flips it.
        assert_eq!(judge(Better::Higher, 0.10, &steady, &up).0, Verdict::Better);
        let (verdict, worse_by) = judge(Better::Higher, 0.10, &up, &steady);
        assert_eq!(verdict, Verdict::Worse);
        assert!((worse_by - (1.0 - 1.0 / 1.2)).abs() < 1e-9);
        // Inside the bound.
        let nudge: Vec<f64> = steady.iter().map(|x| x * 1.05).collect();
        assert_eq!(judge(Better::Lower, 0.10, &steady, &nudge).0, Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_one_side_wins_every_run() {
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        let shifted: Vec<f64> = noisy.iter().map(|x| x * 1.15).collect();
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy, &shifted).0,
            Verdict::Unresolved
        );
        // Every run of the second side beats every run of the first.
        let far: Vec<f64> = noisy.iter().map(|x| x * 0.5).collect();
        assert_eq!(judge(Better::Lower, 0.10, &noisy, &far).0, Verdict::Better);
        // A single sample has no spread of its own.
        assert_eq!(
            judge(Better::Lower, 0.05, &[100.0], &[101.0]).0,
            Verdict::Same
        );
    }
}
