//! `compare <a.json> <b.json>`: judges results file `b` against `a` with
//! the bounds `BENCHMARK.json` stores, one verdict per pairing of
//! end-to-end metric and workload.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::FAILED_SHARE;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound, and the samples are tight enough to say so.
    Ok,
    /// Worse than the bound, with the whole inter-quartile range of `b`
    /// on the worse side of `a`'s.
    Regressed,
    /// The medians say one thing and the spread does not back it: worse
    /// than the bound but the quartile ranges overlap, or within the bound
    /// but either side's quartile range is wider than the bound.
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

/// Judges one pairing. `higher_is_better` gives the metric's direction;
/// `bound` is the share of `a`'s median by which `b`'s may be worse.
pub fn judge(a: &Summary, b: &Summary, higher_is_better: bool, bound: f64) -> Verdict {
    let worse_by = if a.median == 0.0 {
        0.0
    } else if higher_is_better {
        (a.median - b.median) / a.median.abs()
    } else {
        (b.median - a.median) / a.median.abs()
    };
    if worse_by > bound {
        let apart = if higher_is_better {
            b.q3 < a.q1
        } else {
            b.q1 > a.q3
        };
        if apart {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// One end-to-end metric as the manifest defines it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Reads the `end_to_end` section of `BENCHMARK.json`.
///
/// # Errors
/// A missing or ill-typed field, as text.
pub fn bounds_of(manifest: &Json) -> Result<Vec<Bound>, String> {
    manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("manifest has no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("end_to_end entry lacks {key}"))
            };
            Ok(Bound {
                name: text("name")?.to_owned(),
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry lacks bound")?,
            })
        })
        .collect()
}

/// Samples of one results file, pooled over its runs (seeds):
/// `workload → metric → values`, plus failed and attempted per workload.
#[derive(Debug, Default)]
pub struct Pooled {
    pub samples: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    pub failed: BTreeMap<String, (f64, f64)>,
}

/// Pools a results file as `run` writes it.
///
/// # Errors
/// A missing or ill-typed field, as text.
pub fn pool(results: &Json) -> Result<Pooled, String> {
    let mut pooled = Pooled::default();
    for run in results
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("results have no runs")?
    {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run lacks workload")?;
        let number = |key: &str| {
            run.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("run lacks {key}"))
        };
        let entry = pooled.failed.entry(workload.to_owned()).or_default();
        entry.0 += number("failed")?;
        entry.1 += number("attempted")?;
        let metrics = pooled.samples.entry(workload.to_owned()).or_default();
        for (metric, values) in run
            .get("samples")
            .and_then(Json::as_obj)
            .ok_or("run lacks samples")?
        {
            let values = values.as_arr().ok_or("samples are not a list")?;
            metrics
                .entry(metric.clone())
                .or_default()
                .extend(values.iter().filter_map(Json::as_f64));
        }
    }
    Ok(pooled)
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Summary,
    pub b: Summary,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judges every pairing `a` holds. A pairing missing from `b` is
/// unresolved; any rise in `failed_share` is a regression, at bound 0.
pub fn compare(bounds: &[Bound], a: &Pooled, b: &Pooled) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, metrics) in &a.samples {
        for bound in bounds {
            let Some(a_values) = metrics.get(&bound.name) else {
                continue;
            };
            let a_summary = Summary::of(a_values);
            let b_values = b.samples.get(workload).and_then(|m| m.get(&bound.name));
            let b_summary = Summary::of(b_values.map_or(&[], Vec::as_slice));
            rows.push(Row {
                workload: workload.clone(),
                metric: bound.name.clone(),
                a: a_summary,
                b: b_summary,
                bound: bound.bound,
                verdict: match b_values {
                    Some(_) => judge(&a_summary, &b_summary, bound.higher_is_better, bound.bound),
                    None => Verdict::Unresolved,
                },
            });
        }
        let share = |pooled: &Pooled| {
            pooled.failed.get(workload).map(|&(failed, attempted)| {
                if attempted > 0.0 {
                    failed / attempted
                } else {
                    0.0
                }
            })
        };
        let (a_share, b_share) = (share(a).unwrap_or(0.0), share(b));
        rows.push(Row {
            workload: workload.clone(),
            metric: FAILED_SHARE.to_owned(),
            a: Summary::of(&[a_share]),
            b: Summary::of(&[b_share.unwrap_or(0.0)]),
            bound: 0.0,
            verdict: match b_share {
                None => Verdict::Unresolved,
                Some(b_share) if b_share > a_share => Verdict::Regressed,
                Some(_) => Verdict::Ok,
            },
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, half_width: f64) -> Summary {
        Summary::of(&[
            center - half_width,
            center - half_width / 2.0,
            center,
            center + half_width / 2.0,
            center + half_width,
        ])
    }

    #[test]
    fn within_the_bound_and_tight_is_ok() {
        let a = around(100.0, 2.0);
        assert_eq!(judge(&a, &around(95.0, 2.0), true, 0.10), Verdict::Ok);
        assert_eq!(judge(&a, &around(105.0, 2.0), false, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&a, &around(300.0, 2.0), true, 0.10),
            Verdict::Ok,
            "better is never a regression"
        );
        assert_eq!(judge(&a, &a, true, 0.10), Verdict::Ok);
    }

    #[test]
    fn beyond_the_bound_with_ranges_apart_is_regressed() {
        let a = around(100.0, 2.0);
        assert_eq!(
            judge(&a, &around(80.0, 2.0), true, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &around(120.0, 2.0), false, 0.10),
            Verdict::Regressed
        );
        assert_eq!(judge(&a, &around(120.0, 2.0), true, 0.10), Verdict::Ok);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let a = around(100.0, 2.0);
        // Worse by 15 % on the median, but the quartile ranges overlap.
        assert_eq!(
            judge(&around(100.0, 40.0), &around(85.0, 40.0), true, 0.10),
            Verdict::Unresolved
        );
        // Within the bound, but too noisy to call it unchanged.
        assert_eq!(
            judge(&a, &around(98.0, 30.0), true, 0.10),
            Verdict::Unresolved
        );
    }

    fn results(failed: f64, rate: &[f64]) -> Json {
        Json::obj([(
            "runs",
            Json::Arr(vec![Json::obj([
                ("workload", Json::str("rmi_single")),
                ("failed", Json::Num(failed)),
                ("attempted", Json::Num(1000.0)),
                ("samples", Json::obj([("calls_per_s", Json::nums(rate))])),
            ])]),
        )])
    }

    #[test]
    fn files_compare_per_pairing_and_any_failure_rise_regresses() {
        let manifest = Json::parse(
            r#"{"end_to_end": [{"name": "calls_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        let bounds = bounds_of(&manifest).unwrap();
        assert_eq!(bounds.len(), 2);
        assert!(bounds[0].higher_is_better && !bounds[1].higher_is_better);
        let a = pool(&results(0.0, &[100.0, 101.0, 99.0, 100.0])).unwrap();
        let same = compare(&bounds, &a, &a);
        assert_eq!(
            same.len(),
            2,
            "calls_per_s and failed_share; setup_s was not sampled"
        );
        assert!(same.iter().all(|row| row.verdict == Verdict::Ok));
        let slower = pool(&results(0.0, &[70.0, 71.0, 69.0, 70.0])).unwrap();
        assert_eq!(compare(&bounds, &a, &slower)[0].verdict, Verdict::Regressed);
        assert_eq!(compare(&bounds, &slower, &a)[0].verdict, Verdict::Ok);
        let failing = pool(&results(1.0, &[100.0, 101.0, 99.0, 100.0])).unwrap();
        let rows = compare(&bounds, &a, &failing);
        assert_eq!(rows[1].metric, FAILED_SHARE);
        assert_eq!(rows[1].verdict, Verdict::Regressed);
        assert_eq!(compare(&bounds, &failing, &a)[1].verdict, Verdict::Ok);
    }
}
