//! The paper's tables and figures, rendered from sweep reports.
//!
//! [`render`] lays a [`SweepReport`] out by its axes, never by its name:
//!
//! * cells of degree-bucket budgets (`degree=D`) become one figure per
//!   (family, explainer, attacker) against the victim degree (Figures 2, 3
//!   and 7);
//! * attacker entries that differ only in the value of one parameter
//!   (`geattack:lambda=…`, `geattack:inner_steps=…`) become one figure per
//!   (family, explainer) against that parameter (Figures 4, 6 and 8), and
//!   explainer entries likewise (`gnnexplainer:size=…`, Figure 5);
//! * anything else becomes one table block per (family, explainer) with a
//!   column per attacker (Tables 1 and 2).
//!
//! Scales and budgets split the groups further when the spec has several.
//! Every figure plots all six metrics (mean ± std over seeds). Grid points
//! whose cells found no victims have no aggregate, so they are not drawn.
//! Table 3 — statistics of the graphs, not an experiment — is
//! [`family_statistics`].

use geattack_core::report::{AggregatedMetric, Figure, Series, TableBlock};
use geattack_core::sweep::{SweepAggregate, SweepReport};
use geattack_graph::preprocess::stats;
use geattack_graph::{DatasetName, FamilyConfig};
use geattack_scenarios::{BudgetSpec, FAMILY_NAMES};

/// Renders every layout of one report (see the module docs).
pub fn render(report: &SweepReport) -> String {
    let mut out = format!("# Sweep `{}`\n\n", report.sweep);
    let (buckets, rest): (Vec<&SweepAggregate>, Vec<&SweepAggregate>) =
        report.aggregates.iter().partition(|a| bucket_degree(a).is_some());
    out.push_str(&figures(report, &buckets, "victim degree", |a| {
        Some((bucket_degree(a)? as f64, [&a.explainer, &a.attacker, ""]))
    }));
    let attackers = swept_param(report.cells.iter().map(|c| c.attacker.as_str()));
    let explainers = swept_param(report.cells.iter().map(|c| c.explainer.as_str()));
    if let Some(s) = &attackers {
        out.push_str(&figures(report, &rest, &s.key, |a| {
            Some((s.value(&a.attacker)?, [&a.explainer, &s.base, &a.budget]))
        }));
    } else if let Some(s) = &explainers {
        out.push_str(&figures(report, &rest, &s.key, |a| {
            Some((s.value(&a.explainer)?, [&s.base, &a.attacker, &a.budget]))
        }));
    } else {
        for group in group_by(&rest, |a| (&a.family, a.scale.to_bits(), &a.explainer, &a.budget)) {
            let a = group[0];
            let block = TableBlock {
                dataset: title(report, a, [&a.explainer, "", &a.budget]),
                columns: group.iter().map(|&a| a.clone()).collect(),
            };
            out.push_str(&block.to_markdown());
        }
    }
    out
}

/// One figure per group of `aggregates` sharing a family, scale and
/// `[explainer, attacker, budget]` names, each aggregate at its `point`'s x.
fn figures<'a, 'b>(
    report: &SweepReport,
    aggregates: &[&'a SweepAggregate],
    axis: &str,
    point: impl Fn(&'a SweepAggregate) -> Option<(f64, [&'b str; 3])>,
) -> String {
    let names = |a: &'a SweepAggregate| point(a).map(|(_, names)| names);
    let mut out = String::new();
    for group in group_by(aggregates, |a| (&a.family, a.scale.to_bits(), names(a))) {
        let points: Vec<(f64, &SweepAggregate)> = group.iter().filter_map(|a| Some((point(a)?.0, *a))).collect();
        let title = title(report, group[0], names(group[0]).unwrap_or_default());
        out.push_str(&figure(format!("{title} vs. {axis}"), &points));
    }
    out
}

/// Table 3: the statistics of every registered graph family at `scale` and
/// `seed`, beside the paper's figures for the three citation datasets.
pub fn family_statistics(scale: f64, seed: u64) -> String {
    let mut out = format!("# Table 3 — graph families (scale {scale}, seed {seed})\n\n");
    out.push_str("| Family | Nodes | Edges | Classes | Features | Avg. degree | Homophily | Paper (nodes/edges/classes/features) |\n");
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    for name in FAMILY_NAMES {
        let family = geattack_scenarios::resolve(name).expect("registry names resolve");
        let s = stats(&family.load(&FamilyConfig::new(scale, seed)));
        let paper = DatasetName::parse(name).map(|d| d.spec()).map_or("—".to_string(), |p| {
            format!("{}/{}/{}/{}", p.nodes, p.edges, p.classes, p.features)
        });
        out.push_str(&format!(
            "| {name} | {} | {} | {} | {} | {:.2} | {:.2} | {paper} |\n",
            s.nodes, s.edges, s.classes, s.features, s.average_degree, s.edge_homophily
        ));
    }
    out
}

/// One axis whose entries differ only in the value of one parameter.
struct SweptParam {
    /// The shared display name before the parameters (e.g. `GEAttack`).
    base: String,
    /// The swept parameter (e.g. `lambda`).
    key: String,
    /// Each entry's display name and parameter value, in axis order.
    values: Vec<(String, f64)>,
}

impl SweptParam {
    /// The parameter value of the axis entry `name`.
    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(entry, _)| entry == name).map(|(_, x)| *x)
    }
}

/// The parameter an axis (its entries' display names, in cell order) sweeps:
/// at least two distinct entries, each one base name with exactly one
/// numeric parameter, the same base and key in all of them.
fn swept_param<'a>(names: impl Iterator<Item = &'a str>) -> Option<SweptParam> {
    let mut swept: Option<SweptParam> = None;
    for name in names {
        let (base, param) = name.strip_suffix(']')?.split_once('[')?;
        let (key, value) = param.split_once('=').filter(|_| !param.contains(','))?;
        let value: f64 = value.parse().ok()?;
        let entry = swept.get_or_insert_with(|| SweptParam {
            base: base.to_string(),
            key: key.to_string(),
            values: Vec::new(),
        });
        if entry.base != base || entry.key != key {
            return None;
        }
        if !entry.values.iter().any(|(seen, _)| seen == name) {
            entry.values.push((name.to_string(), value));
        }
    }
    swept.filter(|s| s.values.len() > 1)
}

/// The victim degree of a degree-bucket aggregate.
fn bucket_degree(a: &SweepAggregate) -> Option<usize> {
    match BudgetSpec::parse(&a.budget) {
        Ok(BudgetSpec::DegreeBucket(degree)) => Some(degree),
        _ => None,
    }
}

/// A figure or table title: the group's family and its non-empty
/// `[explainer, attacker, budget]` names; scale and budget only when the spec
/// has several.
fn title(report: &SweepReport, a: &SweepAggregate, [explainer, attacker, budget]: [&str; 3]) -> String {
    let mut title = a.family.clone();
    if report.spec.scales.len() > 1 {
        title.push_str(&format!(" (scale {})", a.scale));
    }
    for name in [explainer, attacker] {
        if !name.is_empty() {
            title.push_str(&format!(" · {name}"));
        }
    }
    if report.spec.budgets.len() > 1 && !budget.is_empty() {
        title.push_str(&format!(" · budget {budget}"));
    }
    title
}

/// A figure of all six metrics over the given (x, aggregate) points, as text.
fn figure(title: String, points: &[(f64, &SweepAggregate)]) -> String {
    let x: Vec<f64> = points.iter().map(|(x, _)| *x).collect();
    let metrics: [(&str, AggregatedMetric); 6] = [
        ("ASR", |c| &c.asr),
        ("ASR-T", |c| &c.asr_t),
        ("Precision@K", |c| &c.precision),
        ("Recall@K", |c| &c.recall),
        ("F1@K", |c| &c.f1),
        ("NDCG@K", |c| &c.ndcg),
    ];
    let series = metrics
        .iter()
        .map(|(label, metric)| Series::new(*label, x.clone(), points.iter().map(|(_, a)| *metric(a)).collect()));
    Figure {
        title,
        series: series.collect(),
    }
    .to_text()
        + "\n"
}

/// Groups `items` by `key`, groups and members in first-appearance order.
fn group_by<'a, K: PartialEq>(
    items: &[&'a SweepAggregate],
    key: impl Fn(&'a SweepAggregate) -> K,
) -> Vec<Vec<&'a SweepAggregate>> {
    let mut groups: Vec<(K, Vec<&SweepAggregate>)> = Vec::new();
    for &item in items {
        let k = key(item);
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, members)) => members.push(item),
            None => groups.push((k, vec![item])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swept_param_needs_one_shared_numeric_key_over_several_entries() {
        let swept = swept_param(["GEAttack[lambda=0.001]", "GEAttack[lambda=20]"].into_iter()).expect("a λ sweep");
        assert_eq!(
            (swept.base.as_str(), swept.key.as_str(), swept.values[1].1),
            ("GEAttack", "lambda", 20.0)
        );
        for axis in [
            "GEAttack[lambda=1] GEAttack[lambda=1]",
            "GEAttack[lambda=1] FGA",
            "GEAttack[lambda=1] GEAttack[inner_steps=2]",
            "GEAttack[lambda=1,inner_steps=2] GEAttack[lambda=2,inner_steps=2]",
        ] {
            assert!(swept_param(axis.split(' ')).is_none(), "{axis}");
        }
    }
}
