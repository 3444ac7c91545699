//! Rendering experiment results as the tables and figure series the paper reports.

use serde::Serialize;

use crate::evaluation::MeanStd;
use crate::sweep::SweepAggregate;

/// Extracts one aggregated metric column from a sweep aggregate.
pub type AggregatedMetric = fn(&SweepAggregate) -> &MeanStd;

/// Formats a rate in `[0,1]` as the paper's `percent±std` notation,
/// e.g. `99.11±0.01`.
pub fn format_percent(value: &MeanStd) -> String {
    format!("{:.2}±{:.2}", value.mean * 100.0, value.std * 100.0)
}

/// One dataset block of Table 1 / Table 2: a column per attacker.
#[derive(Clone, Debug)]
pub struct TableBlock {
    /// Dataset display name.
    pub dataset: String,
    /// Per-attacker aggregates over seeds, in column order.
    pub columns: Vec<SweepAggregate>,
}

impl TableBlock {
    /// Renders the block as a GitHub-flavoured markdown table with the paper's six
    /// metric rows (ASR, ASR-T, Precision, Recall, F1, NDCG).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.dataset));
        out.push_str("| Metric (%) |");
        for c in &self.columns {
            out.push_str(&format!(" {} |", c.attacker));
        }
        out.push('\n');
        out.push_str("|---|");
        out.push_str(&"---|".repeat(self.columns.len()));
        out.push('\n');

        let rows: [(&str, AggregatedMetric); 6] = [
            ("ASR", |c| &c.asr),
            ("ASR-T", |c| &c.asr_t),
            ("Precision", |c| &c.precision),
            ("Recall", |c| &c.recall),
            ("F1", |c| &c.f1),
            ("NDCG", |c| &c.ndcg),
        ];
        for (label, getter) in rows {
            out.push_str(&format!("| {label} |"));
            for c in &self.columns {
                out.push_str(&format!(" {} |", format_percent(getter(c))));
            }
            out.push('\n');
        }
        out.push('\n');
        out
    }
}

/// A single named series of a figure: y (mean ± std) over a swept x value.
#[derive(Clone, Debug)]
pub struct Series {
    /// Series label (e.g. the metric name).
    pub label: String,
    /// Swept parameter values (degree, λ, T, L, ...).
    pub x: Vec<f64>,
    /// Measured values at each x.
    pub y: Vec<MeanStd>,
}

impl Series {
    /// Creates a series; `x` and `y` must have matching lengths.
    pub fn new(label: impl Into<String>, x: Vec<f64>, y: Vec<MeanStd>) -> Self {
        let label = label.into();
        assert_eq!(x.len(), y.len(), "series {label}: x/y length mismatch");
        Self { label, x, y }
    }

    /// Renders the series as aligned text rows (`x  mean±std`).
    pub fn to_text(&self) -> String {
        let mut out = format!("{}\n", self.label);
        for (x, y) in self.x.iter().zip(self.y.iter()) {
            out.push_str(&format!("  {x:>8.3}  {}\n", format_percent(y)));
        }
        out
    }
}

/// A full figure: one or more series over the same x axis.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Figure title (e.g. "Figure 4: effect of lambda on CORA").
    pub title: String,
    /// The plotted series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Renders the figure as text.
    pub fn to_text(&self) -> String {
        let mut out = format!("== {} ==\n", self.title);
        for s in &self.series {
            out.push_str(&s.to_text());
        }
        out
    }
}

/// Serializes any result record as deterministic pretty JSON (the sweep, shard
/// and served reports are all written through it).
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("results are always serializable")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary(name: &str) -> SweepAggregate {
        let rate = |mean| MeanStd { mean, std: 0.0 };
        SweepAggregate {
            family: "cora".into(),
            scale: 0.1,
            explainer: "GNNExplainer".into(),
            attacker: name.into(),
            budget: "degree".into(),
            seeds: 1,
            victims: 1,
            asr: rate(1.0),
            asr_t: rate(1.0),
            precision: rate(0.1),
            recall: rate(0.6),
            f1: rate(0.17),
            ndcg: rate(0.36),
        }
    }

    #[test]
    fn percent_formatting() {
        let v = MeanStd {
            mean: 0.9911,
            std: 0.0001,
        };
        assert_eq!(format_percent(&v), "99.11±0.01");
    }

    #[test]
    fn table_block_markdown_contains_all_metrics_and_attackers() {
        let block = TableBlock {
            dataset: "CORA".into(),
            columns: vec![sample_summary("FGA"), sample_summary("GEAttack")],
        };
        let md = block.to_markdown();
        for needle in [
            "### CORA",
            "FGA",
            "GEAttack",
            "ASR-T",
            "Precision",
            "Recall",
            "F1",
            "NDCG",
        ] {
            assert!(md.contains(needle), "markdown missing {needle}:\n{md}");
        }
        assert_eq!(
            md.matches("100.00±0.00").count(),
            4,
            "ASR/ASR-T cells for both attackers"
        );
    }

    #[test]
    fn series_text_and_length_check() {
        let s = Series::new(
            "F1@15",
            vec![1.0, 2.0],
            vec![MeanStd { mean: 0.2, std: 0.0 }, MeanStd { mean: 0.3, std: 0.1 }],
        );
        let text = s.to_text();
        assert!(text.contains("F1@15"));
        assert!(text.contains("20.00±0.00"));
        assert!(text.contains("30.00±10.00"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn series_length_mismatch_panics() {
        let _ = Series::new("bad", vec![1.0], vec![]);
    }

    #[test]
    fn figure_to_text_includes_all_series() {
        let fig = Figure {
            title: "Figure 4".into(),
            series: vec![
                Series::new("ASR-T", vec![0.001], vec![MeanStd { mean: 1.0, std: 0.0 }]),
                Series::new("NDCG@15", vec![0.001], vec![MeanStd { mean: 0.4, std: 0.0 }]),
            ],
        };
        let text = fig.to_text();
        assert!(text.contains("Figure 4"));
        assert!(text.contains("ASR-T"));
        assert!(text.contains("NDCG@15"));
    }
}
