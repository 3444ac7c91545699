//! Nettack (Zügner et al., KDD 2018), adapted to the paper's targeted,
//! addition-only, direct evasion setting.
//!
//! Nettack scores candidate edge insertions with a **linearized surrogate**
//! `Z = Ã² X W` (whose logits are cheap to update incrementally when a single edge
//! changes) and filters candidates through a **degree-distribution unnoticeability
//! test**: the degree sequence after the edit must still be plausible under the
//! power law fitted to the clean graph (likelihood-ratio test, Section 3 of the
//! Nettack paper).
//!
//! **Deviations from the original.**
//!
//! * The surrogate weights are taken from the victim GCN (`W = W₁ W₂`, the
//!   linearization of the trained model) instead of being retrained.
//! * There are no feature co-occurrence constraints: features are never
//!   perturbed.
//! * Only edge insertions incident to the target are considered (the paper's
//!   direct, addition-only setting); Nettack also removes edges and attacks
//!   through neighbours.

use geattack_graph::{Graph, Perturbation};
use geattack_tensor::Matrix;

use crate::{greedy_insertions, AttackContext, TargetedAttack};

/// Configuration of the Nettack baseline.
#[derive(Clone, Debug)]
pub struct NettackConfig {
    /// Enable the degree-distribution likelihood-ratio test.
    pub degree_test: bool,
    /// Maximum allowed likelihood-ratio statistic (the original uses 0.004, i.e.
    /// essentially "the fitted power laws before/after must be indistinguishable").
    pub ll_cutoff: f64,
    /// Minimum degree included in the power-law fit.
    pub d_min: usize,
}

impl Default for NettackConfig {
    fn default() -> Self {
        Self {
            degree_test: true,
            ll_cutoff: 0.004,
            d_min: 2,
        }
    }
}

/// The Nettack attacker.
#[derive(Clone, Debug, Default)]
pub struct Nettack {
    /// Attack configuration.
    pub config: NettackConfig,
}

impl Nettack {
    /// Creates a Nettack attacker with the given configuration.
    pub fn new(config: NettackConfig) -> Self {
        Self { config }
    }
}

impl TargetedAttack for Nettack {
    fn attack(&self, ctx: &AttackContext<'_>) -> Perturbation {
        let _span = geattack_telemetry::span(geattack_telemetry::Level::Detail, "attack.nettack");
        // Linearized surrogate weights W = W1 W2 (bias terms are irrelevant for the
        // argmax-margin score).
        let w = ctx.model.params().w1.matmul(&ctx.model.params().w2);
        let xw = ctx.graph.project(&w);
        let clean_degrees = degree_sequence(ctx.graph);

        greedy_insertions(ctx, &[], |working, candidates| {
            let cache = SurrogateScorer::new(working, &xw);
            let margin_after = |v: usize| margin(&cache.target_logits_after_adding(ctx.target, v), ctx.target_label);
            let mut best: Option<(usize, f64)> = None;
            for &v in &candidates {
                if self.config.degree_test
                    && !passes_degree_test(
                        &clean_degrees,
                        &degree_sequence_after(working, ctx.target, v),
                        self.config.d_min,
                        self.config.ll_cutoff,
                    )
                {
                    continue;
                }
                let score = margin_after(v);
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((v, score));
                }
            }
            // If every candidate fails the unnoticeability test, fall back to the
            // best-scoring candidate without the test (the attacker still spends
            // its budget, as in the reference implementation's final fallback).
            match best {
                Some((v, _)) => Some(v),
                None => candidates.iter().copied().max_by(|&a, &b| {
                    margin_after(a)
                        .partial_cmp(&margin_after(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                }),
            }
        })
    }
}

/// Classification margin of the target label: `z[ŷ] - max_{c≠ŷ} z[c]`.
/// Positive margins mean the surrogate already predicts the attacker's label.
fn margin(logits: &[f64], target_label: usize) -> f64 {
    let best_other = logits
        .iter()
        .enumerate()
        .filter(|&(c, _)| c != target_label)
        .map(|(_, &z)| z)
        .fold(f64::NEG_INFINITY, f64::max);
    logits[target_label] - best_other
}

/// Incremental computation of the surrogate's target-row logits
/// `[Ã'² X W]_{t,:}` after inserting a single edge `(t, v)`.
///
/// Precomputes `R = Ã (XW)` on the current graph once; each candidate then costs
/// `O((deg(t) + deg(v)) · C)` instead of a full `O(n² C)` recomputation.
struct SurrogateScorer<'a> {
    graph: &'a Graph,
    xw: &'a Matrix,
    /// Self-loop-augmented degrees `d_i = 1 + deg(i)`.
    degrees: Vec<f64>,
    /// `R[k, :] = Ã[k, :] @ XW` for the current graph.
    r: Matrix,
}

impl<'a> SurrogateScorer<'a> {
    fn new(graph: &'a Graph, xw: &'a Matrix) -> Self {
        let n = graph.num_nodes();
        let degrees: Vec<f64> = (0..n).map(|i| 1.0 + graph.degree(i) as f64).collect();
        let c = xw.cols();
        let mut r = Matrix::zeros(n, c);
        for k in 0..n {
            let row = r.row_mut(k);
            // Self loop.
            let w_self = 1.0 / degrees[k];
            for (col, val) in row.iter_mut().enumerate() {
                *val += w_self * xw[(k, col)];
            }
            // Neighbors in ascending order — the same accumulation order as the
            // old dense row scan, so the sums are bit-identical.
            for &j in graph.neighbors(k) {
                let w = 1.0 / (degrees[k] * degrees[j]).sqrt();
                for col in 0..c {
                    row[col] += w * xw[(j, col)];
                }
            }
        }
        Self { graph, xw, degrees, r }
    }

    /// Row `k` of `Ã' XW` computed from scratch under degrees `d'` and the extra
    /// edge `(t, v)` (used for the two rows whose own degree changes).
    fn row_recomputed(&self, k: usize, t: usize, v: usize, dt_new: f64, dv_new: f64) -> Vec<f64> {
        let c = self.xw.cols();
        let deg_new = |i: usize| -> f64 {
            if i == t {
                dt_new
            } else if i == v {
                dv_new
            } else {
                self.degrees[i]
            }
        };
        let dk = deg_new(k);
        let mut out = vec![0.0; c];
        // Self loop.
        for (col, o) in out.iter_mut().enumerate() {
            *o += self.xw[(k, col)] / dk;
        }
        // Walk the neighbor list with the candidate edge's other endpoint merged
        // in at its sorted position, keeping the ascending-j accumulation order
        // of the old dense scan (the candidate edge is new, so `extra` is never
        // already a neighbor).
        let extra = if k == t {
            Some(v)
        } else if k == v {
            Some(t)
        } else {
            None
        };
        let accumulate = |j: usize, out: &mut [f64]| {
            let w = 1.0 / (dk * deg_new(j)).sqrt();
            for (col, o) in out.iter_mut().enumerate() {
                *o += w * self.xw[(j, col)];
            }
        };
        let mut extra_pending = extra;
        for &j in self.graph.neighbors(k) {
            if let Some(e) = extra_pending {
                if e < j {
                    accumulate(e, &mut out);
                    extra_pending = None;
                }
            }
            accumulate(j, &mut out);
        }
        if let Some(e) = extra_pending {
            accumulate(e, &mut out);
        }
        out
    }

    /// Target-row surrogate logits after adding the undirected edge `(t, v)`.
    fn target_logits_after_adding(&self, t: usize, v: usize) -> Vec<f64> {
        assert!(!self.graph.has_edge(t, v) && t != v, "candidate edge must be new");
        let c = self.xw.cols();
        let dt_new = self.degrees[t] + 1.0;
        let dv_new = self.degrees[v] + 1.0;

        let row_t = self.row_recomputed(t, t, v, dt_new, dv_new);
        let row_v = self.row_recomputed(v, t, v, dt_new, dv_new);

        let mut z = vec![0.0; c];
        // Self-loop hop: Ã'[t,t] * row'_t.
        let w_tt = 1.0 / dt_new;
        for (col, zc) in z.iter_mut().enumerate() {
            *zc += w_tt * row_t[col];
        }
        // New neighbor v.
        let w_tv = 1.0 / (dt_new * dv_new).sqrt();
        for (col, zc) in z.iter_mut().enumerate() {
            *zc += w_tv * row_v[col];
        }
        // Existing neighbors k of t (degrees unchanged): their rows only change in
        // the columns t and v because d_t and d_v changed.
        let corr_t = 1.0 / dt_new.sqrt() - 1.0 / self.degrees[t].sqrt();
        let corr_v = 1.0 / dv_new.sqrt() - 1.0 / self.degrees[v].sqrt();
        for &k in self.graph.neighbors(t) {
            if k == v {
                continue;
            }
            let dk = self.degrees[k];
            let w_tk = 1.0 / (dt_new * dk).sqrt();
            let k_adj_t = self.graph.has_edge(k, t);
            let k_adj_v = self.graph.has_edge(k, v);
            for (col, zc) in z.iter_mut().enumerate() {
                let mut row_k = self.r[(k, col)];
                if k_adj_t {
                    row_k += corr_t / dk.sqrt() * self.xw[(t, col)];
                }
                if k_adj_v {
                    row_k += corr_v / dk.sqrt() * self.xw[(v, col)];
                }
                *zc += w_tk * row_k;
            }
        }
        z
    }
}

/// Degree sequence of a graph (plain degrees, no self loops).
pub fn degree_sequence(graph: &Graph) -> Vec<usize> {
    (0..graph.num_nodes()).map(|i| graph.degree(i)).collect()
}

fn degree_sequence_after(graph: &Graph, t: usize, v: usize) -> Vec<usize> {
    let mut d = degree_sequence(graph);
    d[t] += 1;
    d[v] += 1;
    d
}

/// Continuous power-law maximum-likelihood estimate of the exponent `α` over the
/// degrees `>= d_min` (Clauset et al., 2009), as used by Nettack's unnoticeability
/// constraint.
pub fn powerlaw_alpha(degrees: &[usize], d_min: usize) -> f64 {
    let xmin = d_min as f64 - 0.5;
    let (n, s) = degrees
        .iter()
        .filter(|&&d| d >= d_min)
        .fold((0usize, 0.0f64), |(n, s), &d| (n + 1, s + (d as f64 / xmin).ln()));
    if n == 0 || s <= 0.0 {
        return f64::INFINITY;
    }
    1.0 + n as f64 / s
}

/// Log-likelihood of the filtered degrees under the MLE power law.
pub fn powerlaw_log_likelihood(degrees: &[usize], d_min: usize) -> f64 {
    let xmin = d_min as f64 - 0.5;
    let alpha = powerlaw_alpha(degrees, d_min);
    if !alpha.is_finite() {
        return 0.0;
    }
    let filtered: Vec<f64> = degrees.iter().filter(|&&d| d >= d_min).map(|&d| d as f64).collect();
    let n = filtered.len() as f64;
    let s: f64 = filtered.iter().map(|d| (d / xmin).ln()).sum();
    n * (alpha - 1.0).ln() - n * xmin.ln() - alpha * s + n * xmin.ln()
    // The `n ln(xmin)` terms cancel; kept explicit for clarity of the density
    // p(d) = ((α-1)/xmin) (d/xmin)^{-α}.
}

/// Likelihood-ratio statistic comparing "clean and perturbed degree sequences come
/// from one shared power law" against "each has its own exponent". Small values
/// mean the perturbation is unnoticeable; Nettack accepts candidates whose
/// statistic stays below `cutoff`.
pub fn degree_test_statistic(clean: &[usize], perturbed: &[usize], d_min: usize) -> f64 {
    let combined: Vec<usize> = clean.iter().chain(perturbed.iter()).copied().collect();
    let ll_sep = powerlaw_log_likelihood(clean, d_min) + powerlaw_log_likelihood(perturbed, d_min);
    let ll_comb = powerlaw_log_likelihood(&combined, d_min);
    2.0 * (ll_sep - ll_comb).max(0.0)
}

/// Returns `true` when the perturbed degree sequence passes the unnoticeability
/// test at the given cutoff.
pub fn passes_degree_test(clean: &[usize], perturbed: &[usize], d_min: usize, cutoff: f64) -> bool {
    degree_test_statistic(clean, perturbed, d_min) < cutoff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate_endpoints;
    use crate::tests::{pick_victim, small_setup};
    use geattack_tensor::nn::gcn_normalize_matrix;

    #[test]
    fn incremental_scores_match_naive_recomputation() {
        let (graph, model) = small_setup(31);
        let w = model.params().w1.matmul(&model.params().w2);
        let xw = graph.project(&w);
        let target = (0..graph.num_nodes()).find(|&i| graph.degree(i) >= 2).unwrap();
        let scorer = SurrogateScorer::new(&graph, &xw);
        let candidates = candidate_endpoints(&graph, target, &[]);
        for &v in candidates.iter().take(5) {
            let fast = scorer.target_logits_after_adding(target, v);
            // Naive: rebuild the graph with the edge and recompute Ã² X W fully.
            let mut g2 = graph.clone();
            g2.add_edge(target, v);
            let a_norm = gcn_normalize_matrix(&g2.to_dense());
            let naive = a_norm.matmul(&a_norm.matmul(&xw));
            for c in 0..xw.cols() {
                assert!(
                    (fast[c] - naive[(target, c)]).abs() < 1e-9,
                    "mismatch for candidate {v}, class {c}: {} vs {}",
                    fast[c],
                    naive[(target, c)]
                );
            }
        }
    }

    #[test]
    fn nettack_increases_target_label_probability() {
        let (graph, model) = small_setup(32);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext::with_degree_budget(&model, &graph, victim, target_label);
        let p = Nettack::default().attack(&ctx);
        assert!(!p.is_empty());
        assert!(p.size() <= ctx.budget);
        let attacked = p.apply(&graph);
        let before = model.predict_proba(&graph)[(victim, target_label)];
        let after = model.predict_proba(&attacked)[(victim, target_label)];
        assert!(
            after > before,
            "Nettack did not raise the target-label probability ({before} -> {after})"
        );
    }

    #[test]
    fn added_edges_are_direct() {
        let (graph, model) = small_setup(33);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 2,
        };
        let p = Nettack::default().attack(&ctx);
        for &(u, v) in p.added() {
            assert!(u == victim || v == victim);
        }
    }

    #[test]
    fn powerlaw_alpha_decreases_with_heavier_tail() {
        let light: Vec<usize> = vec![2; 50];
        let heavy: Vec<usize> = (0..50).map(|i| 2 + i % 20).collect();
        assert!(powerlaw_alpha(&light, 2).is_infinite() || powerlaw_alpha(&light, 2) > powerlaw_alpha(&heavy, 2));
    }

    #[test]
    fn degree_statistic_grows_with_perturbation_severity() {
        let clean: Vec<usize> = (0..200).map(|i| 2 + (i % 7)).collect();
        // Mild: one node gains one edge.
        let mut mild = clean.clone();
        mild[0] += 1;
        mild[1] += 1;
        // Severe: one node becomes a huge hub.
        let mut severe = clean.clone();
        severe[0] += 150;
        let s_mild = degree_test_statistic(&clean, &mild, 2);
        let s_severe = degree_test_statistic(&clean, &severe, 2);
        assert!(
            s_mild < s_severe,
            "statistic must grow with severity: {s_mild} vs {s_severe}"
        );
        assert!(s_mild >= 0.0);
    }

    #[test]
    fn identical_sequences_pass_the_test() {
        let clean: Vec<usize> = (0..100).map(|i| 2 + (i % 5)).collect();
        assert!(passes_degree_test(&clean, &clean, 2, 1e-9));
        assert!((degree_test_statistic(&clean, &clean, 2)).abs() < 1e-9);
    }
}
