//! IG-Attack (Wu et al., IJCAI 2019): candidate edges scored with integrated
//! gradients instead of a single gradient snapshot.
//!
//! Vanilla gradients can be misleading for discrete 0→1 flips because the GCN's
//! response saturates. Integrated gradients average the gradient along the path
//! from the clean adjacency to the adjacency with the candidate edges switched on:
//! `IG_{tv} = (1/m) Σ_{k=1..m} ∂L/∂A_{tv} |_{A + (k/m)·E_cand}` where `E_cand`
//! switches on the target's candidate edges.
//!
//! **Deviation from the original attack.** Wu et al. integrate each candidate
//! edge along its own path, with only that edge switched on, which costs `m`
//! backward passes per candidate. Here all of the target's candidates share one
//! path (switched on together) and only the gradient entries of the target's
//! row are read, so one inserted edge costs `m` backward passes whatever the
//! candidate count. A candidate's score therefore also reflects the other
//! candidates being partly switched on along the path.

use geattack_graph::{Graph, Perturbation};
use geattack_tensor::SparseMatrix;

use crate::{
    best_candidate_by_gradient, greedy_insertions, AttackContext, LossGradients, TargetGradient, TargetedAttack,
};

/// Configuration of IG-Attack.
#[derive(Clone, Debug)]
pub struct IgConfig {
    /// Number of interpolation steps for the integral approximation.
    pub steps: usize,
}

impl Default for IgConfig {
    fn default() -> Self {
        Self { steps: 10 }
    }
}

/// The integrated-gradients attacker.
#[derive(Clone, Debug, Default)]
pub struct IgAttack {
    /// Attack configuration.
    pub config: IgConfig,
}

impl IgAttack {
    /// Creates an IG attacker with the given configuration.
    pub fn new(config: IgConfig) -> Self {
        Self { config }
    }

    /// Integrated gradients of the targeted loss with respect to the adjacency
    /// matrix, along the path that switches the candidate edges `(target, v)` on.
    ///
    /// Each interpolation point is a **weighted** sparse adjacency (the clean
    /// edges at `1.0` plus the candidate entries at `α`), so every one of the `m`
    /// backward passes runs through the candidate-masked sparse gradient instead
    /// of a dense `n×n` tape.
    pub fn integrated_gradients(&self, ctx: &AttackContext<'_>, graph: &Graph, candidates: &[usize]) -> TargetGradient {
        let gradients = LossGradients::new(ctx.model, graph);
        self.integrated_gradients_with(&gradients, ctx, graph, candidates)
    }

    fn integrated_gradients_with(
        &self,
        gradients: &LossGradients<'_>,
        ctx: &AttackContext<'_>,
        graph: &Graph,
        candidates: &[usize],
    ) -> TargetGradient {
        let n = graph.num_nodes();
        let steps = self.config.steps.max(1);
        let mut candidate_mask = vec![false; n];
        for &v in candidates {
            candidate_mask[v] = true;
        }
        let base = graph.csr();

        let mut accumulated: Option<TargetGradient> = None;
        for k in 1..=steps {
            let alpha = k as f64 / steps as f64;
            // Clean rows keep weight 1.0; the candidate entries (target, v) and
            // (v, target) are switched on at weight α (candidates are
            // non-neighbors, so insertion never collides with an edge).
            let rows: Vec<Vec<(usize, f64)>> = (0..n)
                .map(|i| {
                    let neighbors = base.neighbors(i);
                    let mut row: Vec<(usize, f64)> = Vec::with_capacity(neighbors.len() + 1);
                    if i == ctx.target {
                        let mut cursor = 0usize;
                        for (j, &is_candidate) in candidate_mask.iter().enumerate() {
                            if cursor < neighbors.len() && neighbors[cursor] == j {
                                row.push((j, 1.0));
                                cursor += 1;
                            } else if is_candidate {
                                row.push((j, alpha));
                            }
                        }
                    } else {
                        let mut inserted = !candidate_mask[i];
                        for &j in neighbors {
                            if !inserted && j >= ctx.target {
                                if j != ctx.target {
                                    row.push((ctx.target, alpha));
                                }
                                inserted = true;
                            }
                            row.push((j, 1.0));
                        }
                        if !inserted {
                            row.push((ctx.target, alpha));
                        }
                    }
                    row
                })
                .collect();
            let interpolated = SparseMatrix::from_rows(n, n, &rows);
            let grad = gradients.at_raw(&interpolated, ctx.target, ctx.target_label, false);
            accumulated = Some(match accumulated {
                None => grad,
                Some(acc) => acc.accumulated(&grad),
            });
        }
        accumulated.expect("at least one step").scaled(1.0 / steps as f64)
    }
}

impl TargetedAttack for IgAttack {
    fn attack(&self, ctx: &AttackContext<'_>) -> Perturbation {
        let _span = geattack_telemetry::span(geattack_telemetry::Level::Detail, "attack.ig");
        let gradients = LossGradients::new(ctx.model, ctx.graph);
        greedy_insertions(ctx, &[], |working, candidates| {
            let ig = self.integrated_gradients_with(&gradients, ctx, working, &candidates);
            best_candidate_by_gradient(&ig, &candidates)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate_endpoints;
    use crate::fga::FgaT;
    use crate::tests::{pick_victim, small_setup};

    #[test]
    fn ig_attack_increases_target_probability() {
        let (graph, model) = small_setup(41);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext::with_degree_budget(&model, &graph, victim, target_label);
        let attack = IgAttack::new(IgConfig { steps: 5 });
        let p = attack.attack(&ctx);
        assert!(!p.is_empty());
        let attacked = p.apply(&graph);
        let before = model.predict_proba(&graph)[(victim, target_label)];
        let after = model.predict_proba(&attacked)[(victim, target_label)];
        assert!(after > before, "IG-Attack failed to raise target-label probability");
    }

    #[test]
    fn single_step_ig_agrees_with_endpoint_gradient_direction() {
        // With m=1 the integrated gradient is just the gradient at the far end of
        // the path; the edge it selects should still be a loss-decreasing edge.
        let (graph, model) = small_setup(42);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 1,
        };
        let attack = IgAttack::new(IgConfig { steps: 1 });
        let candidates = candidate_endpoints(&graph, victim, &[]);
        let ig = attack.integrated_gradients(&ctx, &graph, &candidates);
        let chosen = attack.attack(&ctx);
        let &(u, v) = &chosen.added()[0];
        let other = if u == victim { v } else { u };
        assert!(
            ig.undirected(other) <= 0.0,
            "selected edge must have non-positive IG score"
        );
    }

    #[test]
    fn ig_and_fga_t_are_both_direct_attacks() {
        let (graph, model) = small_setup(43);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 2,
        };
        for p in [IgAttack::default().attack(&ctx), FgaT.attack(&ctx)] {
            for &(u, v) in p.added() {
                assert!(u == victim || v == victim);
            }
            assert!(p.size() <= 2);
        }
    }

    #[test]
    fn more_steps_changes_but_does_not_break_scores() {
        let (graph, model) = small_setup(44);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 1,
        };
        let candidates = candidate_endpoints(&graph, victim, &[]);
        let coarse = IgAttack::new(IgConfig { steps: 2 }).integrated_gradients(&ctx, &graph, &candidates);
        let fine = IgAttack::new(IgConfig { steps: 8 }).integrated_gradients(&ctx, &graph, &candidates);
        assert_eq!(coarse.num_nodes(), fine.num_nodes());
        assert!(!coarse.has_non_finite());
        assert!(!fine.has_non_finite());
    }

    #[test]
    fn sparse_interpolation_matches_dense_interpolation() {
        // One IG step's interpolated adjacency gradient through the sparse core
        // must match the dense tape on the same weighted matrix.
        let (graph, model) = small_setup(45);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 1,
        };
        let candidates: Vec<usize> = candidate_endpoints(&graph, victim, &[]).into_iter().take(6).collect();
        let sparse = IgAttack::new(IgConfig { steps: 1 }).integrated_gradients(&ctx, &graph, &candidates);

        // Dense oracle: α = 1 interpolation point.
        let mut interpolated = graph.to_dense();
        for &v in &candidates {
            interpolated[(victim, v)] = 1.0;
            interpolated[(v, victim)] = 1.0;
        }
        let features = graph.features().to_dense();
        let dense = crate::dense_adjacency_gradient(&model, &interpolated, &features, victim, target_label, false);
        for v in 0..graph.num_nodes() {
            if v == victim {
                continue;
            }
            let expected = dense[(victim, v)] + dense[(v, victim)];
            assert!(
                (sparse.undirected(v) - expected).abs() < 1e-8,
                "IG sparse/dense mismatch at candidate {v}: {} vs {expected}",
                sparse.undirected(v)
            );
        }
    }
}
