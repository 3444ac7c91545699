//! Fast Gradient Attack (FGA) and its targeted variant FGA-T.
//!
//! FGA relaxes the adjacency matrix to continuous values, computes the gradient of
//! the attack loss with respect to every potential edge, greedily inserts the edge
//! with the most helpful gradient, and repeats until the budget is exhausted
//! (Section 4.1 of the paper). FGA maximizes the loss of the *true* label
//! (untargeted); FGA-T minimizes the loss of a *specific* target label (Eq. 4).

use geattack_graph::Perturbation;

use crate::{best_candidate_by_gradient, candidate_endpoints, AttackContext, LossGradients, TargetedAttack};

/// Untargeted fast-gradient attack.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fga;

/// Targeted fast-gradient attack (FGA-T).
#[derive(Clone, Copy, Debug, Default)]
pub struct FgaT {
    /// When `true`, candidate endpoints are restricted to nodes whose ground-truth
    /// label equals the attacker's target label (the paper's adaptation of the
    /// baselines to the targeted setting).
    pub restrict_to_target_label: bool,
}

/// Shared greedy loop: repeatedly recompute the gradient on the current perturbed
/// graph and insert the best candidate edge.
fn greedy_gradient_attack(
    ctx: &AttackContext<'_>,
    exclude: &[usize],
    targeted: bool,
    restrict_to_target_label: bool,
) -> Perturbation {
    let mut perturbation = Perturbation::new();
    let mut working = ctx.graph.clone();
    // Features never change across insertions; the X·W₁ projection is shared by
    // every per-insertion gradient call.
    let gradients = LossGradients::new(ctx.model, ctx.graph);

    for _ in 0..ctx.budget {
        let mut candidates = candidate_endpoints(&working, ctx.target, exclude);
        if restrict_to_target_label {
            let restricted: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&v| working.label(v) == ctx.target_label)
                .collect();
            if !restricted.is_empty() {
                candidates = restricted;
            }
        }
        if candidates.is_empty() {
            break;
        }
        let grad = if targeted {
            gradients.targeted(&working, ctx.target, ctx.target_label)
        } else {
            gradients.untargeted(&working, ctx.target)
        };
        let Some(best) = best_candidate_by_gradient(&grad, &candidates) else {
            break;
        };
        perturbation.add_edge(ctx.target, best);
        working.add_edge(ctx.target, best);
    }
    perturbation
}

impl TargetedAttack for Fga {
    fn attack(&self, ctx: &AttackContext<'_>) -> Perturbation {
        let _span = geattack_telemetry::span(geattack_telemetry::Level::Detail, "attack.fga");
        greedy_gradient_attack(ctx, &[], false, false)
    }

    fn name(&self) -> &'static str {
        "FGA"
    }
}

impl TargetedAttack for FgaT {
    fn attack(&self, ctx: &AttackContext<'_>) -> Perturbation {
        let _span = geattack_telemetry::span(geattack_telemetry::Level::Detail, "attack.fga-t");
        greedy_gradient_attack(ctx, &[], true, self.restrict_to_target_label)
    }

    fn name(&self) -> &'static str {
        "FGA-T"
    }
}

impl FgaT {
    /// Runs FGA-T while excluding the given endpoints from the candidate set
    /// (used by FGA-T&E).
    pub fn attack_excluding(&self, ctx: &AttackContext<'_>, exclude: &[usize]) -> Perturbation {
        greedy_gradient_attack(ctx, exclude, true, self.restrict_to_target_label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{pick_victim, small_setup};

    #[test]
    fn fga_t_reaches_target_label_with_degree_budget() {
        let (graph, model) = small_setup(21);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext::with_degree_budget(&model, &graph, victim, target_label);
        let p = FgaT::default().attack(&ctx);
        assert!(p.size() <= ctx.budget);
        assert!(!p.is_empty());
        let attacked = p.apply(&graph);
        // The targeted probability must strictly increase; with a degree budget it
        // usually flips the prediction entirely.
        let before = model.predict_proba(&graph)[(victim, target_label)];
        let after = model.predict_proba(&attacked)[(victim, target_label)];
        assert!(after > before, "FGA-T failed to increase target-label probability");
    }

    #[test]
    fn fga_untargeted_degrades_true_label() {
        let (graph, model) = small_setup(22);
        let (victim, _) = pick_victim(&graph, &model);
        let true_label = graph.label(victim);
        let ctx = AttackContext::with_degree_budget(&model, &graph, victim, 0);
        let p = Fga.attack(&ctx);
        let attacked = p.apply(&graph);
        let before = model.predict_proba(&graph)[(victim, true_label)];
        let after = model.predict_proba(&attacked)[(victim, true_label)];
        assert!(after < before, "FGA did not reduce the true-label probability");
    }

    #[test]
    fn all_added_edges_touch_the_target() {
        let (graph, model) = small_setup(23);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 3,
        };
        let p = FgaT::default().attack(&ctx);
        for &(u, v) in p.added() {
            assert!(
                u == victim || v == victim,
                "direct attack must only add edges incident to the target"
            );
        }
    }

    #[test]
    fn label_restriction_is_honored() {
        let (graph, model) = small_setup(24);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 2,
        };
        let p = FgaT {
            restrict_to_target_label: true,
        }
        .attack(&ctx);
        for &(u, v) in p.added() {
            let other = if u == victim { v } else { u };
            assert_eq!(graph.label(other), target_label);
        }
    }

    #[test]
    fn exclusion_list_is_honored() {
        let (graph, model) = small_setup(25);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 2,
        };
        let unrestricted = FgaT::default().attack(&ctx);
        let first_choice = {
            let &(u, v) = &unrestricted.added()[0];
            if u == victim {
                v
            } else {
                u
            }
        };
        let p = FgaT::default().attack_excluding(&ctx, &[first_choice]);
        for &(u, v) in p.added() {
            let other = if u == victim { v } else { u };
            assert_ne!(other, first_choice, "excluded endpoint was used anyway");
        }
    }

    #[test]
    fn stronger_budget_is_at_least_as_successful() {
        let (graph, model) = small_setup(26);
        let (victim, target_label) = pick_victim(&graph, &model);
        let small = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 1,
        };
        let large = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 4,
        };
        let p_small = FgaT::default().attack(&small).apply(&graph);
        let p_large = FgaT::default().attack(&large).apply(&graph);
        let prob_small = model.predict_proba(&p_small)[(victim, target_label)];
        let prob_large = model.predict_proba(&p_large)[(victim, target_label)];
        assert!(prob_large >= prob_small - 1e-9);
    }
}
