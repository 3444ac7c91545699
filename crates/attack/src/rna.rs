//! Random attack (RNA): connect the target to random nodes carrying the desired
//! target label.
//!
//! RNA is the weakest attacker in terms of success rate but — as the paper shows —
//! the hardest to detect, because its edges are not optimized and therefore carry
//! little signal for the explainer.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use geattack_graph::Perturbation;

use crate::{candidate_endpoints, AttackContext, TargetedAttack};

/// The random baseline attacker.
#[derive(Clone, Debug, Default)]
pub struct RandomAttack {
    /// RNG seed; the per-victim stream also mixes in the target id so different
    /// victims draw different edges.
    pub seed: u64,
}

impl RandomAttack {
    /// Creates a random attacker with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl TargetedAttack for RandomAttack {
    fn attack(&self, ctx: &AttackContext<'_>) -> Perturbation {
        let _span = geattack_telemetry::span(geattack_telemetry::Level::Detail, "attack.rna");
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ (ctx.target as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut perturbation = Perturbation::new();

        // Prefer nodes already labelled with the desired class; if there are not
        // enough of them, fall back to arbitrary candidates.
        let all = candidate_endpoints(ctx.graph, ctx.target, &[]);
        let mut preferred: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&v| ctx.graph.label(v) == ctx.target_label)
            .collect();
        let mut fallback: Vec<usize> = all
            .into_iter()
            .filter(|&v| ctx.graph.label(v) != ctx.target_label)
            .collect();
        preferred.shuffle(&mut rng);
        fallback.shuffle(&mut rng);
        preferred.extend(fallback);

        for v in preferred.into_iter().take(ctx.budget) {
            perturbation.add_edge(ctx.target, v);
        }
        perturbation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{pick_victim, small_setup};

    #[test]
    fn respects_budget_and_prefers_target_label() {
        let (graph, model) = small_setup(11);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 3,
        };
        let p = RandomAttack::new(7).attack(&ctx);
        assert_eq!(p.size(), 3);
        for &(u, v) in p.added() {
            let other = if u == victim { v } else { u };
            assert!(!graph.has_edge(victim, other), "added an existing edge");
            assert_eq!(
                graph.label(other),
                target_label,
                "RNA should prefer target-label nodes when available"
            );
        }
    }

    #[test]
    fn deterministic_per_seed_and_target() {
        let (graph, model) = small_setup(12);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 2,
        };
        let a = RandomAttack::new(3).attack(&ctx);
        let b = RandomAttack::new(3).attack(&ctx);
        assert_eq!(a, b);
        let c = RandomAttack::new(4).attack(&ctx);
        // Different seed will almost surely pick different edges on a graph with
        // hundreds of candidates.
        assert_ne!(a, c);
    }

    #[test]
    fn perturbation_applies_cleanly() {
        let (graph, model) = small_setup(13);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext::with_degree_budget(&model, &graph, victim, target_label);
        let p = RandomAttack::default().attack(&ctx);
        let attacked = p.apply(&graph);
        assert_eq!(attacked.num_edges(), graph.num_edges() + p.size());
    }
}
