//! FGA-T&E: the straightforward joint-attack baseline of the paper
//! (Appendix A.4).
//!
//! FGA-T&E first runs GNNExplainer on the *clean* graph to see which nodes already
//! participate in the explanation subgraph of the target, then runs FGA-T while
//! excluding those nodes from the candidate endpoints. The intuition is that edges
//! toward nodes the explainer already cares about would be conspicuous; as the
//! paper shows, this heuristic barely helps because the *newly inserted* edges
//! themselves become influential and are still picked up by the explainer.

use std::sync::Arc;

use geattack_explain::{Explainer, GnnExplainer, GnnExplainerConfig};
use geattack_gnn::BatchedForward;
use geattack_graph::Perturbation;

use crate::fga::FgaT;
use crate::{AttackContext, TargetedAttack};

/// Configuration of the FGA-T&E baseline.
#[derive(Clone, Debug)]
pub struct FgaTEConfig {
    /// Explanation size `L`: endpoints of the top-`L` clean-graph explanation edges
    /// are excluded from the candidate set.
    pub explanation_size: usize,
    /// GNNExplainer settings used for the clean-graph explanation.
    pub explainer: GnnExplainerConfig,
}

impl Default for FgaTEConfig {
    fn default() -> Self {
        Self {
            explanation_size: 20,
            explainer: GnnExplainerConfig::default(),
        }
    }
}

/// The FGA-T&E attacker.
#[derive(Clone, Debug, Default)]
pub struct FgaTE {
    /// Attack configuration.
    pub config: FgaTEConfig,
    clean_forward: Option<Arc<BatchedForward>>,
}

impl FgaTE {
    /// Creates an FGA-T&E attacker with the given configuration.
    pub fn new(config: FgaTEConfig) -> Self {
        Self {
            config,
            clean_forward: None,
        }
    }

    /// Attaches a shared clean-graph forward pass. The forward **must** be
    /// `BatchedForward::new(model, graph)` for the exact `(model, graph)` the
    /// attack contexts will carry (FGA-T&E always explains the clean graph);
    /// the per-victim clean prediction is then served from it instead of
    /// re-running a full forward per victim. Results are bit-identical.
    pub fn with_clean_forward(mut self, forward: Arc<BatchedForward>) -> Self {
        self.clean_forward = Some(forward);
        self
    }

    /// Endpoints of the clean-graph explanation's top edges (the exclusion set).
    pub fn excluded_endpoints(&self, ctx: &AttackContext<'_>) -> Vec<usize> {
        let explainer = GnnExplainer::new(self.config.explainer.clone());
        let explanation = match &self.clean_forward {
            Some(f) => {
                explainer.explain_class_with_forward(ctx.model, ctx.graph, ctx.target, f.predicted_class(ctx.target), f)
            }
            None => explainer.explain(ctx.model, ctx.graph, ctx.target),
        };
        let mut nodes: Vec<usize> = explanation
            .top_edges(self.config.explanation_size)
            .into_iter()
            .flat_map(|(u, v)| [u, v])
            .filter(|&n| n != ctx.target)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

impl TargetedAttack for FgaTE {
    fn attack(&self, ctx: &AttackContext<'_>) -> Perturbation {
        let _span = geattack_telemetry::span(geattack_telemetry::Level::Detail, "attack.fga-te");
        let exclude = self.excluded_endpoints(ctx);
        FgaT.attack_excluding(ctx, &exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{pick_victim, small_setup};

    fn quick_config() -> FgaTEConfig {
        FgaTEConfig {
            explanation_size: 10,
            explainer: GnnExplainerConfig {
                epochs: 15,
                ..Default::default()
            },
        }
    }

    #[test]
    fn excluded_endpoints_come_from_explanation() {
        let (graph, model) = small_setup(51);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 2,
        };
        let attack = FgaTE::new(quick_config());
        let excluded = attack.excluded_endpoints(&ctx);
        assert!(!excluded.contains(&victim));
        // The target's explanation covers its own neighborhood, so at least one
        // neighbor should be excluded.
        assert!(!excluded.is_empty());
    }

    #[test]
    fn clean_forward_routing_is_bit_identical() {
        let (graph, model) = small_setup(51);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 2,
        };
        let attack = FgaTE::new(quick_config());
        let plain = attack.excluded_endpoints(&ctx);
        let routed = attack
            .clone()
            .with_clean_forward(Arc::new(BatchedForward::new(&model, &graph)))
            .excluded_endpoints(&ctx);
        assert_eq!(plain, routed, "shared clean forward changed the exclusion set");
    }

    #[test]
    fn attack_avoids_excluded_endpoints() {
        let (graph, model) = small_setup(52);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 3,
        };
        let attack = FgaTE::new(quick_config());
        let excluded = attack.excluded_endpoints(&ctx);
        let p = attack.attack(&ctx);
        assert!(!p.is_empty());
        for &(u, v) in p.added() {
            let other = if u == victim { v } else { u };
            assert!(!excluded.contains(&other), "attack used an excluded endpoint {other}");
        }
    }

    #[test]
    fn still_increases_target_probability() {
        let (graph, model) = small_setup(53);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext::with_degree_budget(&model, &graph, victim, target_label);
        let p = FgaTE::new(quick_config()).attack(&ctx);
        let attacked = p.apply(&graph);
        let before = model.predict_proba(&graph)[(victim, target_label)];
        let after = model.predict_proba(&attacked)[(victim, target_label)];
        assert!(after > before);
    }
}
