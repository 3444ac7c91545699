//! GEAttack against PGExplainer (Section 5.3 of the paper).
//!
//! The joint objective is the same as against GNNExplainer, but the explainer
//! penalty uses PGExplainer's trained edge-scoring MLP: the gate the MLP assigns to
//! a (candidate) adversarial edge is computed from the GCN's first-layer node
//! embeddings, which themselves depend on the perturbed adjacency `Â`. The penalty
//! `λ Σ σ(ω_{vj}(Â)) · B[v, j]` is therefore differentiable with respect to `Â`
//! and the attack follows the same greedy outer loop as [`crate::geattack`].

use geattack_attack::{AttackContext, TargetedAttack};

use crate::geattack::{candidate_slots, greedy_joint_attack};
use geattack_explain::PgExplainer;
use geattack_gnn::RECEPTIVE_FIELD_HOPS;
use geattack_graph::{computation_subgraph, Graph, Perturbation};
use geattack_tensor::{grad::grad, Tape};

/// Hyper-parameters of GEAttack-PG.
#[derive(Clone, Debug)]
pub struct PgGeAttackConfig {
    /// Trade-off between attacking the GCN and evading PGExplainer.
    pub lambda: f64,
    /// Candidate shortlist size per outer iteration.
    pub candidate_pool: usize,
}

impl Default for PgGeAttackConfig {
    fn default() -> Self {
        Self {
            lambda: 20.0,
            candidate_pool: 48,
        }
    }
}

/// GEAttack driving a (trained, frozen) PGExplainer.
#[derive(Clone, Debug)]
pub struct PgGeAttack {
    /// Attack configuration.
    pub config: PgGeAttackConfig,
    /// The trained explainer the attacker wants to evade.
    pub explainer: PgExplainer,
}

impl PgGeAttack {
    /// Creates the attacker around a trained PGExplainer.
    pub fn new(explainer: PgExplainer, config: PgGeAttackConfig) -> Self {
        Self { config, explainer }
    }

    /// Gradient of the scaled PGExplainer penalty with respect to the
    /// adjacency, read at every shortlist candidate `v` as
    /// `∂/∂Â[t,v] + ∂/∂Â[v,t]` (in shortlist order).
    ///
    /// The penalty sums the explainer's gates over the target's candidate /
    /// adversarial pairs (entries where `B = 1`), evaluated on the current
    /// perturbed adjacency. Gradients flow through the GCN embeddings, which
    /// [`geattack_gnn::Gcn::masked_hidden`] computes on the subgraph's slot
    /// values plus zero-valued candidate slots for the shortlist.
    pub(crate) fn penalty_gradient(
        &self,
        model: &geattack_gnn::Gcn,
        working: &Graph,
        target: usize,
        shortlist: &[usize],
    ) -> Vec<f64> {
        let sub = computation_subgraph(working, target, RECEPTIVE_FIELD_HOPS, shortlist);
        let tl = sub.target_local;

        // Penalty pairs: the target with every subgraph node that is not its
        // neighbour in the working graph (B = 1). `B = 11ᵀ − I − A` is tracked
        // implicitly: clean edges and edges added by earlier outer iterations
        // are the working graph's edges.
        let penalty_pairs: Vec<(usize, usize)> = (0..sub.num_nodes())
            .filter(|&j| j != tl && !working.has_edge(target, sub.to_global(j)))
            .map(|j| (tl.min(j), tl.max(j)))
            .collect();
        if penalty_pairs.is_empty() {
            return vec![0.0; shortlist.len()];
        }
        let (slots, local) = candidate_slots(&sub, shortlist);

        let tape = Tape::new();
        let a = tape.input(slots.values().clone());
        let xw1 = tape.constant(working.project_rows(&sub.nodes, &model.params().w1));
        let gcn_params = model.insert_params_frozen(&tape);
        // Embeddings as a function of the adjacency, so ∂gate/∂Â is non-zero.
        let z = model.masked_hidden(&tape, &slots, a, xw1, &gcn_params);
        let pg_params = self.explainer.insert_params_frozen(&tape);
        let logits = PgExplainer::edge_logits(&tape, z, &penalty_pairs, tl, &pg_params);
        let gates = tape.sigmoid(logits);
        let penalty = tape.mul_scalar(tape.sum_all(gates), self.config.lambda);
        let g = tape.value(grad(&tape, penalty, &[a])[0]);
        local.iter().map(|&lv| slots.undirected(&g, tl, lv)).collect()
    }
}

impl TargetedAttack for PgGeAttack {
    fn attack(&self, ctx: &AttackContext<'_>) -> Perturbation {
        let _span = geattack_telemetry::span(geattack_telemetry::Level::Detail, "attack.pg-geattack");
        let rule = (self.config.lambda, 50.0, false);
        greedy_joint_attack(ctx, self.config.candidate_pool, rule, |working, shortlist| {
            self.penalty_gradient(ctx.model, working, ctx.target, shortlist)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geattack_attack::candidate_endpoints;
    use geattack_explain::PgExplainerConfig;
    use geattack_gnn::{train, Gcn, TrainConfig};
    use geattack_graph::datasets::{load, DatasetName};
    use geattack_graph::{stratified_split, FamilyConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(seed: u64) -> (Graph, Gcn, PgExplainer) {
        let cfg = FamilyConfig::new(0.06, seed);
        let graph = load(DatasetName::Citeseer, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let split = stratified_split(graph.labels(), graph.num_classes(), 0.1, 0.1, &mut rng);
        let trained = train(
            &graph,
            &split,
            &TrainConfig {
                epochs: 80,
                patience: None,
                seed,
                ..Default::default()
            },
        );
        let explainer = PgExplainer::train(
            &trained.model,
            &graph,
            &split.test,
            PgExplainerConfig {
                epochs: 2,
                training_instances: 6,
                ..Default::default()
            },
        );
        (graph, trained.model, explainer)
    }

    fn pick_victim(graph: &Graph, model: &Gcn) -> (usize, usize) {
        let preds = model.predict_labels(graph);
        let victim = (0..graph.num_nodes())
            .find(|&i| preds[i] == graph.label(i) && graph.degree(i) >= 2)
            .expect("no correctly classified node");
        (victim, (graph.label(victim) + 1) % graph.num_classes())
    }

    #[test]
    fn pg_geattack_attacks_the_model() {
        let (graph, model, explainer) = setup(71);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext::with_degree_budget(&model, &graph, victim, target_label);
        let attack = PgGeAttack::new(
            explainer,
            PgGeAttackConfig {
                candidate_pool: 24,
                ..Default::default()
            },
        );
        let p = attack.attack(&ctx);
        assert!(!p.is_empty());
        let attacked = p.apply(&graph);
        let before = model.predict_proba(&graph)[(victim, target_label)];
        let after = model.predict_proba(&attacked)[(victim, target_label)];
        assert!(after > before);
    }

    #[test]
    fn penalty_gradient_is_finite_and_shaped() {
        let (graph, model, explainer) = setup(72);
        let (victim, _) = pick_victim(&graph, &model);
        let attack = PgGeAttack::new(
            explainer,
            PgGeAttackConfig {
                candidate_pool: 8,
                ..Default::default()
            },
        );
        let shortlist: Vec<usize> = candidate_endpoints(&graph, victim, &[]).into_iter().take(8).collect();
        let g = attack.penalty_gradient(&model, &graph, victim, &shortlist);
        assert_eq!(g.len(), shortlist.len());
        assert!(g.iter().all(|v| v.is_finite()));
        // Some candidate entry must receive gradient signal from the explainer.
        assert!(
            g.iter().any(|v| v.abs() > 0.0),
            "PGExplainer penalty produced no gradient on candidates"
        );
    }

    #[test]
    fn added_edges_are_direct_and_within_budget() {
        let (graph, model, explainer) = setup(73);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 2,
        };
        let attack = PgGeAttack::new(
            explainer,
            PgGeAttackConfig {
                candidate_pool: 16,
                ..Default::default()
            },
        );
        let p = attack.attack(&ctx);
        assert!(p.size() <= 2);
        for &(u, v) in p.added() {
            assert!(u == victim || v == victim);
        }
    }
}
