//! GEAttack (Algorithm 1 of the paper): jointly attacking a GCN and GNNExplainer.
//!
//! The attacker minimizes the joint objective (Eq. 7)
//!
//! ```text
//! L_GEAttack(Â) = L_GNN(f_θ(Â, X)_v, ŷ)  +  λ · Σ_j  M_A^T[v, j] · B[v, j]
//! ```
//!
//! where `M_A^T` is the GNNExplainer adjacency mask after `T` gradient-descent
//! steps — *computed as part of the computation graph*, so the outer gradient
//! `∇_Â L_GEAttack` back-propagates through the explainer's own optimization
//! (Eq. 8) — and `B = 11ᵀ − I − A` restricts the penalty to edges that do not
//! exist in the clean graph (so the explainer still behaves normally on clean
//! edges). Each outer iteration greedily inserts the candidate edge with the most
//! helpful gradient, updates `Â` and zeroes the corresponding entry of `B`
//! (Algorithm 1, line 10).
//!
//! The explainer in `M_A^T` is the inspector itself: [`GeAttack`] holds the
//! cell's [`GnnExplainer`], so the inner steps differentiate the inspector's
//! objective (its size and entropy coefficients) from an `M_A^0` drawn with
//! its init std and seed. Only `T` and the step size `η` are the attacker's.
//!
//! ## Scalability and calibration notes (documented deviations)
//!
//! * The explainer term is evaluated on the target's computation subgraph augmented
//!   with a shortlist of the most promising candidate endpoints (pre-ranked by the
//!   `L_GNN` gradient), exactly as the reference GNNExplainer restricts its mask to
//!   the computation subgraph. The `L_GNN` term and its gradient always use the full
//!   graph. This keeps the double-backward computation tractable without changing
//!   which quantities the selection rule sees for the candidates that matter.
//! * The two gradient components are normalized to a common magnitude (each is
//!   divided by its largest absolute candidate entry) before being combined as
//!   `g_attack + (λ / 20) · g_penalty`. On the synthetic substrate the raw
//!   magnitudes of the two gradients differ by orders of magnitude (unlike on the
//!   paper's datasets), and without this calibration any fixed λ either has no
//!   effect or destroys the attack entirely. With it, λ plays the role of the
//!   paper's trade-off knob. The paper's Figure 4 reports that λ ≈ 20 keeps
//!   ASR-T at 100% while pushing the adversarial edges out of the explainer's
//!   top ranks, and that very large λ trades attack success for stealth
//!   (Figures 4 and 8). That is the paper's claim, not this repository's
//!   measurement: ROADMAP item 1 records what the repo measures across λ (a
//!   weak trade-off at best on the synthetic substrate).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use geattack_attack::{greedy_insertions, AttackContext, LossGradients, TargetGradient, TargetedAttack};
use geattack_explain::GnnExplainer;
use geattack_gnn::{EdgeSlots, RECEPTIVE_FIELD_HOPS};
use geattack_graph::{computation_subgraph, ComputationSubgraph, Graph, Perturbation};
use geattack_tensor::{grad::grad, init, Tape};

/// Hyper-parameters of GEAttack's own outer and inner loops. The inner loop's
/// objective, its `M_A^0` std and its seed belong to the [`GnnExplainer`] the
/// attacker holds.
#[derive(Clone, Debug)]
pub struct GeAttackConfig {
    /// Trade-off `λ` between attacking the GCN and evading the explainer (Eq. 7).
    /// The paper's Figure 4 reports that λ≈20 keeps ASR-T at 100% while
    /// substantially lowering detectability; ROADMAP item 1 records what this
    /// repository measures.
    pub lambda: f64,
    /// Number of inner explainer gradient-descent steps `T` (Figure 6 shows small
    /// values suffice).
    pub inner_steps: usize,
    /// Inner step size `η` for the mask updates.
    pub inner_lr: f64,
    /// How many of the best candidates (ranked by the `L_GNN` gradient) are
    /// included in the explainer subgraph and considered for selection each outer
    /// iteration.
    pub candidate_pool: usize,
}

impl Default for GeAttackConfig {
    fn default() -> Self {
        Self {
            lambda: 20.0,
            inner_steps: 3,
            inner_lr: 0.1,
            candidate_pool: 48,
        }
    }
}

/// The GEAttack attacker (against GNNExplainer).
///
/// `M_A^T` is the mask of the GNNExplainer that inspects the attack, so the
/// attacker holds that explainer: the inner loop differentiates its
/// [`GnnExplainer::loss`] and draws `M_A^0` with its `mask_init_std` from a
/// stream derived from its seed. Its epochs and learning rate are not read:
/// the inner loop runs [`GeAttackConfig::inner_steps`] plain gradient steps of
/// size [`GeAttackConfig::inner_lr`] (Algorithm 1 lines 3-8).
#[derive(Clone, Debug, Default)]
pub struct GeAttack {
    /// Attack configuration.
    pub config: GeAttackConfig,
    /// The inspecting GNNExplainer whose mask the inner loop mimics.
    pub explainer: GnnExplainer,
}

impl GeAttack {
    /// Creates the attacker against `explainer`.
    pub fn new(explainer: GnnExplainer, config: GeAttackConfig) -> Self {
        Self { config, explainer }
    }

    /// Gradient of the scaled explainer penalty `λ · Σ_j M_A^T[t, j] · B[t, j]`
    /// with respect to the adjacency, read at every shortlist candidate `v` as
    /// `∂/∂Â[t,v] + ∂/∂Â[v,t]` (in shortlist order).
    ///
    /// The explainer term lives on the target's computation subgraph augmented
    /// with the shortlist. Its adjacency is the slot-value vector `a` of
    /// [`candidate_slots`], recorded as a tape input. The mask `M_A^T` holds
    /// one entry per slot and is obtained by `T` differentiable gradient-descent
    /// steps of the GNNExplainer objective (Algorithm 1 lines 3-8). Every
    /// candidate has `B[t,v] = 1`, and those are the only `B` entries whose
    /// gradient is read: an entry off the slot pattern only ever meets
    /// `Â[t,j] = 0` factors, so it adds nothing to a candidate's gradient.
    pub(crate) fn penalty_gradient(
        &self,
        model: &geattack_gnn::Gcn,
        working: &Graph,
        target: usize,
        shortlist: &[usize],
        target_label: usize,
        rng: &mut impl rand::Rng,
    ) -> Vec<f64> {
        let sub = computation_subgraph(working, target, RECEPTIVE_FIELD_HOPS, shortlist);
        let tl = sub.target_local;
        let (slots, local) = candidate_slots(&sub, shortlist);
        let explainer = &self.explainer;

        let tape = Tape::new();
        let a = tape.input(slots.values().clone());
        // The frozen parameters and the projection X·W₁ depend on neither the
        // mask nor `a`, so the inner steps share them.
        let params = model.insert_params_frozen(&tape);
        let xw1 = tape.constant(working.project_rows(&sub.nodes, &model.params().w1));
        let mut mask = tape.input(init::normal(slots.nnz(), 1, 0.0, explainer.config.mask_init_std, rng));
        // `grad` emits tape operations, so the final mask keeps its dependency
        // on `a`.
        for _ in 0..self.config.inner_steps {
            let inner_loss = explainer.loss(&tape, model, &slots, a, xw1, &params, mask, tl, target_label);
            let step = grad(&tape, inner_loss, &[mask])[0];
            mask = tape.sub(mask, tape.mul_scalar(step, self.config.inner_lr));
        }

        let penalty_slots: Vec<usize> = local.iter().map(|&lv| slots.slot(tl, lv).unwrap()).collect();
        let sym = slots.symmetrize(&tape, mask);
        let penalty = tape.sum_all(tape.gather_rows(sym, &penalty_slots));
        let scaled = tape.mul_scalar(penalty, self.config.lambda);
        let g = tape.value(grad(&tape, scaled, &[a])[0]);
        local.iter().map(|&lv| slots.undirected(&g, tl, lv)).collect()
    }
}

/// Algorithm 1's greedy outer loop, shared by both joint attacks: their pick
/// rule for [`greedy_insertions`]. Each iteration computes the full-graph
/// `L_GNN` gradient (Section 4.1), shortlists the `pool` most promising
/// candidates by it, asks `penalties` for the explainer term's gradient at
/// every shortlist node, and inserts the edge [`choose_by_normalized_score`]
/// picks. `B = 11ᵀ − I − A` (line 3) is tracked implicitly: the candidates are
/// exactly the target's non-neighbours in the working graph, so inserting
/// `(t, v)` (line 10) also zeroes `B[t, v]`.
pub(crate) fn greedy_joint_attack(
    ctx: &AttackContext<'_>,
    pool: usize,
    (lambda, divisor, strong_only): (f64, f64, bool),
    mut penalties: impl FnMut(&Graph, &[usize]) -> Vec<f64>,
) -> Perturbation {
    let gradients = LossGradients::new(ctx.model, ctx.graph);
    greedy_insertions(ctx, &[], |working, candidates| {
        let g_attack = gradients.targeted(working, ctx.target, ctx.target_label);
        let shortlist = shortlist(&g_attack, candidates, pool);
        let scored = shortlist
            .iter()
            .zip(penalties(working, &shortlist))
            .map(|(&v, p)| (v, g_attack.undirected(v), p))
            .collect();
        Some(choose_by_normalized_score(scored, lambda, divisor, strong_only))
    })
}

/// Picks the `(candidate, attack entry, penalty entry)` whose combined score
/// `a / max|a| + λ / (divisor · max|p|) · p` is most negative: each component
/// is normalized by its largest absolute shortlist value, so λ acts as a
/// dimensionless trade-off (see the module-level calibration note).
///
/// With `strong_only`, stealth is traded only among candidates that still
/// carry at least a fifth of the best attack gradient, so moderate λ cannot
/// select an edge that is stealthy but useless for the attack (the paper's
/// Figure 4 reports that its λ ≈ 20 operating point keeps ASR-T at 100%; see
/// ROADMAP item 1 for this repository's measurement).
fn choose_by_normalized_score(scored: Vec<(usize, f64, f64)>, lambda: f64, divisor: f64, strong_only: bool) -> usize {
    let attack_scale = scored
        .iter()
        .map(|&(_, a, _)| a.abs())
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let penalty_scale = scored.iter().map(|&(_, _, p)| p.abs()).fold(0.0f64, f64::max);
    let penalty_weight = if penalty_scale > 1e-12 {
        lambda / (divisor * penalty_scale)
    } else {
        0.0
    };
    let best_attack = scored.iter().map(|&(_, a, _)| a).fold(f64::INFINITY, f64::min);
    let strong: Vec<(usize, f64, f64)> = scored
        .iter()
        .copied()
        .filter(|&(_, a, _)| strong_only && best_attack < 0.0 && a <= 0.2 * best_attack)
        .collect();
    let pool = if strong.is_empty() { scored } else { strong };
    pool.into_iter()
        .min_by(|&(_, a1, p1), &(_, a2, p2)| {
            let s1 = a1 / attack_scale + penalty_weight * p1;
            let s2 = a2 / attack_scale + penalty_weight * p2;
            s1.partial_cmp(&s2).unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(v, _, _)| v)
        .expect("shortlist is non-empty")
}

/// The `pool` candidates whose insertion most decreases `L_GNN` (most negative
/// undirected gradient entry first): the shortlist both joint attacks score.
fn shortlist(g_attack: &TargetGradient, mut candidates: Vec<usize>, pool: usize) -> Vec<usize> {
    candidates.sort_by(|&a, &b| {
        g_attack
            .undirected(a)
            .partial_cmp(&g_attack.undirected(b))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    candidates.truncate(pool.max(1));
    candidates
}

/// `sub`'s edge slots plus zero-valued candidate slots `(t,v)`/`(v,t)` for
/// every shortlist node `v`, and the shortlist's local ids.
pub(crate) fn candidate_slots(sub: &ComputationSubgraph, shortlist: &[usize]) -> (EdgeSlots, Vec<usize>) {
    let local: Vec<usize> = shortlist
        .iter()
        .map(|&v| sub.to_local(v).expect("shortlist nodes are in the subgraph"))
        .collect();
    let pairs: Vec<(usize, usize)> = local.iter().map(|&lv| (sub.target_local, lv)).collect();
    (EdgeSlots::with_extra_pairs(sub, &pairs), local)
}

impl TargetedAttack for GeAttack {
    fn attack(&self, ctx: &AttackContext<'_>) -> Perturbation {
        let _span = geattack_telemetry::span(geattack_telemetry::Level::Detail, "attack.geattack");
        let seed = self.explainer.config.seed;
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (ctx.target as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let rule = (self.config.lambda, 20.0, true);
        greedy_joint_attack(ctx, self.config.candidate_pool, rule, |working, shortlist| {
            self.penalty_gradient(ctx.model, working, ctx.target, shortlist, ctx.target_label, &mut rng)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geattack_attack::FgaT;
    use geattack_explain::{detection_scores, Explainer, GnnExplainerConfig};
    use geattack_gnn::{train, Gcn, TrainConfig};
    use geattack_graph::datasets::{load, DatasetName};
    use geattack_graph::{stratified_split, FamilyConfig};

    fn small_setup(seed: u64) -> (Graph, Gcn) {
        let cfg = FamilyConfig::new(0.06, seed);
        let graph = load(DatasetName::Cora, &cfg);
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
        (graph, trained.model)
    }

    fn pick_victim(graph: &Graph, model: &Gcn) -> (usize, usize) {
        let preds = model.predict_labels(graph);
        let victim = (0..graph.num_nodes())
            .find(|&i| preds[i] == graph.label(i) && graph.degree(i) >= 2)
            .expect("no correctly classified node");
        (victim, (graph.label(victim) + 1) % graph.num_classes())
    }

    fn quick_config() -> GeAttackConfig {
        GeAttackConfig {
            inner_steps: 2,
            candidate_pool: 24,
            ..Default::default()
        }
    }

    #[test]
    fn geattack_respects_budget_and_directness() {
        let (graph, model) = small_setup(61);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 2,
        };
        let p = GeAttack::new(GnnExplainer::default(), quick_config()).attack(&ctx);
        assert!(!p.is_empty());
        assert!(p.size() <= 2);
        for &(u, v) in p.added() {
            assert!(u == victim || v == victim);
        }
    }

    #[test]
    fn geattack_increases_target_label_probability() {
        let (graph, model) = small_setup(62);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext::with_degree_budget(&model, &graph, victim, target_label);
        let p = GeAttack::new(GnnExplainer::default(), quick_config()).attack(&ctx);
        let attacked = p.apply(&graph);
        let before = model.predict_proba(&graph)[(victim, target_label)];
        let after = model.predict_proba(&attacked)[(victim, target_label)];
        assert!(
            after > before,
            "GEAttack did not raise target-label probability ({before} -> {after})"
        );
    }

    #[test]
    fn lambda_zero_reduces_to_graph_attack() {
        // With λ = 0 the explainer term vanishes and GEAttack's greedy rule is the
        // same gradient rule as FGA-T restricted to the shortlist, so the two
        // attacks should pick the same first edge.
        let (graph, model) = small_setup(63);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 1,
        };
        let config = GeAttackConfig {
            lambda: 0.0,
            ..quick_config()
        };
        let ge = GeAttack::new(GnnExplainer::default(), config).attack(&ctx);
        let fga = FgaT.attack(&ctx);
        assert_eq!(ge.added(), fga.added());
    }

    #[test]
    fn geattack_is_deterministic_for_seed() {
        let (graph, model) = small_setup(64);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 2,
        };
        let a = GeAttack::new(GnnExplainer::default(), quick_config()).attack(&ctx);
        let b = GeAttack::new(GnnExplainer::default(), quick_config()).attack(&ctx);
        assert_eq!(a, b);
    }

    #[test]
    fn large_lambda_changes_edge_choice_or_lowers_detection() {
        // The explainer term must actually influence the selection: with a huge λ
        // either a different edge is chosen than pure FGA-T, or (if the same edge
        // is genuinely optimal for both goals) its detection score is no worse.
        let (graph, model) = small_setup(65);
        let (victim, target_label) = pick_victim(&graph, &model);
        let ctx = AttackContext {
            model: &model,
            graph: &graph,
            target: victim,
            target_label,
            budget: 1,
        };
        let heavy = GeAttack::new(
            GnnExplainer::default(),
            GeAttackConfig {
                lambda: 500.0,
                ..quick_config()
            },
        )
        .attack(&ctx);
        let fga = FgaT.attack(&ctx);
        if heavy.added() == fga.added() {
            let explainer = GnnExplainer::new(GnnExplainerConfig {
                epochs: 20,
                ..Default::default()
            });
            let attacked = heavy.apply(&graph);
            let explanation = explainer.explain(&model, &attacked, victim);
            let scores = detection_scores(&explanation, heavy.added(), 15);
            assert!(scores.ndcg <= 1.0);
        } else {
            assert_ne!(heavy.added(), fga.added());
        }
    }
}
