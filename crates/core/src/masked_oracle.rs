//! Dense `k×k` references for the shared masked GCN.
//!
//! Both explainers and both joint attacks evaluate the GCN through
//! `geattack_gnn::masked`, one weight per directed adjacency slot. These tests
//! rebuild each consumer's objective on the dense `k×k` weighted adjacency and
//! check values and gradients against it to 1e-9 relative to the largest
//! reference entry.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use geattack_attack::candidate_endpoints;
use geattack_explain::{GnnExplainer, GnnExplainerConfig, PgExplainer, PgExplainerConfig};
use geattack_gnn::{EdgeSlots, Gcn, RECEPTIVE_FIELD_HOPS};
use geattack_graph::datasets::{load, DatasetName};
use geattack_graph::{computation_subgraph, ComputationSubgraph, FamilyConfig, Graph};
use geattack_tensor::grad::{grad, grad_values};
use geattack_tensor::{init, nn, Matrix, Tape, Var};

use crate::geattack::{candidate_slots, GeAttack, GeAttackConfig};
use crate::pg_geattack::{PgGeAttack, PgGeAttackConfig};

const SEEDS: [u64; 3] = [3, 5, 8];

/// The dense masked GCN: log-probabilities under the weighted adjacency `a_w`.
fn dense_log_probs(tape: &Tape, model: &Gcn, a_w: Var, x: Var) -> Var {
    let params = model.insert_params_frozen(tape);
    model.log_probs_from_raw_adj(tape, a_w, x, &params)
}

/// GNNExplainer's objective over a dense `k×k` mask `M` and adjacency `A`:
/// NLL under `A ⊙ σ((M + Mᵀ)/2)` plus size and entropy of `σ(M) ⊙ A`.
#[allow(clippy::too_many_arguments)]
fn dense_gnnexplainer_loss(
    tape: &Tape,
    config: &GnnExplainerConfig,
    model: &Gcn,
    a: Var,
    x: Var,
    mask: Var,
    target_local: usize,
    class: usize,
) -> Var {
    let sym = tape.mul_scalar(tape.add(mask, tape.transpose(mask)), 0.5);
    let masked = tape.mul(a, tape.sigmoid(sym));
    let log_probs = dense_log_probs(tape, model, masked, x);
    let nll = nn::node_class_nll(tape, log_probs, target_local, class, model.num_classes());
    let gate = tape.sigmoid(mask);
    let size_reg = tape.mul_scalar(tape.sum_all(tape.mul(gate, a)), config.size_coeff);
    let denom = tape.value_ref(a).sum().max(1.0);
    let ent_reg = tape.mul_scalar(
        tape.sum_all(tape.mul(nn::binary_entropy(tape, gate), a)),
        config.entropy_coeff / denom,
    );
    tape.add(tape.add(nll, size_reg), ent_reg)
}

/// A `k×k` matrix holding `per_slot[e]` at every slot `e` and `fill(i, j)`
/// elsewhere.
fn densify(slots: &EdgeSlots, per_slot: &Matrix, fill: impl Fn(usize, usize) -> f64) -> Matrix {
    let k = slots.num_nodes();
    let mut dense = Matrix::from_fn(k, k, fill);
    for e in 0..slots.nnz() {
        dense[(slots.row(e), slots.col(e))] = per_slot[(e, 0)];
    }
    dense
}

/// `∂/∂A[t,v] + ∂/∂A[v,t]` of a dense gradient for every shortlist node.
fn candidate_entries(g: &Matrix, sub: &ComputationSubgraph, shortlist: &[usize]) -> Vec<f64> {
    let (tl, local) = (sub.target_local, |v| sub.to_local(v).unwrap());
    shortlist
        .iter()
        .map(|&v| g[(tl, local(v))] + g[(local(v), tl)])
        .collect()
}

fn assert_close(slot: &[f64], dense: &[f64], what: &str) {
    assert_eq!(slot.len(), dense.len(), "{what}: length");
    let scale = dense.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (i, (s, d)) in slot.iter().zip(dense).enumerate() {
        assert!(
            (s - d).abs() <= 1e-9 * scale.max(f64::MIN_POSITIVE),
            "{what}[{i}]: slot {s} vs dense {d} (scale {scale})"
        );
    }
}

/// A generated graph with an untrained GCN; the identities hold for any
/// parameters.
fn fixture(seed: u64) -> (Graph, Gcn) {
    let graph = load(DatasetName::Cora, &FamilyConfig::new(0.06, seed));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let model = Gcn::new(graph.num_features(), 16, graph.num_classes(), &mut rng);
    (graph, model)
}

fn hub(graph: &Graph) -> usize {
    (0..graph.num_nodes()).max_by_key(|&i| graph.degree(i)).unwrap()
}

/// Non-neighbours of `target`: three inside its 2-hop subgraph, five outside.
fn shortlist(graph: &Graph, target: usize) -> Vec<usize> {
    let local = computation_subgraph(graph, target, RECEPTIVE_FIELD_HOPS, &[]).nodes;
    let candidates = candidate_endpoints(graph, target, &[]);
    let inside = candidates.iter().copied().filter(|v| local.contains(v)).take(3);
    let outside = candidates.iter().copied().filter(|v| !local.contains(v)).take(5);
    inside.chain(outside).collect()
}

/// Path 0-1-2-3 with the pendant 4 on the target 0 and the isolated nodes 5, 6.
fn tiny() -> (Graph, Gcn) {
    let features = Matrix::from_fn(7, 3, |i, j| ((i + 2 * j) % 3) as f64);
    let edges = [(0, 1), (1, 2), (2, 3), (0, 4)];
    let graph = Graph::from_edges(7, &edges, features, vec![0, 0, 1, 1, 0, 1, 0], 2);
    (graph, Gcn::new(3, 4, 2, &mut ChaCha8Rng::seed_from_u64(1)))
}

fn gnnexplainer_case(graph: &Graph, model: &Gcn, target: usize, seed: u64) {
    let explainer = GnnExplainer::default();
    let sub = computation_subgraph(graph, target, RECEPTIVE_FIELD_HOPS, &[]);
    let slots = EdgeSlots::new(&sub);
    let class = model.predict_labels(graph)[target];
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let m_value = init::normal(slots.nnz(), 1, 0.0, 0.5, &mut rng);

    let tape = Tape::new();
    let a = tape.constant(slots.values().clone());
    let xw1 = tape.constant(graph.project_rows(&sub.nodes, &model.params().w1));
    let params = model.insert_params_frozen(&tape);
    let m = tape.input(m_value.clone());
    let loss = explainer.loss(&tape, model, &slots, a, xw1, &params, m, sub.target_local, class);
    let slot_loss = tape.value(loss).scalar();
    let slot_grad = grad_values(&tape, loss, &[m]).remove(0);

    // Mask entries off the slots get arbitrary values: they must not matter.
    let dense_mask = densify(&slots, &m_value, |i, j| 0.3 * i as f64 - 0.2 * j as f64);
    let tape = Tape::new();
    let a = tape.constant(sub.dense_adjacency());
    let x = tape.constant(graph.features().to_dense().gather_rows(&sub.nodes));
    let m = tape.input(dense_mask);
    let loss = dense_gnnexplainer_loss(&tape, &explainer.config, model, a, x, m, sub.target_local, class);
    let dense_loss = tape.value(loss).scalar();
    let dense_grad = grad_values(&tape, loss, &[m]).remove(0);

    assert_close(&[slot_loss], &[dense_loss], "GNNExplainer loss");
    let at_slots: Vec<f64> = (0..slots.nnz())
        .map(|e| dense_grad[(slots.row(e), slots.col(e))])
        .collect();
    assert_close(slot_grad.as_slice(), &at_slots, "GNNExplainer mask gradient");
}

fn geattack_case(graph: &Graph, model: &Gcn, target: usize, shortlist: &[usize], seed: u64) {
    // The inspector's coefficients and init std (here not the defaults)
    // reach both formulations through the one explainer config.
    let inspector = GnnExplainerConfig {
        size_coeff: 0.05,
        entropy_coeff: 0.5,
        mask_init_std: 0.2,
        ..Default::default()
    };
    let attack = GeAttack::new(GnnExplainer::new(inspector), GeAttackConfig::default());
    let (config, explainer) = (&attack.config, &attack.explainer.config);
    let sub = computation_subgraph(graph, target, RECEPTIVE_FIELD_HOPS, shortlist);
    let label = (model.predict_labels(graph)[target] + 1) % model.num_classes();
    let rng = ChaCha8Rng::seed_from_u64(seed);
    let slot_entries = attack.penalty_gradient(model, graph, target, shortlist, label, &mut rng.clone());

    // Same slot layout and init draws, then the dense formulation: a k×k mask,
    // T differentiable inner steps, and the penalty over the full B row.
    let tl = sub.target_local;
    let (slots, _) = candidate_slots(&sub, shortlist);
    let m0 = init::normal(slots.nnz(), 1, 0.0, explainer.mask_init_std, &mut rng.clone());
    let tape = Tape::new();
    let a = tape.input(sub.dense_adjacency());
    let x = tape.constant(graph.features().to_dense().gather_rows(&sub.nodes));
    let mut mask = tape.input(densify(&slots, &m0, |i, j| 0.01 * (i + 2 * j) as f64));
    for _ in 0..config.inner_steps {
        let inner = dense_gnnexplainer_loss(&tape, explainer, model, a, x, mask, tl, label);
        let step = grad(&tape, inner, &[mask])[0];
        mask = tape.sub(mask, tape.mul_scalar(step, config.inner_lr));
    }
    let b_row = Matrix::from_fn(1, sub.num_nodes(), |_, j| {
        if j == tl || graph.has_edge(target, sub.to_global(j)) {
            0.0
        } else {
            1.0
        }
    });
    let sym = tape.mul_scalar(tape.add(mask, tape.transpose(mask)), 0.5);
    let penalty = tape.sum_all(tape.mul_const(tape.gather_rows(sym, &[tl]), &b_row));
    let scaled = tape.mul_scalar(penalty, config.lambda);
    let g = tape.value(grad(&tape, scaled, &[a])[0]);

    let dense_entries = candidate_entries(&g, &sub, shortlist);
    assert!(dense_entries.iter().any(|v| v.abs() > 0.0), "the oracle sees no signal");
    assert_close(&slot_entries, &dense_entries, "GEAttack outer gradient");
}

fn pg_geattack_case(graph: &Graph, model: &Gcn, target: usize, shortlist: &[usize], seed: u64) {
    let attack = PgGeAttack::new(pg_explainer(model, graph, seed), PgGeAttackConfig::default());
    let slot_entries = attack.penalty_gradient(model, graph, target, shortlist);

    let sub = computation_subgraph(graph, target, RECEPTIVE_FIELD_HOPS, shortlist);
    let tl = sub.target_local;
    let pairs: Vec<(usize, usize)> = (0..sub.num_nodes())
        .filter(|&j| j != tl && !graph.has_edge(target, sub.to_global(j)))
        .map(|j| (tl.min(j), tl.max(j)))
        .collect();
    let tape = Tape::new();
    let a = tape.input(sub.dense_adjacency());
    let x = tape.constant(graph.features().to_dense().gather_rows(&sub.nodes));
    let z = model.hidden_layer(
        &tape,
        nn::gcn_normalize(&tape, a),
        x,
        &model.insert_params_frozen(&tape),
    );
    let mlp = attack.explainer.insert_params_frozen(&tape);
    let logits = PgExplainer::edge_logits(&tape, z, &pairs, tl, &mlp);
    let penalty = tape.mul_scalar(tape.sum_all(tape.sigmoid(logits)), attack.config.lambda);
    let g = tape.value(grad(&tape, penalty, &[a])[0]);

    let dense_entries = candidate_entries(&g, &sub, shortlist);
    assert!(dense_entries.iter().any(|v| v.abs() > 0.0), "the oracle sees no signal");
    assert_close(&slot_entries, &dense_entries, "PG-GEAttack penalty gradient");
}

/// An untrained PGExplainer: its randomly initialized MLP.
fn pg_explainer(model: &Gcn, graph: &Graph, seed: u64) -> PgExplainer {
    let config = PgExplainerConfig {
        epochs: 0,
        hidden: 8,
        seed,
        ..Default::default()
    };
    PgExplainer::train(model, graph, &[0], config)
}

#[test]
fn slot_core_matches_dense_gnnexplainer_loss_and_mask_gradient() {
    for seed in SEEDS {
        let (graph, model) = fixture(seed);
        gnnexplainer_case(&graph, &model, hub(&graph), seed);
    }
}

#[test]
fn slot_core_matches_dense_pgexplainer_loss_and_mlp_gradients() {
    for seed in SEEDS {
        let (graph, model) = fixture(seed);
        let target = hub(&graph);
        let explainer = pg_explainer(&model, &graph, seed);
        let sub = computation_subgraph(&graph, target, RECEPTIVE_FIELD_HOPS, &[]);
        let slots = EdgeSlots::new(&sub);
        let edges = sub.csr.edges();
        let class = model.predict_labels(&graph)[target];
        let z_value = model.node_embeddings(&graph).gather_rows(&sub.nodes);
        let tape = Tape::new();
        let z = tape.constant(z_value.clone());
        let xw1 = tape.constant(graph.project_rows(&sub.nodes, &model.params().w1));
        let mlp = explainer.params().insert(&tape);
        let loss = explainer.instance_loss(&tape, &model, &slots, &edges, z, xw1, sub.target_local, class, &mlp);
        let slot_loss = tape.value(loss).scalar();
        let slot_grads = grad_values(&tape, loss, &mlp.to_vec());

        // Dense: each gate placed at (u,v) and (v,u) through incidence matmuls.
        let k = sub.num_nodes();
        let incidence = |pick: fn(&(usize, usize)) -> usize| {
            Matrix::from_fn(edges.len(), k, |e, c| if pick(&edges[e]) == c { 1.0 } else { 0.0 })
        };
        let tape = Tape::new();
        let z = tape.constant(z_value);
        let mlp = explainer.params().insert(&tape);
        let gates = tape.sigmoid(PgExplainer::edge_logits(&tape, z, &edges, sub.target_local, &mlp));
        let src = tape.constant(incidence(|&(u, _)| u));
        let dst = tape.constant(incidence(|&(_, v)| v));
        let upper = tape.matmul(tape.transpose(tape.mul(src, tape.col_broadcast(gates, k))), dst);
        let masked = tape.add(upper, tape.transpose(upper));
        let x = tape.constant(graph.features().to_dense().gather_rows(&sub.nodes));
        let log_probs = dense_log_probs(&tape, &model, masked, x);
        let nll = nn::node_class_nll(&tape, log_probs, sub.target_local, class, model.num_classes());
        let config = &explainer.config;
        let size_reg = tape.mul_scalar(tape.sum_all(gates), config.size_coeff);
        let ent_reg = tape.mul_scalar(tape.mean_all(nn::binary_entropy(&tape, gates)), config.entropy_coeff);
        let loss = tape.add(tape.add(nll, size_reg), ent_reg);
        let dense_loss = tape.value(loss).scalar();
        let dense_grads = grad_values(&tape, loss, &mlp.to_vec());

        assert_close(&[slot_loss], &[dense_loss], "PGExplainer loss");
        for (i, (s, d)) in slot_grads.iter().zip(&dense_grads).enumerate() {
            assert_close(s.as_slice(), d.as_slice(), &format!("PGExplainer MLP gradient {i}"));
        }
    }
}

#[test]
fn slot_core_matches_dense_geattack_outer_gradient() {
    for seed in SEEDS {
        let (graph, model) = fixture(seed);
        let target = hub(&graph);
        geattack_case(&graph, &model, target, &shortlist(&graph, target), seed);
    }
}

#[test]
fn slot_core_matches_dense_pg_geattack_penalty_gradient() {
    for seed in SEEDS {
        let (graph, model) = fixture(seed);
        let target = hub(&graph);
        pg_geattack_case(&graph, &model, target, &shortlist(&graph, target), seed);
    }
}

#[test]
fn slot_core_matches_dense_on_edgeless_subgraphs_and_isolated_neighbours() {
    let (graph, model) = tiny();

    // Target 5 has no edges: an empty explanation, and no candidate slots
    // means no penalty gradient.
    let explanation = geattack_explain::Explainer::explain(&GnnExplainer::default(), &model, &graph, 5);
    assert!(explanation.is_empty());
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    assert!(GeAttack::default()
        .penalty_gradient(&model, &graph, 5, &[], 0, &mut rng)
        .is_empty());
    let pg = PgGeAttack::new(pg_explainer(&model, &graph, 0), PgGeAttackConfig::default());
    assert!(pg.penalty_gradient(&model, &graph, 5, &[]).is_empty());

    for seed in SEEDS {
        // An edgeless subgraph whose only slots are candidates (all valued 0).
        geattack_case(&graph, &model, 5, &[6, 2], seed);
        pg_geattack_case(&graph, &model, 5, &[6, 2], seed);
        // Target 0 with the pendant neighbour 4 and the isolated candidate 6.
        gnnexplainer_case(&graph, &model, 0, seed);
        geattack_case(&graph, &model, 0, &[2, 6], seed);
        pg_geattack_case(&graph, &model, 0, &[2, 6], seed);
    }
}
