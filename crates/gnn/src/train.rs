//! Full-batch GCN training with validation-based early stopping.
//!
//! Every epoch evaluates one fixed program (forward pass, train and val
//! losses, parameter gradients) at new parameters, so it is recorded on a tape
//! once and replayed each later epoch ([`geattack_tensor::Tape::replay`]); a
//! test pins the result bit for bit to the fresh-tape-per-epoch loop.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use geattack_graph::{DataSplit, Graph};
use geattack_tensor::{grad::grad, nn, Adam, Matrix, Optimizer, SparseMatrix, Tape, Var};

use crate::gcn::{Gcn, GcnParamVars, GcnParams};

/// Hyper-parameters for GCN training (defaults follow the DeepRobust/Kipf setup
/// the paper builds on: 16 hidden units, Adam with lr 0.01, weight decay 5e-4,
/// 200 epochs with early stopping).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Maximum number of epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// L2 weight decay.
    pub weight_decay: f64,
    /// Early-stopping patience measured in epochs without validation improvement
    /// (`None` disables early stopping).
    pub patience: Option<usize>,
    /// RNG seed for parameter initialization.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            hidden: 16,
            epochs: 200,
            lr: 0.01,
            weight_decay: 5e-4,
            patience: Some(30),
            seed: 0,
        }
    }
}

/// Per-epoch record of the training run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Training cross-entropy.
    pub train_loss: f64,
    /// Validation cross-entropy.
    pub val_loss: f64,
}

/// Result of [`train`]: the fitted model plus its loss history.
#[derive(Clone, Debug)]
pub struct TrainedGcn {
    /// The trained model (parameters of the best validation epoch).
    pub model: Gcn,
    /// Loss curve over epochs actually run.
    pub history: Vec<EpochStats>,
}

/// How the full-graph normalized adjacency and the features enter the
/// training tape. The two representations are bit-identical in every value
/// they produce (the SpMM kernel replays the dense matmul's exact accumulation
/// order, zero entries skipped); the dense one is the O(n²·f) oracle the tests
/// pin the O(nnz·f) sparse one against.
enum Operands {
    /// CSR adjacency and the graph's own CSR features, shared with the
    /// training tape.
    Sparse {
        a_norm: Arc<SparseMatrix>,
        x: Arc<SparseMatrix>,
    },
    #[cfg(test)]
    Dense { a_norm: Matrix, x: Matrix },
}

impl Operands {
    fn sparse(graph: &Graph) -> Self {
        Operands::Sparse {
            a_norm: Arc::new(geattack_graph::normalized_adjacency_csr(graph).matrix),
            x: Arc::clone(graph.features()),
        }
    }

    fn log_probs(&self, tape: &Tape, model: &Gcn, params: &GcnParamVars) -> Var {
        match self {
            #[cfg(test)]
            Operands::Dense { a_norm, x } => {
                let a_norm = tape.constant(a_norm.clone());
                let x = tape.constant(x.clone());
                model.log_probs(tape, a_norm, x, params)
            }
            Operands::Sparse { a_norm, x } => {
                let a_norm = tape.sparse_constant(Arc::clone(a_norm));
                let xw1 = tape.spmm(tape.sparse_constant(Arc::clone(x)), params.w1);
                model.log_probs_sparse_projected(tape, a_norm, xw1, params)
            }
        }
    }
}

/// Trains a two-layer GCN on `graph` using the labelled nodes in `split.train`,
/// early-stopping on `split.val`, on the CSR SpMM core: both the adjacency and
/// the (1–5%-dense) features are multiplied as sparse operands.
pub fn train(graph: &Graph, split: &DataSplit, config: &TrainConfig) -> TrainedGcn {
    train_with(graph, split, config, Operands::sparse(graph))
}

/// [`train`] on the dense adjacency and dense features — the oracle the sparse
/// path is pinned against bit-for-bit.
#[cfg(test)]
fn train_dense_oracle(graph: &Graph, split: &DataSplit, config: &TrainConfig) -> TrainedGcn {
    let operands = Operands::Dense {
        a_norm: geattack_graph::normalized_adjacency(graph),
        x: graph.features().to_dense(),
    };
    train_with(graph, split, config, operands)
}

/// [`train`] on the given operands: the training objective is recorded once,
/// then every later epoch sets the four parameters and replays it.
fn train_with(graph: &Graph, split: &DataSplit, config: &TrainConfig, operands: Operands) -> TrainedGcn {
    let mut recorded: Option<EpochTape> = None;
    fit(graph, split, config, operands, |objective, model| {
        match &recorded {
            Some(epoch) => epoch.replay_at(model.params()),
            None => recorded = Some(objective.record(model)),
        }
        recorded.as_ref().expect("recorded above").read()
    })
}

/// [`train`] with a fresh tape recorded every epoch: the oracle replay is
/// pinned against.
#[cfg(test)]
fn train_fresh_tapes(graph: &Graph, split: &DataSplit, config: &TrainConfig) -> TrainedGcn {
    fit(graph, split, config, Operands::sparse(graph), |objective, model| {
        objective.record(model).read()
    })
}

/// The training objective: cross-entropy of the GCN's full-graph
/// log-probabilities on the train nodes, plus the validation loss that drives
/// early stopping.
struct Objective<'a> {
    split: &'a DataSplit,
    operands: Operands,
    train_labels: Vec<usize>,
    val_labels: Vec<usize>,
}

/// One recording of the objective and its parameter gradients. What is
/// recorded depends only on the graph, the split and the parameter shapes, so
/// the same tape serves every epoch.
struct EpochTape {
    tape: Tape,
    params: Vec<Var>,
    train_loss: Var,
    /// `None` when the split has no validation nodes (the train loss stands in).
    val_loss: Option<Var>,
    grads: Vec<Var>,
}

/// What one epoch's forward and backward pass yields.
struct EpochOutcome {
    train_loss: f64,
    val_loss: f64,
    grads: Vec<Matrix>,
}

impl Objective<'_> {
    /// Records the losses at `model`'s parameters and the train loss's
    /// gradient with respect to each parameter.
    fn record(&self, model: &Gcn) -> EpochTape {
        let tape = Tape::new();
        let vars = model.insert_params(&tape);
        let n_classes = model.num_classes();
        let log_probs = self.operands.log_probs(&tape, model, &vars);
        let train_loss = nn::masked_nll(&tape, log_probs, &self.split.train, &self.train_labels, n_classes);
        let val_loss = (!self.split.val.is_empty())
            .then(|| nn::masked_nll(&tape, log_probs, &self.split.val, &self.val_labels, n_classes));
        let params = vars.to_vec();
        let grads = grad(&tape, train_loss, &params);
        EpochTape {
            tape,
            params,
            train_loss,
            val_loss,
            grads,
        }
    }
}

impl EpochTape {
    /// Re-evaluates the recording at `params`.
    fn replay_at(&self, params: &GcnParams) {
        for (&var, value) in self.params.iter().zip([&params.w1, &params.b1, &params.w2, &params.b2]) {
            self.tape.set_value(var, value);
        }
        self.tape.replay();
    }

    fn read(&self) -> EpochOutcome {
        let train_loss = self.tape.value_ref(self.train_loss).scalar();
        EpochOutcome {
            train_loss,
            val_loss: self.val_loss.map_or(train_loss, |v| self.tape.value_ref(v).scalar()),
            grads: self.grads.iter().map(|&g| self.tape.value(g)).collect(),
        }
    }
}

/// The training loop: Adam steps on the gradients `epoch_pass` computes at the
/// current parameters, with validation-based early stopping.
fn fit(
    graph: &Graph,
    split: &DataSplit,
    config: &TrainConfig,
    operands: Operands,
    mut epoch_pass: impl FnMut(&Objective, &Gcn) -> EpochOutcome,
) -> TrainedGcn {
    assert!(!split.train.is_empty(), "training split is empty");
    let _span = geattack_telemetry::span_labeled(
        geattack_telemetry::Level::Phase,
        "gnn.train",
        format!("n={} epochs<={}", graph.num_nodes(), config.epochs),
    );
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut model = Gcn::new(graph.num_features(), config.hidden, graph.num_classes(), &mut rng);
    let mut optimizer = Adam::new(config.lr).with_weight_decay(config.weight_decay);
    let objective = Objective {
        split,
        operands,
        train_labels: split.train.iter().map(|&i| graph.label(i)).collect(),
        val_labels: split.val.iter().map(|&i| graph.label(i)).collect(),
    };

    let mut history = Vec::with_capacity(config.epochs);
    let mut best_val = f64::INFINITY;
    let mut best_params = model.params().clone();
    let mut epochs_since_best = 0usize;

    for epoch in 0..config.epochs {
        let _epoch_span =
            geattack_telemetry::span_labeled(geattack_telemetry::Level::Detail, "gnn.epoch", epoch.to_string());
        let outcome = epoch_pass(&objective, &model);
        let mut param_values: Vec<Matrix> = model.params().to_vec();
        optimizer.step(&mut param_values, &outcome.grads);
        model.set_params(GcnParams::from_vec(param_values));

        history.push(EpochStats {
            epoch,
            train_loss: outcome.train_loss,
            val_loss: outcome.val_loss,
        });

        if outcome.val_loss < best_val - 1e-6 {
            best_val = outcome.val_loss;
            best_params = model.params().clone();
            epochs_since_best = 0;
        } else {
            epochs_since_best += 1;
            if let Some(p) = config.patience {
                if epochs_since_best >= p {
                    break;
                }
            }
        }
    }

    model.set_params(best_params);
    TrainedGcn { model, history }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::accuracy;
    use geattack_graph::datasets::{load, DatasetName};
    use geattack_graph::{stratified_split, FamilyConfig};

    #[test]
    fn training_reduces_loss_on_toy_dataset() {
        let cfg = FamilyConfig::new(0.08, 1);
        let graph = load(DatasetName::Cora, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let split = stratified_split(graph.labels(), graph.num_classes(), 0.1, 0.1, &mut rng);
        let trained = train(
            &graph,
            &split,
            &TrainConfig {
                epochs: 60,
                patience: None,
                ..Default::default()
            },
        );
        let first = trained.history.first().unwrap().train_loss;
        let last = trained.history.last().unwrap().train_loss;
        assert!(last < first * 0.7, "training loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn trained_gcn_beats_chance_on_test_nodes() {
        let cfg = FamilyConfig::new(0.1, 2);
        let graph = load(DatasetName::Citeseer, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let split = stratified_split(graph.labels(), graph.num_classes(), 0.1, 0.1, &mut rng);
        let trained = train(&graph, &split, &TrainConfig::default());
        let acc = accuracy(&trained.model, &graph, &split.test);
        let chance = 1.0 / graph.num_classes() as f64;
        assert!(
            acc > chance + 0.2,
            "test accuracy {acc:.3} barely above chance {chance:.3}"
        );
    }

    #[test]
    fn early_stopping_limits_epochs() {
        let cfg = FamilyConfig::new(0.08, 5);
        let graph = load(DatasetName::Acm, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let split = stratified_split(graph.labels(), graph.num_classes(), 0.1, 0.1, &mut rng);
        let trained = train(
            &graph,
            &split,
            &TrainConfig {
                epochs: 500,
                patience: Some(5),
                ..Default::default()
            },
        );
        assert!(trained.history.len() < 500, "early stopping never triggered");
    }

    #[test]
    fn sparse_training_is_bit_identical_to_dense_oracle() {
        let cfg = FamilyConfig::new(0.06, 12);
        let graph = load(DatasetName::Cora, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let split = stratified_split(graph.labels(), graph.num_classes(), 0.1, 0.1, &mut rng);
        let config = TrainConfig {
            epochs: 25,
            patience: Some(10),
            ..Default::default()
        };
        let sparse = train(&graph, &split, &config);
        let dense = train_dense_oracle(&graph, &split, &config);
        // Identical epoch count (identical early-stopping decisions), identical
        // loss curves and identical final parameters — to the bit.
        assert_eq!(sparse.history.len(), dense.history.len());
        for (a, b) in sparse.history.iter().zip(&dense.history) {
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
            assert_eq!(a.val_loss.to_bits(), b.val_loss.to_bits());
        }
        for (a, b) in sparse.model.params().to_vec().iter().zip(dense.model.params().to_vec()) {
            assert!(a.approx_eq(&b, 0.0), "sparse and dense training diverged");
        }
    }

    #[test]
    fn replayed_training_is_bit_identical_to_fresh_tapes() {
        let cfg = FamilyConfig::new(0.08, 5);
        let graph = load(DatasetName::Acm, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let split = stratified_split(graph.labels(), graph.num_classes(), 0.1, 0.1, &mut rng);
        let config = TrainConfig {
            epochs: 500,
            patience: Some(5),
            ..Default::default()
        };
        let replayed = train(&graph, &split, &config);
        let fresh = train_fresh_tapes(&graph, &split, &config);
        assert!(replayed.history.len() < config.epochs, "the run must stop early");
        assert_eq!(replayed.history.len(), fresh.history.len());
        for (a, b) in replayed.history.iter().zip(&fresh.history) {
            assert_eq!(a.epoch, b.epoch);
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
            assert_eq!(a.val_loss.to_bits(), b.val_loss.to_bits());
        }
        for (a, b) in replayed
            .model
            .params()
            .to_vec()
            .iter()
            .zip(fresh.model.params().to_vec())
        {
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(&b), "replayed and fresh-tape training diverged");
        }
    }

    #[test]
    fn training_is_deterministic_for_seed() {
        let cfg = FamilyConfig::new(0.06, 9);
        let graph = load(DatasetName::Cora, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let split = stratified_split(graph.labels(), graph.num_classes(), 0.1, 0.1, &mut rng);
        let config = TrainConfig {
            epochs: 20,
            patience: None,
            ..Default::default()
        };
        let a = train(&graph, &split, &config);
        let b = train(&graph, &split, &config);
        assert!(a.model.params().w1.approx_eq(&b.model.params().w1, 0.0));
        assert_eq!(a.history.len(), b.history.len());
    }
}
