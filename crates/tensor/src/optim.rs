//! First-order optimizers over lists of parameter matrices.
//!
//! Parameters live outside the tape as plain [`Matrix`] values; a training step
//! records a tape (or replays a recorded one at the current parameters, see
//! [`crate::tape`]), reads the gradients out and hands them to one of these
//! optimizers.

use crate::matrix::Matrix;

/// Interface shared by all optimizers.
pub trait Optimizer {
    /// Applies one update step. `params` and `grads` must have matching lengths and
    /// per-entry shapes.
    fn step(&mut self, params: &mut [Matrix], grads: &[Matrix]);

    /// Resets any internal state (moment estimates, step counters).
    fn reset(&mut self);
}

/// Plain stochastic gradient descent with optional weight decay.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
    /// L2 weight-decay coefficient applied to the gradient.
    pub weight_decay: f64,
}

impl Sgd {
    /// Creates an SGD optimizer with the given learning rate and no weight decay.
    pub fn new(lr: f64) -> Self {
        Self { lr, weight_decay: 0.0 }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [Matrix], grads: &[Matrix]) {
        assert_eq!(params.len(), grads.len(), "sgd: param/grad count mismatch");
        for (p, g) in params.iter_mut().zip(grads.iter()) {
            assert_eq!(p.shape(), g.shape(), "sgd: shape mismatch");
            for (pv, gv) in p.as_mut_slice().iter_mut().zip(g.as_slice().iter()) {
                *pv -= self.lr * (gv + self.weight_decay * *pv);
            }
        }
    }

    fn reset(&mut self) {}
}

/// Adam optimizer (Kingma & Ba, 2015) with optional weight decay, matching the
/// defaults used by the PyTorch reference implementations of GCN and GNNExplainer.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical-stability epsilon.
    pub eps: f64,
    /// L2 weight-decay coefficient applied to the gradient.
    pub weight_decay: f64,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Creates an Adam optimizer with standard hyper-parameters
    /// (`beta1=0.9`, `beta2=0.999`, `eps=1e-8`).
    pub fn new(lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Sets the weight-decay coefficient (builder style).
    pub fn with_weight_decay(mut self, weight_decay: f64) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [Matrix], grads: &[Matrix]) {
        assert_eq!(params.len(), grads.len(), "adam: param/grad count mismatch");
        if self.m.is_empty() {
            self.m = params.iter().map(|p| Matrix::zeros(p.rows(), p.cols())).collect();
            self.v = params.iter().map(|p| Matrix::zeros(p.rows(), p.cols())).collect();
        }
        assert_eq!(
            self.m.len(),
            params.len(),
            "adam: state/param count mismatch (call reset after changing parameter set)"
        );
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for (((p, g), m), v) in params
            .iter_mut()
            .zip(grads.iter())
            .zip(self.m.iter_mut())
            .zip(self.v.iter_mut())
        {
            assert_eq!(p.shape(), g.shape(), "adam: shape mismatch");
            for i in 0..p.len() {
                let gv = g.as_slice()[i] + self.weight_decay * p.as_slice()[i];
                let mv = self.beta1 * m.as_slice()[i] + (1.0 - self.beta1) * gv;
                let vv = self.beta2 * v.as_slice()[i] + (1.0 - self.beta2) * gv * gv;
                m.as_mut_slice()[i] = mv;
                v.as_mut_slice()[i] = vv;
                let m_hat = mv / b1t;
                let v_hat = vv / b2t;
                p.as_mut_slice()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn reset(&mut self) {
        self.t = 0;
        self.m.clear();
        self.v.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad::grad_values;
    use crate::tape::Tape;

    /// Minimize sum((x - target)^2) and confirm convergence.
    fn optimize(opt: &mut dyn Optimizer, steps: usize) -> f64 {
        let target = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, 0.5]);
        let mut params = vec![Matrix::zeros(2, 2)];
        let mut last = f64::INFINITY;
        for _ in 0..steps {
            let tape = Tape::new();
            let x = tape.input(params[0].clone());
            let t = tape.constant(target.clone());
            let d = tape.sub(x, t);
            let loss = tape.sum_all(tape.mul(d, d));
            last = tape.value(loss).scalar();
            let g = grad_values(&tape, loss, &[x]);
            opt.step(&mut params, &g);
        }
        last
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        assert!(optimize(&mut opt, 200) < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        assert!(optimize(&mut opt, 500) < 1e-4);
    }

    #[test]
    fn adam_step_counter_and_reset() {
        let mut opt = Adam::new(0.01);
        let mut params = vec![Matrix::ones(1, 1)];
        let grads = vec![Matrix::ones(1, 1)];
        opt.step(&mut params, &grads);
        opt.step(&mut params, &grads);
        assert_eq!(opt.steps(), 2);
        opt.reset();
        assert_eq!(opt.steps(), 0);
    }

    #[test]
    fn sgd_weight_decay_shrinks_params() {
        let mut opt = Sgd {
            lr: 0.1,
            weight_decay: 1.0,
        };
        let mut params = vec![Matrix::ones(1, 1)];
        let grads = vec![Matrix::zeros(1, 1)];
        opt.step(&mut params, &grads);
        assert!(params[0][(0, 0)] < 1.0);
    }

    #[test]
    #[should_panic(expected = "param/grad count mismatch")]
    fn mismatched_lengths_panic() {
        let mut opt = Sgd::new(0.1);
        let mut params = vec![Matrix::ones(1, 1)];
        opt.step(&mut params, &[]);
    }
}
