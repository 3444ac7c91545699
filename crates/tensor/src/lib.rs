//! # geattack-tensor
//!
//! Dense matrices and a small, eager, reverse-mode automatic-differentiation engine
//! with **double-backward** support — the numerical substrate for the GEAttack
//! reproduction.
//!
//! The engine records every operation on a [`tape::Tape`]; gradients produced by
//! [`grad::grad`] are themselves tape expressions, so they can be differentiated
//! again. GEAttack needs exactly this: its outer gradient with respect to the
//! adjacency matrix flows through the explainer's inner gradient-descent updates
//! (Eq. 6–8 of the paper), i.e. a gradient of a function of a gradient.
//!
//! A recorded tape can also be re-run: [`Tape::set_value`] overwrites an input
//! and [`Tape::replay`] re-evaluates every node in place, bit-identical to a
//! fresh recording (see [`tape`] for the rule a replayed program must follow).
//!
//! ## Example
//!
//! ```
//! use geattack_tensor::{Matrix, Tape, grad::grad};
//!
//! let tape = Tape::new();
//! let x = tape.input(Matrix::row_vector(&[1.0, 2.0, 3.0]));
//! let y = tape.sum_all(tape.mul(x, x));          // f(x) = Σ x²
//! let dx = grad(&tape, y, &[x])[0];              // df/dx = 2x (still differentiable)
//! assert!(tape.value(dx).approx_eq(&Matrix::row_vector(&[2.0, 4.0, 6.0]), 1e-12));
//! ```

pub mod grad;
pub mod init;
mod kernels;
pub mod matrix;
pub mod nn;
pub mod optim;
pub mod sparse;
pub mod tape;

pub use grad::{grad, grad_full, grad_values};
pub use matrix::Matrix;
pub use optim::{Adam, Optimizer, Sgd};
pub use sparse::SparseMatrix;
pub use tape::{SparseVar, Tape, Var};
