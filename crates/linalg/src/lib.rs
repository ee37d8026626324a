//! Minimal dense linear algebra for the burstiness-aware consolidation stack.
//!
//! The paper's MapCal algorithm (Algorithm 1, step 3) solves the
//! stationary-distribution system `ΠP = Π, Σπᵢ = 1` — a dense linear
//! solve performed here by [Gaussian elimination with partial
//! pivoting](solve::solve). Production MapCal reads the same law off a
//! closed-form binomial; this solve is the oracle it is checked against.
//!
//! Matrices are small (`(d+1)×(d+1)` with `d ≤ a few hundred`), so a simple
//! row-major dense representation is the right tool; no external linear
//! algebra dependency is needed.

mod matrix;
mod solve;
mod stationary;

pub use matrix::Matrix;
pub use solve::{solve, LinalgError};
pub use stationary::stationary_distribution;
