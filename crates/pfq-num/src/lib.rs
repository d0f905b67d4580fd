#![warn(missing_docs)]

//! Exact arithmetic for probabilistic query evaluation: machine words
//! where values fit, arbitrary precision where they do not.
//!
//! The PODS 2010 paper defines probabilistic databases with *positive
//! rational* world weights, and its exact-evaluation algorithms
//! (computation-tree traversal, stationary distributions via Gaussian
//! elimination) multiply and add many such weights. Products like `1/2^n`
//! underflow floats and overflow fixed-width rationals almost immediately,
//! so this crate provides, from scratch:
//!
//! * [`BigUint`] — arbitrary-precision unsigned integers (little-endian
//!   base-2⁶⁴ limbs, Knuth Algorithm D division, binary GCD),
//! * [`BigInt`] — signed wrapper,
//! * [`Ratio`] — always-normalized exact rationals with total order and
//!   hashing, the probability type used throughout the workspace.
//!
//! Most probabilities the engine computes are small fractions, so a
//! [`Ratio`] has two representations: a value whose reduced numerator
//! magnitude is at most `i64::MAX` and whose denominator fits a `u64` is
//! stored inline and computed on in native `u64`/`i128`/`u128`
//! arithmetic without allocating; any other value, or any operation whose
//! intermediate overflows, uses the big integers above. Results are
//! demoted back to the inline form whenever they fit, so each value has
//! exactly one representation and the split never shows in `Eq`, `Hash`,
//! `Ord` or `Display`.
//!
//! The API is deliberately minimal: only the operations the query engine
//! needs, all exact, all deterministic.

pub mod bigint;
pub mod biguint;
pub mod dist;
pub mod ratio;

pub use bigint::{BigInt, Sign};
pub use biguint::BigUint;
pub use dist::Distribution;
pub use ratio::Ratio;
