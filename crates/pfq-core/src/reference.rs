//! Reference oracles: the un-memoized exact evaluators.
//!
//! Never called by [`Engine`](crate::Engine); oracles for tests, the
//! fuzzer and benches. Each function is the paper's algorithm written
//! the plainest way — no interning, no memo, no planner — so that a bug
//! in the engine's memoized paths cannot also hide here:
//!
//! * [`exact_tree`] / [`exact_tree_pc`]: Prop. 4.4 over
//!   [`enumerate_fixpoints`], which keys the computation tree on whole
//!   engine states;
//! * [`exact_chain`]: Thm. 5.5 over [`build_chain`], which keys the chain
//!   on whole `Database` values, solved by
//!   [`long_run_distribution_with`](pfq_markov::absorption::long_run_distribution_with).
//!
//! The engine's answers must equal these bit for bit (exact rational
//! mass merges commutatively); `tests/memo_consistency.rs` and
//! `tests/engine_differential.rs` pin that.

use crate::exact_inflationary::{mix_worlds, ExactBudget};
use crate::exact_noninflationary::{build_chain, event_mass, ChainBudget};
use crate::{CoreError, DatalogQuery, ForeverQuery};
use pfq_ctable::PcDatabase;
use pfq_data::Database;
use pfq_datalog::inflationary::enumerate_fixpoints;
use pfq_markov::StationaryMethod;
use pfq_num::Ratio;

/// Prop. 4.4 exact inflationary evaluation over a certain database.
pub fn exact_tree(
    query: &DatalogQuery,
    db: &Database,
    budget: ExactBudget,
) -> Result<Ratio, CoreError> {
    let fixpoints = enumerate_fixpoints(&query.program, db, budget.node_budget)?;
    Ok(fixpoints.probability_that(|db| query.event.holds(db)))
}

/// Prop. 4.4 over a pc-table input: [`exact_tree`] in every possible
/// world, mixed by the worlds' probabilities (§3.2).
pub fn exact_tree_pc(
    query: &DatalogQuery,
    input: &PcDatabase,
    budget: ExactBudget,
) -> Result<Ratio, CoreError> {
    mix_worlds(input, budget, |world| exact_tree(query, world, budget))
}

/// Thm. 5.5 exact non-inflationary evaluation: the long-run probability
/// of the event on the explicit chain of database instances from `db`.
pub fn exact_chain(
    query: &ForeverQuery,
    db: &Database,
    budget: ChainBudget,
    method: StationaryMethod,
) -> Result<Ratio, CoreError> {
    let chain = build_chain(query, db, budget)?;
    event_mass(&chain, db, method, |state| query.event.holds(state))
}
