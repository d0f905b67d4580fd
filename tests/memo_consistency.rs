//! Differential tests for the interning/memoization layer: the engine's
//! memoized exact paths must return **bit-identical** `Ratio` results to
//! the un-memoized oracles in `pfq::lang::reference` on every workload
//! family, including when one shared engine (hence one shared cache)
//! serves many repeated and interleaved queries. Exact rational mass is
//! merged commutatively, so any deviation is a real engine bug, not
//! noise.

use pfq::ctable::PcDatabase;
use pfq::data::Database;
use pfq::lang::exact_inflationary::ExactBudget;
use pfq::lang::exact_noninflationary::ChainBudget;
use pfq::lang::{
    reference, DatalogQuery, Engine, EvalRequest, ForeverQuery, StationaryMethod, Strategy,
};
use pfq::num::Ratio;
use pfq::workloads::coloring::ColoringMcmc;
use pfq::workloads::graphs::{walk_query, WeightedGraph};
use pfq::workloads::queue::BirthDeathQueue;
use pfq::workloads::sat::{theorem_4_1_pc, Cnf};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The engine's forced Prop 4.4 exact-tree path.
fn tree(engine: &mut Engine, q: &DatalogQuery, db: &Database) -> Ratio {
    let request = EvalRequest::inflationary(q, db).with_strategy(Strategy::ExactTree);
    engine.run(&request).unwrap().into_exact().unwrap()
}

/// The engine's forced exact-tree path over a pc-table input.
fn tree_pc(engine: &mut Engine, q: &DatalogQuery, input: &PcDatabase) -> Ratio {
    let request = EvalRequest::inflationary_pc(q, input).with_strategy(Strategy::ExactTree);
    engine.run(&request).unwrap().into_exact().unwrap()
}

/// The engine's forced Thm 5.5 exact-chain path.
fn chain(engine: &mut Engine, q: &ForeverQuery, db: &Database) -> Ratio {
    let request = EvalRequest::forever(q, db).with_strategy(Strategy::ExactChain);
    engine.run(&request).unwrap().into_exact().unwrap()
}

/// The un-memoized Thm 5.5 oracle under the default solver.
fn chain_oracle(q: &ForeverQuery, db: &Database) -> Ratio {
    reference::exact_chain(q, db, ChainBudget::default(), StationaryMethod::default()).unwrap()
}

/// Inflationary reachability over random and structured graphs: one
/// shared engine across every (graph, target) pair vs the oracle.
#[test]
fn differential_graph_reachability() {
    let mut rng = ChaCha8Rng::seed_from_u64(101);
    let mut graphs = vec![WeightedGraph::cycle(5), WeightedGraph::dumbbell(3)];
    for _ in 0..3 {
        graphs.push(WeightedGraph::erdos_renyi(5, 0.5, &mut rng));
    }
    let mut shared = Engine::new();
    for g in &graphs {
        let db = Database::new().with("E", g.edge_relation());
        for target in 0..g.n as i64 {
            let q = pfq::workloads::graphs::reachability_query(0, target);
            let oracle = reference::exact_tree(&q, &db, ExactBudget::default()).unwrap();
            let memoized = tree(&mut shared, &q, &db);
            assert_eq!(memoized, oracle, "graph n={} target={target}", g.n);
        }
    }
    assert!(shared.stats().engine_states > 0);
    // Each graph has one program fingerprint and one initial database,
    // so the per-target repeats all hit the whole-tree result memo.
    assert!(shared.stats().result_hits > 0);
}

/// Glauber-coloring long-run marginals (non-inflationary chains): the
/// interned chain vs the whole-database oracle chain.
#[test]
fn differential_coloring() {
    let cases = vec![
        ColoringMcmc::new(3, vec![(0, 1), (0, 2), (1, 2)], 4),
        ColoringMcmc::new(4, vec![(0, 1), (1, 2), (2, 3), (0, 3)], 3),
    ];
    let mut shared = Engine::new();
    for g in &cases {
        for vertex in 0..2 {
            let (q, db) = g.color_query(vertex, 0);
            let memoized = chain(&mut shared, &q, &db);
            assert_eq!(memoized, chain_oracle(&q, &db), "coloring vertex {vertex}");
        }
    }
    // Same kernel across the per-vertex queries ⇒ rows were reused.
    assert!(shared.stats().kernel_hits > 0);
}

/// Birth–death queue stationary probabilities, also checked against the
/// closed form.
#[test]
fn differential_queue() {
    let queue = BirthDeathQueue::new(3, 2, 3, 2);
    let closed_form = queue.stationary_reference();
    let mut shared = Engine::new();
    for k in 0..=3i64 {
        let (q, db) = queue.length_query(0, k);
        let memoized = chain(&mut shared, &q, &db);
        assert_eq!(memoized, chain_oracle(&q, &db), "queue length {k}");
        assert_eq!(memoized, closed_form[k as usize], "closed form, length {k}");
    }
}

/// The Theorem 4.1 3-SAT pc-tables: every possible world of each
/// pc-table runs through one shared engine, and the mixture must still
/// equal both the oracle answer and the model-counting identity.
#[test]
fn differential_pc_table_sat() {
    let mut rng = ChaCha8Rng::seed_from_u64(107);
    let mut shared = Engine::new();
    for _ in 0..3 {
        let f = Cnf::random(4, 3, &mut rng);
        let (query, input) = theorem_4_1_pc(&f);
        let oracle = reference::exact_tree_pc(&query, &input, ExactBudget::default()).unwrap();
        let memoized = tree_pc(&mut shared, &query, &input);
        assert_eq!(memoized, oracle);
        assert_eq!(memoized, Ratio::new(f.count_satisfying() as i64, 16));
    }
}

/// Repeated and interleaved queries against one shared engine: answers
/// never drift as the cache warms, whatever order the evaluators are hit
/// in — and warm repeats are served from the result memo.
#[test]
fn interleaved_queries_on_one_shared_cache() {
    let g = WeightedGraph::dumbbell(3);
    let reach_db = Database::new().with("E", g.edge_relation());
    let (walk_q, walk_db) = walk_query(&g, 0, 4);
    let reach_q = pfq::workloads::graphs::reachability_query(0, 4);

    let oracle_reach = reference::exact_tree(&reach_q, &reach_db, ExactBudget::default()).unwrap();
    let oracle_walk = chain_oracle(&walk_q, &walk_db);

    let mut shared = Engine::new();
    for round in 0..3 {
        let reach = tree(&mut shared, &reach_q, &reach_db);
        let walk = chain(&mut shared, &walk_q, &walk_db);
        assert_eq!(reach, oracle_reach, "round {round}");
        assert_eq!(walk, oracle_walk, "round {round}");
    }
    let stats = shared.stats();
    assert_eq!(stats.result_misses, 1, "one cold inflationary traversal");
    assert_eq!(stats.result_hits, 2, "two warm repeats");
    assert!(stats.kernel_hits >= 2 * stats.kernel_misses, "{stats:?}");
}

/// Regression for the node-budget off-by-one: `Some(limit)` admits
/// exactly `limit` tree nodes — fixpoint leaves included — on both the
/// memoized engine path and the oracle.
#[test]
fn node_budget_boundary_is_exact_on_both_paths() {
    // Deterministic transitive closure on a 2-edge path: the tree is a
    // single chain of exactly 3 nodes (2 expansions + 1 fixpoint leaf).
    let db = Database::new().with(
        "E",
        pfq::data::Relation::from_rows(
            pfq::data::Schema::new(["i", "j"]),
            [pfq::data::tuple![1, 2], pfq::data::tuple![2, 3]],
        ),
    );
    let program =
        pfq::datalog::parse_program("T(X, Y) :- E(X, Y).\nT(X, Z) :- T(X, Y), E(Y, Z).").unwrap();
    let q = DatalogQuery::new(
        program,
        pfq::lang::Event::tuple_in("T", pfq::data::tuple![1, 3]),
    );
    let budget = |nodes| ExactBudget {
        node_budget: Some(nodes),
        world_budget: None,
    };
    let engine = |nodes| {
        Engine::new().run(
            &EvalRequest::inflationary(&q, &db)
                .with_strategy(Strategy::ExactTree)
                .with_exact_budget(budget(nodes)),
        )
    };
    assert!(engine(3).unwrap().into_exact().unwrap().is_one());
    assert!(reference::exact_tree(&q, &db, budget(3)).unwrap().is_one());
    assert!(engine(2).is_err());
    assert!(reference::exact_tree(&q, &db, budget(2)).is_err());
}
