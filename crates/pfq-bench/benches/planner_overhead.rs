//! Planner overhead benchmark: the engine's auto-planned request →
//! plan → execute pipeline versus the same queries under a forced
//! exact-tree strategy (which skips the planner's probe), plus a direct
//! measurement of bare plan construction.
//!
//! The answers are first checked against the un-memoized
//! `reference::exact_tree_pc` oracle. One claim is asserted: bare
//! `Engine::plan` construction costs **< 1%** of the evaluation it
//! steers (the planner's probes are cached alongside the results).
//!
//! Run with `cargo bench -p pfq-bench --bench planner_overhead`; pass
//! `-- --smoke` for the tiny CI configuration.

use pfq_bench::{fmt_duration, print_table, time_median};
use pfq_core::exact_inflationary::ExactBudget;
use pfq_core::{reference, DatalogQuery, Engine, EvalRequest, Event, Strategy};
use pfq_data::tuple;
use pfq_num::Ratio;
use pfq_workloads::sat::{theorem_4_1_pc, Cnf};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, m, runs, plan_iters) = if smoke { (4, 4, 1, 50) } else { (6, 6, 3, 200) };
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let (f, _) = Cnf::random_satisfiable(n, m, &mut rng);
    let (base, input) = theorem_4_1_pc(&f);
    let budget = ExactBudget::default();

    let mut queries = vec![base.clone()];
    for k in 1..=m as i64 {
        queries.push(DatalogQuery::new(
            base.program.clone(),
            Event::tuple_in("R", tuple![k]),
        ));
    }
    let requests: Vec<EvalRequest<'_>> = queries
        .iter()
        .map(|q| EvalRequest::inflationary_pc(q, &input))
        .collect();

    let forced: Vec<EvalRequest<'_>> = requests
        .iter()
        .map(|r| r.clone().with_strategy(Strategy::ExactTree))
        .collect();
    let engine_run = |engine: &mut Engine, requests: &[EvalRequest<'_>]| -> Vec<Ratio> {
        requests
            .iter()
            .map(|r| engine.run(r).unwrap().into_exact().unwrap())
            .collect()
    };

    // Correctness first: the engine pipeline must reproduce the
    // reference answers bit for bit.
    let via_engine = engine_run(&mut Engine::new(), &requests);
    let via_reference: Vec<Ratio> = queries
        .iter()
        .map(|q| reference::exact_tree_pc(q, &input, budget).unwrap())
        .collect();
    assert_eq!(
        via_engine, via_reference,
        "engine and reference answers diverged"
    );

    let t_forced = time_median(runs, || engine_run(&mut Engine::new(), &forced));
    let t_engine = time_median(runs, || engine_run(&mut Engine::new(), &requests));

    // Bare plan construction on a warm engine — the steady state a
    // multi-query `.pfq` file sees after its first evaluation.
    let mut warm = Engine::new();
    engine_run(&mut warm, &requests);
    let t_plans = time_median(runs, || {
        for _ in 0..plan_iters {
            for r in &requests {
                warm.plan(r).unwrap();
            }
        }
    });
    let per_plan = t_plans / (plan_iters as u32);
    let plan_share = per_plan.as_secs_f64() / t_engine.as_secs_f64();

    print_table(
        &format!(
            "Planner overhead (3-SAT n={n}, m={m}, {} queries)",
            queries.len()
        ),
        &["path", "median wall-clock", "vs forced"],
        &[
            vec![
                "forced exact-tree (no probe)".into(),
                fmt_duration(t_forced),
                "1.00×".into(),
            ],
            vec![
                "engine plan+execute".into(),
                fmt_duration(t_engine),
                format!("{:.2}×", t_engine.as_secs_f64() / t_forced.as_secs_f64()),
            ],
            vec![
                "bare planning (all queries)".into(),
                fmt_duration(per_plan),
                format!("{:.3}% of engine run", plan_share * 100.0),
            ],
        ],
    );

    assert!(
        plan_share < 0.01,
        "plan construction cost {:.3}% of an engine run — expected < 1%",
        plan_share * 100.0
    );
}
