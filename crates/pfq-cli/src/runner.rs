//! Executing (and planning) the queries of a parsed `.pfq` file.
//!
//! Every directive becomes one [`EvalRequest`]: the constructor for its
//! [`Family`], then its [`Strategy`], ε, δ and seed, then the file-wide
//! [`RunOptions`]. One [`Engine`] serves a whole file, so exact queries
//! share interned states and memoized transition rows across
//! directives. [`run`] executes each request and renders the result
//! line from the plan that ran; [`plan`] asks the planner what it
//! *would* choose and renders the explainable plan tree without
//! executing anything.

use crate::format::{Family, PfqFile, Query};
use pfq_core::engine::{Engine, EvalOutcome, EvalRequest, PlanAction, Strategy};
use pfq_core::sampler::SampleReport;
use pfq_core::{CoreError, DatalogQuery, Event, ForeverQuery};
use std::error::Error;

/// Execution options applying to every query in a file. Every field is
/// public; construct with struct-update syntax:
///
/// ```
/// # use pfq_cli::RunOptions;
/// let options = RunOptions {
///     threads: 2,
///     stats: true,
///     ..RunOptions::default()
/// };
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Worker threads for the sampling engine; `0` = one per core.
    pub threads: usize,
    /// When set, overrides the `seed …` clause of every query —
    /// rerunning a file with the same `--seed` reproduces every
    /// estimate bit for bit, at any thread count.
    pub seed: Option<u64>,
    /// Disables adaptive early stopping (always draw the full
    /// Hoeffding worst case).
    pub no_adaptive: bool,
    /// Report evaluation-cache statistics after each query. The stats
    /// are cumulative over the file: one cache is shared by every exact
    /// query, so later queries show the reuse earlier ones seeded.
    pub stats: bool,
    /// Attach the executed plan tree to every result (`--explain`).
    pub explain: bool,
}

/// The result of one query: the directive echoed back plus the value.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// The `@query …` directive as written.
    pub directive: String,
    /// A human-readable result line.
    pub value: String,
    /// Cumulative cache statistics after this query (with
    /// [`RunOptions::stats`]); deterministic — no wall times.
    pub stats: Option<String>,
    /// The executed plan tree (with [`RunOptions::explain`]);
    /// deterministic — no wall times.
    pub plan: Option<String>,
}

/// Renders results in the CLI's output format: each directive echoed
/// back, the indented result line, then (under `--explain`) the indented
/// plan tree and (under `--stats`) an indented `cache:` line.
pub fn render_results(results: &[QueryResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&r.directive);
        out.push('\n');
        out.push_str("  ");
        out.push_str(&r.value);
        out.push('\n');
        if let Some(plan) = &r.plan {
            push_indented(&mut out, plan.lines());
        }
        if let Some(stats) = &r.stats {
            out.push_str("  cache: ");
            out.push_str(stats);
            out.push('\n');
        }
    }
    out
}

/// Appends each line indented by two spaces.
fn push_indented<S: AsRef<str>>(out: &mut String, lines: impl IntoIterator<Item = S>) {
    for line in lines {
        out.push_str("  ");
        out.push_str(line.as_ref());
        out.push('\n');
    }
}

/// Renders a sampling report in the CLI's result-line format. The
/// `p ≈ <value> (…` prefix is stable; stats after it are informative.
fn format_report(report: &SampleReport, detail: std::fmt::Arguments<'_>) -> String {
    let early = if report.stopped_early {
        format!(", stopped early of {}", report.worst_case)
    } else {
        String::new()
    };
    format!(
        "p ≈ {:.6} ({} samples, {detail}{early}; {:.1} ms on {} thread{})",
        report.estimate,
        report.samples,
        report.wall.as_secs_f64() * 1e3,
        report.threads,
        if report.threads == 1 { "" } else { "s" },
    )
}

/// The result line of an outcome, rendered from the plan that ran: its
/// action names the algorithm and carries ε, δ, burn-in and steps.
fn result_line(outcome: &EvalOutcome) -> String {
    let p = &outcome.value;
    match (&outcome.plan.action, &outcome.report) {
        (PlanAction::ExactTree { .. }, _) => format!("p = {p} (= {:.6}, exact)", p.to_f64()),
        (PlanAction::ExactChain { .. } | PlanAction::Partitioned { .. }, _) => {
            format!("p = {p} (= {:.6}, exact long-run)", p.to_f64())
        }
        (PlanAction::TimeAverage { steps, .. }, _) => {
            format!("p ≈ {:.6} (time average over {steps} steps)", p.to_f64())
        }
        (PlanAction::SampleFixpoint { epsilon, delta, .. }, Some(report)) => {
            format_report(report, format_args!("ε = {epsilon}, δ = {delta}"))
        }
        (
            PlanAction::BurnInSample {
                burn_in,
                epsilon,
                delta,
                ..
            },
            Some(report),
        ) => format_report(
            report,
            format_args!("burn-in {burn_in}, ε = {epsilon}, δ = {delta}"),
        ),
        (PlanAction::SampleFixpoint { .. } | PlanAction::BurnInSample { .. }, None) => {
            format!("p ≈ {:.6}", p.to_f64())
        }
    }
}

/// Builds the request `query` maps to and hands it to `eval`. With
/// `auto` set (the `pfq plan` view), exact and sample directives leave
/// the strategy to the planner; `time-average` and `burn-in N` always
/// pin their algorithm.
fn with_request<T>(
    file: &PfqFile,
    query: &Query,
    options: &RunOptions,
    auto: bool,
    eval: impl FnOnce(&EvalRequest<'_>) -> Result<T, CoreError>,
) -> Result<T, Box<dyn Error>> {
    let event = Event::tuple_in(query.relation.clone(), query.tuple.clone());
    let program = || {
        file.program
            .clone()
            .ok_or_else(|| format!("{} queries need an @program block", query.family))
    };
    let datalog;
    let forever;
    let request = match query.family {
        Family::Inflationary => {
            datalog = DatalogQuery::new(program()?, event);
            EvalRequest::inflationary(&datalog, &file.database)
        }
        Family::Noninflationary => {
            datalog = DatalogQuery::new(program()?, event);
            EvalRequest::noninflationary(&datalog, &file.database)
        }
        Family::Kernel => {
            let kernels = file
                .kernels
                .clone()
                .ok_or("kernel queries need @kernel directives")?;
            forever = ForeverQuery::new(kernels, event);
            EvalRequest::forever(&forever, &file.database)
        }
    };
    let strategy = match query.strategy {
        Strategy::ExactTree | Strategy::SampleFixpoint | Strategy::ExactChain if auto => {
            Strategy::Auto
        }
        strategy => strategy,
    };
    let request = request
        .with_strategy(strategy)
        .with_epsilon_delta(query.epsilon, query.delta)
        .with_seed(options.seed.unwrap_or(query.seed))
        .with_threads(options.threads)
        .with_adaptive(!options.no_adaptive);
    Ok(eval(&request)?)
}

/// Runs every query of a parsed file on one [`Engine`] (hence one
/// cache); results come back in file order.
pub fn run(file: &PfqFile, options: &RunOptions) -> Result<Vec<QueryResult>, Box<dyn Error>> {
    let mut engine = Engine::new();
    file.queries
        .iter()
        .map(|query| {
            let outcome = with_request(file, query, options, false, |r| engine.run(r))?;
            Ok(QueryResult {
                directive: query.source.clone(),
                value: result_line(&outcome),
                stats: options.stats.then(|| outcome.stats.to_string()),
                plan: options.explain.then(|| outcome.plan.to_string()),
            })
        })
        .collect()
}

/// Plans every query of a parsed file without executing anything,
/// rendering each directive with its indented plan tree — the `pfq plan`
/// view. Exact and sample directives are planned with
/// [`Strategy::Auto`], so the output shows the planner's eligibility
/// analysis (a sample directive over a small computation tree plans as
/// exact-tree, a negation-free non-inflationary query as §5.1
/// partitioning, …); `time-average` and `burn-in N` directives pin
/// their algorithm. The rendering is deterministic — no wall times.
pub fn plan(file: &PfqFile, options: &RunOptions) -> Result<String, Box<dyn Error>> {
    let mut engine = Engine::new();
    let mut out = String::new();
    for query in &file.queries {
        let plan = with_request(file, query, options, true, |r| engine.plan(r))?;
        out.push_str(&query.source);
        out.push('\n');
        push_indented(&mut out, plan.lines());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::parse_file;

    fn run_src(src: &str, options: &RunOptions) -> Result<Vec<QueryResult>, Box<dyn Error>> {
        run(&parse_file(src)?, options)
    }

    fn plan_src(src: &str) -> String {
        plan(&parse_file(src).unwrap(), &RunOptions::default()).unwrap()
    }

    const FORK: &str = r#"
@relation E(i, j, p) {
  (v, w, 1/2)
  (v, u, 1/2)
}
@program {
  C(v).
  C2(X!, Y) @P :- C(X), E(X, Y, P).
  C(Y) :- C2(X, Y).
}
@query inflationary exact event C(w)
@query inflationary sample epsilon 0.05 delta 0.05 seed 1 event C(w)
"#;

    #[test]
    fn inflationary_modes_run() {
        let results = run_src(FORK, &RunOptions::default()).unwrap();
        assert_eq!(results.len(), 2);
        assert!(
            results[0].value.starts_with("p = 1/2"),
            "{}",
            results[0].value
        );
        // The sampled estimate is near 0.5.
        let est: f64 = results[1]
            .value
            .split(['≈', '('])
            .nth(1)
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!((est - 0.5).abs() < 0.05, "{est}");
    }

    #[test]
    fn noninflationary_modes_run() {
        let src = r#"
@relation E(i, j, p) {
  (0, 1, 1)
  (1, 0, 1)
  (1, 1, 1)
}
@relation C(c0) {
  (0)
}
@program {
  C(Y) @P :- C(X), E(X, Y, P).
}
@query noninflationary exact event C(1)
@query noninflationary time-average steps 20000 seed 2 event C(1)
@query noninflationary burn-in 50 epsilon 0.1 delta 0.05 seed 2 event C(1)
"#;
        let results = run_src(src, &RunOptions::default()).unwrap();
        assert_eq!(results.len(), 3);
        // Walk: 0 → 1; 1 → {0, 1} uniformly. π(1) = 2/3.
        assert!(
            results[0].value.starts_with("p = 2/3"),
            "{}",
            results[0].value
        );
        for r in &results[1..] {
            let est: f64 = r
                .value
                .split(['≈', '('])
                .nth(1)
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            assert!((est - 2.0 / 3.0).abs() < 0.1, "{}", r.value);
        }
    }

    #[test]
    fn zero_ary_event() {
        let src = r#"
@relation R(a, b) {
  (1, 2)
  (2, 1)
}
@program {
  Done :- R(X, Y), R(Y, X).
}
@query inflationary exact event Done
"#;
        let results = run_src(src, &RunOptions::default()).unwrap();
        assert!(
            results[0].value.starts_with("p = 1 "),
            "{}",
            results[0].value
        );
    }

    #[test]
    fn kernel_queries_run() {
        // The Example 3.3 walk written as a raw @kernel: π(1) = 2/3 on
        // the lazy 2-state chain.
        let src = r#"
@relation E(i, j, p) {
  (0, 1, 1)
  (1, 0, 1)
  (1, 1, 1)
}
@relation C(i) {
  (0)
}
@kernel C := rename[j -> i](project[j](repair-key[i @ p]((C join E))))
@query kernel exact event C(1)
@query kernel time-average steps 20000 seed 3 event C(1)
@query kernel burn-in 50 epsilon 0.1 delta 0.05 seed 3 event C(1)
"#;
        let results = run_src(src, &RunOptions::default()).unwrap();
        assert_eq!(results.len(), 3);
        assert!(
            results[0].value.starts_with("p = 2/3"),
            "{}",
            results[0].value
        );
        for r in &results[1..] {
            let est: f64 = r
                .value
                .split(['≈', '('])
                .nth(1)
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            assert!((est - 2.0 / 3.0).abs() < 0.1, "{}", r.value);
        }
    }

    #[test]
    fn kernel_query_without_kernels_errors() {
        let src = "@program {\nC(1).\n}\n@query kernel exact event C(1)";
        let err = run_src(src, &RunOptions::default())
            .unwrap_err()
            .to_string();
        assert!(err.contains("@kernel"), "{err}");
        // And datalog queries without a program error too.
        let src = "@kernel C := project[i](C)\n@query inflationary exact event C(1)";
        let err = run_src(src, &RunOptions::default())
            .unwrap_err()
            .to_string();
        assert!(err.contains("@program"), "{err}");
    }

    #[test]
    fn bad_files_error_cleanly() {
        assert!(run_src(
            "@program {\nC(X) :- Missing(X).\n}\n@query inflationary exact event C(1)",
            &RunOptions::default()
        )
        .is_err());
        assert!(run_src("no directives", &RunOptions::default()).is_err());
    }

    #[test]
    fn options_reproduce_estimates_across_thread_counts() {
        let one = RunOptions {
            threads: 1,
            seed: Some(99),
            ..RunOptions::default()
        };
        let four = RunOptions {
            threads: 4,
            ..one.clone()
        };
        let a = run_src(FORK, &one).unwrap();
        let b = run_src(FORK, &four).unwrap();
        // The sampled line is identical up to the wall-time stat.
        let head = |v: &str| v.split(';').next().unwrap().to_string();
        assert_eq!(head(&a[1].value), head(&b[1].value), "\n{a:?}\n{b:?}");
    }

    #[test]
    fn no_adaptive_draws_full_hoeffding_count() {
        let options = RunOptions {
            no_adaptive: true,
            ..RunOptions::default()
        };
        let results = run_src(FORK, &options).unwrap();
        // ε = δ = 0.05 → m = ⌈ln(40)/0.005⌉ = 738 samples, never fewer.
        assert!(
            results[1].value.contains("738 samples"),
            "{}",
            results[1].value
        );
        assert!(!results[1].value.contains("stopped early"));
    }

    #[test]
    fn stats_lines_are_attached_and_deterministic() {
        let src = r#"
@relation E(i, j, p) {
  (v, w, 1/2)
  (v, u, 1/2)
}
@program {
  C(v).
  C2(X!, Y) @P :- C(X), E(X, Y, P).
  C(Y) :- C2(X, Y).
}
@query inflationary exact event C(w)
@query inflationary exact event C(u)
"#;
        let options = RunOptions {
            stats: true,
            ..RunOptions::default()
        };
        let a = run_src(src, &options).unwrap();
        let b = run_src(src, &options).unwrap();
        assert_eq!(a, b, "stats output must be deterministic");
        let first = a[0].stats.as_deref().unwrap();
        let second = a[1].stats.as_deref().unwrap();
        // The second query re-runs the same program on the same input:
        // it is served from the whole-tree result memo.
        assert!(first.contains("results 0 hit / 1 miss"), "{first}");
        assert!(second.contains("results 1 hit / 1 miss"), "{second}");
        // Rendering includes the stats lines; without --stats it doesn't.
        assert!(render_results(&a).contains("  cache: states "));
        let plain = run_src(src, &RunOptions::default()).unwrap();
        assert_eq!(plain[0].stats, None);
        assert!(!render_results(&plain).contains("cache:"));
    }

    #[test]
    fn explain_attaches_the_executed_plan() {
        let options = RunOptions {
            explain: true,
            ..RunOptions::default()
        };
        let results = run_src(FORK, &options).unwrap();
        let exact_plan = results[0].plan.as_deref().unwrap();
        assert!(exact_plan.starts_with("plan: exact-tree"), "{exact_plan}");
        assert!(exact_plan.contains("strategy fixed by caller"));
        let sample_plan = results[1].plan.as_deref().unwrap();
        assert!(
            sample_plan.starts_with("plan: sample-fixpoint"),
            "{sample_plan}"
        );
        // Rendering indents every plan line under the directive.
        assert!(render_results(&results).contains("\n  plan: exact-tree"));
        // Without --explain, no plan is attached.
        assert_eq!(run_src(FORK, &RunOptions::default()).unwrap()[0].plan, None);
    }

    #[test]
    fn plan_shows_auto_analysis() {
        let rendered = plan_src(FORK);
        // The exact directive plans as exact-tree after the probe…
        assert!(rendered.contains("plan: exact-tree"), "{rendered}");
        // …and the *sample* directive does too: the planner sees the
        // computation tree fits the probe, so sampling is unnecessary.
        assert!(!rendered.contains("plan: sample-fixpoint"), "{rendered}");
        assert!(
            rendered.contains("computation tree fits within the 20000-node probe"),
            "{rendered}"
        );
        // Nothing was executed, so the output carries no result lines.
        assert!(!rendered.contains("p ="), "{rendered}");
        // Planning is deterministic.
        assert_eq!(rendered, plan_src(FORK));
    }

    #[test]
    fn plan_pins_explicit_sampling_directives() {
        let src = r#"
@relation E(i, j, p) {
  (0, 1, 1)
  (1, 0, 1)
  (1, 1, 1)
}
@relation C(c0) {
  (0)
}
@program {
  C(Y) @P :- C(X), E(X, Y, P).
}
@query noninflationary time-average steps 20000 seed 2 event C(1)
@query noninflationary burn-in 50 epsilon 0.1 delta 0.05 seed 2 event C(1)
"#;
        let rendered = plan_src(src);
        assert!(rendered.contains("plan: time-average"), "{rendered}");
        assert!(rendered.contains("steps: 20000"), "{rendered}");
        assert!(rendered.contains("plan: burn-in-sample"), "{rendered}");
        assert!(rendered.contains("burn-in: 50 steps"), "{rendered}");
    }
}
