//! The three workloads: how each session's input is generated from the
//! workload seed, which queries a session issues, and the independent
//! oracle every answer is checked against.
//!
//! A session is one input and one fresh `Engine`. Its first query is the
//! cold one; the rest are warm queries, other events over the same
//! program and input.

use pfq_core::engine::{EvalRequest, Strategy};
use pfq_core::{DatalogQuery, Event, ForeverQuery};
use pfq_ctable::PcDatabase;
use pfq_data::{tuple, Database};
use pfq_num::Ratio;
use pfq_workloads::coloring::ColoringMcmc;
use pfq_workloads::sat::{self, Cnf};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Thm 4.1 pc-table reduction of a random 3-CNF, planner-chosen
    /// exact tree: per-world fixpoints cold, world enumeration and memo
    /// reads warm.
    PcSatExact,
    /// Glauber colouring chains from a fixed graph menu, planner-chosen
    /// exact chain: chain build plus GTH cold, GTH re-solves warm.
    GlauberExact,
    /// Glauber colouring under forced Thm 5.6 burn-in sampling with a
    /// burn-in from a proven mixing bound: sampler trials only.
    GlauberSample,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::PcSatExact,
        Workload::GlauberExact,
        Workload::GlauberSample,
    ];

    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PcSatExact => "pc-sat-exact",
            Workload::GlauberExact => "glauber-exact",
            Workload::GlauberSample => "glauber-sample",
        }
    }
}

/// Input sizes and tolerances. [`Sizes::full`] is what the benchmark
/// measures; [`Sizes::tiny`] is the self-test's.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Variables of each random 3-CNF (`2^vars` pc-table worlds).
    pub sat_vars: usize,
    /// Clauses of each random 3-CNF; the warm queries are `R(1..=clauses)`.
    pub sat_clauses: usize,
    /// Graph menu of `glauber-exact` (every entry has `q ≥ Δ + 2`).
    pub exact_menu: Vec<GraphSpec>,
    /// Warm queries per `glauber-exact` session.
    pub exact_warm: usize,
    /// Graph menu of `glauber-sample` (every entry has `q ≥ 2Δ + 1`).
    pub sample_menu: Vec<GraphSpec>,
    /// Warm queries per `glauber-sample` session.
    pub sample_warm: usize,
    /// Sampler tolerance ε handed to the engine.
    pub sample_epsilon: f64,
    /// Sampler failure probability δ handed to the engine.
    pub sample_delta: f64,
    /// Total-variation distance from stationarity the burn-in must reach;
    /// the oracle accepts `|estimate − 1/q| ≤ ε + bias`.
    pub sample_bias: f64,
}

impl Sizes {
    /// The measured sizes.
    pub fn full() -> Sizes {
        Sizes {
            sat_vars: 6,
            sat_clauses: 6,
            exact_menu: vec![
                GraphSpec::new("edge", 2, &[(0, 1)], 4),
                GraphSpec::new("triangle", 3, &[(0, 1), (0, 2), (1, 2)], 4),
                GraphSpec::new("path3", 3, &[(0, 1), (1, 2)], 4),
                GraphSpec::new("two-edges", 4, &[(0, 1), (2, 3)], 3),
                GraphSpec::new("edge+vertex", 3, &[(0, 1)], 4),
            ],
            exact_warm: 1,
            sample_menu: vec![
                GraphSpec::new("edge", 2, &[(0, 1)], 3),
                GraphSpec::new("edge", 2, &[(0, 1)], 4),
                GraphSpec::new("edge", 2, &[(0, 1)], 5),
            ],
            sample_warm: 1,
            sample_epsilon: 0.25,
            sample_delta: 1e-3,
            sample_bias: 0.05,
        }
    }

    /// Sizes small enough that every workload runs in well under a second.
    pub fn tiny() -> Sizes {
        Sizes {
            sat_vars: 4,
            sat_clauses: 3,
            exact_menu: vec![
                GraphSpec::new("edge", 2, &[(0, 1)], 3),
                GraphSpec::new("edge", 2, &[(0, 1)], 4),
            ],
            exact_warm: 2,
            sample_menu: vec![GraphSpec::new("edge", 2, &[(0, 1)], 3)],
            sample_warm: 1,
            sample_epsilon: 0.2,
            sample_delta: 1e-3,
            sample_bias: 0.05,
        }
    }
}

/// One graph of a Glauber menu.
#[derive(Clone, Debug)]
pub struct GraphSpec {
    /// Short name, for reports.
    pub name: &'static str,
    /// Vertices `0..n`.
    pub n: usize,
    /// Undirected edges.
    pub edges: Vec<(i64, i64)>,
    /// Palette size.
    pub q: usize,
}

impl GraphSpec {
    fn new(name: &'static str, n: usize, edges: &[(i64, i64)], q: usize) -> GraphSpec {
        GraphSpec {
            name,
            n,
            edges: edges.to_vec(),
            q,
        }
    }

    fn max_degree(&self) -> usize {
        ColoringMcmc::new(self.n, self.edges.clone(), self.q).max_degree()
    }

    /// Burn-in after which heat-bath Glauber dynamics is within total
    /// variation `bias` of uniform, for `q > 2Δ` (Levin–Peres–Wilmer,
    /// Thm 14.8, after Jerrum 1995):
    /// `t_mix(bias) ≤ ⌈(q − Δ)/(q − 2Δ) · n · (ln n + ln(1/bias))⌉`.
    pub fn jerrum_burn_in(&self, bias: f64) -> usize {
        let (q, d, n) = (self.q as f64, self.max_degree() as f64, self.n as f64);
        assert!(q > 2.0 * d, "{}: the bound needs q > 2Δ", self.name);
        ((q - d) / (q - 2.0 * d) * n * (n.ln() - bias.ln())).ceil() as usize
    }
}

/// What a correct answer is.
#[derive(Clone, Debug, PartialEq)]
pub enum Expected {
    /// Exactly this rational.
    Exact(Ratio),
    /// An estimate within `tolerance` of `p`.
    Near {
        /// The true probability.
        p: f64,
        /// The accepted absolute error.
        tolerance: f64,
    },
}

/// The input and queries of one session, built by the timed set-up.
pub enum Task {
    /// Inflationary datalog over a pc-table.
    Pc {
        /// The pc-table input.
        input: PcDatabase,
        /// Cold query first, then the warm ones.
        queries: Vec<DatalogQuery>,
    },
    /// Forever-queries over a Glauber kernel.
    Forever {
        /// The start database.
        db: Database,
        /// Cold query first, then the warm ones.
        queries: Vec<ForeverQuery>,
    },
}

/// A session's input description, generated from the seed outside any
/// timed interval.
#[derive(Clone, Debug)]
pub enum Spec {
    /// A random 3-CNF.
    Sat(Cnf),
    /// A relabelled menu graph, a proper start colouring and the events.
    Glauber {
        /// The graph (vertices relabelled by the session's permutation).
        graph: GraphSpec,
        /// A random proper start colouring.
        start: Vec<usize>,
        /// `(vertex, colour)` per query, cold first.
        events: Vec<(i64, i64)>,
    },
}

/// One session: generated spec, the oracle's answers and the request
/// knobs shared by its queries.
pub struct SessionSpec {
    /// Session index within the run.
    pub index: usize,
    /// Short description of the input, for reports.
    pub label: String,
    /// The input description.
    pub spec: Spec,
    /// One expected answer per query, cold first.
    pub expected: Vec<Expected>,
}

/// Seeds the generator of session `index` under the workload seed.
pub fn session_rng(seed: u64, index: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (index as u64).wrapping_add(1),
    )
}

/// The sampler seed of query `query` of session `session`.
pub fn query_seed(seed: u64, session: usize, query: usize) -> u64 {
    seed ^ ((session as u64) << 20) ^ (query as u64)
}

fn shuffle<T>(items: &mut [T], rng: &mut ChaCha8Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// A uniformly relabelled copy of `graph`.
fn relabel(graph: &GraphSpec, rng: &mut ChaCha8Rng) -> GraphSpec {
    let mut perm: Vec<i64> = (0..graph.n as i64).collect();
    shuffle(&mut perm, rng);
    let edges = graph
        .edges
        .iter()
        .map(|&(u, v)| {
            let (a, b) = (perm[u as usize], perm[v as usize]);
            (a.min(b), a.max(b))
        })
        .collect();
    GraphSpec {
        edges,
        ..graph.clone()
    }
}

/// A random proper colouring: vertices in random order, each taking a
/// uniform colour unused by its coloured neighbours (`q ≥ Δ + 1`).
fn random_coloring(graph: &GraphSpec, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..graph.n).collect();
    shuffle(&mut order, rng);
    let mut coloring = vec![usize::MAX; graph.n];
    for v in order {
        let used: Vec<usize> = graph
            .edges
            .iter()
            .filter_map(|&(a, b)| match (a as usize, b as usize) {
                (a, b) if a == v => Some(coloring[b]),
                (a, b) if b == v => Some(coloring[a]),
                _ => None,
            })
            .collect();
        let free: Vec<usize> = (0..graph.q).filter(|c| !used.contains(c)).collect();
        coloring[v] = free[rng.gen_range(0..free.len())];
    }
    coloring
}

/// Generates session `index` of `workload` under `seed`, with its oracle
/// answers. Pure in `(workload, sizes, seed, index)`.
pub fn generate(workload: Workload, sizes: &Sizes, seed: u64, index: usize) -> SessionSpec {
    let mut rng = session_rng(seed, index);
    match workload {
        Workload::PcSatExact => {
            let cnf = Cnf::random(sizes.sat_vars, sizes.sat_clauses, &mut rng);
            let expected = sat_oracle(&cnf);
            SessionSpec {
                index,
                label: format!("3-cnf n={} m={}", cnf.num_vars, cnf.clauses.len()),
                spec: Spec::Sat(cnf),
                expected,
            }
        }
        Workload::GlauberExact | Workload::GlauberSample => {
            let (menu, warm) = if workload == Workload::GlauberExact {
                (&sizes.exact_menu, sizes.exact_warm)
            } else {
                (&sizes.sample_menu, sizes.sample_warm)
            };
            // Sessions cycle through the menu, so every run holds the
            // same mix of chain sizes whatever the seed.
            let graph = relabel(&menu[index % menu.len()], &mut rng);
            let start = random_coloring(&graph, &mut rng);
            let events: Vec<(i64, i64)> = (0..=warm)
                .map(|_| {
                    (
                        rng.gen_range(0..graph.n as i64),
                        rng.gen_range(0..graph.q as i64),
                    )
                })
                .collect();
            // Colour permutations map proper colourings to proper
            // colourings, so under the uniform stationary law (q ≥ Δ + 2)
            // every vertex takes every colour with probability 1/q.
            let uniform = Ratio::new(1, graph.q as i64);
            let expected = events
                .iter()
                .map(|_| match workload {
                    Workload::GlauberExact => Expected::Exact(uniform.clone()),
                    _ => Expected::Near {
                        p: uniform.to_f64(),
                        tolerance: sizes.sample_epsilon + sizes.sample_bias,
                    },
                })
                .collect();
            SessionSpec {
                index,
                label: format!("{} q={}", graph.name, graph.q),
                spec: Spec::Glauber {
                    graph,
                    start,
                    events,
                },
                expected,
            }
        }
    }
}

/// Theorem 4.1 oracle: `R(k)` holds iff the assignment satisfies clauses
/// `1..=k`, and `Done(a)` iff it satisfies all of them, so each answer is
/// `#SAT(prefix) / 2ⁿ` by brute-force counting.
fn sat_oracle(cnf: &Cnf) -> Vec<Expected> {
    let worlds = 1i64 << cnf.num_vars;
    let prefix = |k: usize| {
        let count = Cnf::new(cnf.num_vars, cnf.clauses[..k].to_vec()).count_satisfying();
        Expected::Exact(Ratio::new(count as i64, worlds))
    };
    let m = cnf.clauses.len();
    std::iter::once(prefix(m))
        .chain((1..=m).map(prefix))
        .collect()
}

/// Program-side set-up of a session: parses the program, builds the
/// input database and the query events. This is what `setup_s` times.
pub fn build(spec: &Spec) -> Task {
    match spec {
        Spec::Sat(cnf) => {
            let (done, input) = sat::theorem_4_1_pc(cnf);
            let mut queries = vec![done.clone()];
            for k in 1..=cnf.clauses.len() as i64 {
                queries.push(DatalogQuery::new(
                    done.program.clone(),
                    Event::tuple_in("R", tuple![k]),
                ));
            }
            Task::Pc { input, queries }
        }
        Spec::Glauber {
            graph,
            start,
            events,
        } => {
            let mcmc = ColoringMcmc::new(graph.n, graph.edges.clone(), graph.q);
            let db = mcmc.database(start);
            let kernel = mcmc.kernel();
            let queries = events
                .iter()
                .map(|&(v, c)| {
                    ForeverQuery::new(kernel.clone(), Event::tuple_in("Color", tuple![v, c]))
                })
                .collect();
            Task::Forever { db, queries }
        }
    }
}

/// The request for query `query` of a session: `Strategy::Auto` on the
/// exact workloads, forced burn-in sampling on one sampler thread for
/// `glauber-sample`.
pub fn request<'a>(
    workload: Workload,
    sizes: &Sizes,
    spec: &Spec,
    task: &'a Task,
    seed: u64,
    session: usize,
    query: usize,
) -> EvalRequest<'a> {
    match (task, spec) {
        (Task::Pc { input, queries }, _) => EvalRequest::inflationary_pc(&queries[query], input),
        (Task::Forever { db, queries }, Spec::Glauber { graph, .. }) => {
            let request = EvalRequest::forever(&queries[query], db);
            if workload == Workload::GlauberSample {
                request
                    .with_strategy(Strategy::BurnInSample {
                        burn_in: Some(graph.jerrum_burn_in(sizes.sample_bias)),
                    })
                    .with_epsilon_delta(sizes.sample_epsilon, sizes.sample_delta)
                    .with_threads(1)
                    .with_seed(query_seed(seed, session, query))
            } else {
                request
            }
        }
        (Task::Forever { .. }, Spec::Sat(_)) => unreachable!("forever task from a 3-CNF spec"),
    }
}
