//! The traced run: replays the sessions of an untraced loop through each
//! layer's public entry point, in the order `Engine::run` calls them,
//! with a span around every call.
//!
//! The replay owns the caches the engine would own (an `EvalCache` for
//! the planner and chain builder, a `FixpointMemo` for the per-world
//! fixpoints) so every call does the same work as inside the engine.
//! Two steps cannot be reached from outside the engine and stay in
//! `core.other_ms`: event evaluation over the fixpoint and long-run
//! distributions, and resolving interned chain states, because
//! `EvalCache`'s state store is crate-private. The replay resolves
//! chain states through a mirror store built before the session, outside
//! every span.

use crate::measure::{accepts, SessionRecord};
use crate::workload::{self, Sizes, Spec, Task, Workload};
use pfq_algebra::Interpretation;
use pfq_core::engine::{PlanAction, Planner};
use pfq_core::exact_noninflationary::{build_chain_interned, ChainBudget};
use pfq_core::mixing_sampler::evaluate_with_burn_in_config;
use pfq_core::sampler::SamplerConfig;
use pfq_core::{CacheStats, CoreError, EvalCache, EvalValue, StationaryMethod};
use pfq_data::{Database, StateStore};
use pfq_datalog::inflationary::{enumerate_fixpoints_memo, FixpointMemo};
use pfq_markov::absorption::long_run_distribution_with;
use pfq_markov::gth::stationary_sparse_with_stats;
use pfq_markov::scc::condensation;
use pfq_markov::MarkovChain;
use pfq_num::{Distribution, Ratio};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer entry point (or `query`, `core.plan`, `core.execute`).
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    /// Nanoseconds since the tracer started; 0 while open.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Session index.
    pub session: usize,
    /// Query index within the session (0 is the cold query).
    pub query: usize,
}

/// In-memory span recorder; written out once the run ends.
pub struct Tracer {
    origin: Instant,
    /// Every span, in opening order.
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        session: usize,
        query: usize,
    ) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            session,
            query,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name` under `parent`.
    fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let (session, query) = (self.spans[parent].session, self.spans[parent].query);
        let id = self.open(name, Some(parent), session, query);
        let out = f();
        self.close(id);
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"session\":{},\"query\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.session, s.query, s.start, s.end
            );
        }
        out
    }
}

/// Counters the replay collects next to its spans.
#[derive(Default)]
struct Counts {
    worlds: usize,
    chain_states: usize,
    chain_builds: usize,
    solves: usize,
    gth_states: usize,
    fill_in: usize,
    peak_entries: usize,
    samples: usize,
    worst_case: usize,
    sampler_runs: usize,
    enumerate_steps: usize,
    enumerate_step_time: Duration,
    sample_steps: usize,
    sample_step_time: Duration,
}

/// The outcome of replaying a loop's sessions.
pub struct Replay {
    /// The recorded spans.
    pub tracer: Tracer,
    /// Per-layer metrics as `(name, unit, value)`.
    pub metrics: Vec<(String, &'static str, f64)>,
    /// Replayed queries whose answer differed from the untraced one, or
    /// failed the oracle, or whose spans did not account for their wall.
    pub mismatches: Vec<String>,
    /// Queries replayed.
    pub replayed: usize,
}

/// Builds the chain the engine's planner probe builds, over a store this
/// replay can read: the same exploration and intern order as
/// `build_chain_interned` on a fresh cache, so state ids agree. Times
/// every `Interpretation::enumerate_step` call.
fn mirror_store(
    kernel: &Interpretation,
    db: &Database,
    budget: ChainBudget,
    counts: &mut Counts,
) -> Result<StateStore, CoreError> {
    let mut store = StateStore::new();
    let start = store.intern(db.clone());
    MarkovChain::explore(
        [start],
        |&sid| -> Result<Distribution<_>, CoreError> {
            let state = store.resolve(sid).clone();
            let t = Instant::now();
            let succ = kernel.enumerate_step(&state, Some(budget.world_limit))?;
            counts.enumerate_step_time += t.elapsed();
            counts.enumerate_steps += 1;
            let row: Vec<_> = succ
                .into_iter()
                .map(|(next, q)| (store.intern(next), q))
                .collect();
            Ok(row.into_iter().collect())
        },
        Some(budget.max_states),
    )?;
    Ok(store)
}

/// Times `steps` calls of `Interpretation::sample_step` on a walk from
/// `db` (the unit of work inside every burn-in trial).
fn time_sample_steps(
    kernel: &Interpretation,
    db: &Database,
    steps: usize,
    seed: u64,
    counts: &mut Counts,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut state = db.clone();
    for _ in 0..steps {
        let t = Instant::now();
        state = kernel
            .sample_step(&state, &mut rng)
            .expect("Glauber step samples");
        counts.sample_step_time += t.elapsed();
        counts.sample_steps += 1;
    }
}

/// Replays sessions with spans, one at a time, right after the untraced
/// loop ran them, so drift in machine speed affects both alike.
pub struct Replayer<'a> {
    workload: Workload,
    sizes: &'a Sizes,
    seed: u64,
    tracer: Tracer,
    counts: Counts,
    mismatches: Vec<String>,
    replay_stats: Vec<CacheStats>,
    untraced_ms: f64,
    /// Per query: (cold?, root span, plan span, execute span).
    roots: Vec<(bool, usize, usize, usize)>,
}

impl<'a> Replayer<'a> {
    /// A replayer for sessions of `workload` generated under `seed`.
    pub fn new(workload: Workload, sizes: &'a Sizes, seed: u64) -> Replayer<'a> {
        Replayer {
            workload,
            sizes,
            seed,
            tracer: Tracer::new(),
            counts: Counts::default(),
            mismatches: Vec::new(),
            replay_stats: Vec::new(),
            untraced_ms: 0.0,
            roots: Vec::new(),
        }
    }

    /// Replays every query of `record`, checking each answer against the
    /// untraced one and the oracle, and the session's cache counters
    /// against the engine's.
    pub fn session(&mut self, record: &SessionRecord) {
        let Replayer {
            workload,
            sizes,
            seed,
            tracer,
            counts,
            mismatches,
            replay_stats,
            untraced_ms,
            roots,
        } = self;
        let (workload, sizes, seed) = (*workload, *sizes, *seed);
        let spec = &record.spec;
        let task = workload::build(&spec.spec);
        let mut cache = EvalCache::default();
        let mut memo = FixpointMemo::new();
        let mirror = match (&task, workload) {
            (Task::Forever { db, queries }, Workload::GlauberExact) => {
                match mirror_store(&queries[0].kernel, db, ChainBudget::default(), counts) {
                    Ok(store) => Some(store),
                    Err(e) => {
                        mismatches
                            .push(format!("session {}: mirror chain failed: {e}", spec.index));
                        None
                    }
                }
            }
            (Task::Forever { db, queries }, Workload::GlauberSample) => {
                if let Spec::Glauber { graph, .. } = &spec.spec {
                    let steps = graph.jerrum_burn_in(sizes.sample_bias) * 4;
                    time_sample_steps(
                        &queries[0].kernel,
                        db,
                        steps,
                        seed ^ spec.index as u64,
                        counts,
                    );
                }
                None
            }
            _ => None,
        };

        for (q, untraced) in record.queries.iter().enumerate() {
            *untraced_ms += untraced.latency.as_secs_f64() * 1e3;
            let request =
                workload::request(workload, sizes, &spec.spec, &task, seed, spec.index, q);
            let root = tracer.open("query", None, spec.index, q);
            let plan_span = tracer.open("core.plan", Some(root), spec.index, q);
            let plan = Planner::plan(&request, &mut cache);
            tracer.close(plan_span);
            let exec_span = tracer.open("core.execute", Some(root), spec.index, q);
            let value: Result<EvalValue, CoreError> =
                plan.and_then(|plan| match (&plan.action, &task) {
                    (PlanAction::ExactTree { budget }, Task::Pc { input, queries }) => {
                        let query = &queries[q];
                        let worlds = tracer.span("ctable.enumerate_worlds", exec_span, || {
                            input.enumerate_worlds()
                        })?;
                        counts.worlds += worlds.support_size();
                        if let Some(limit) = budget.world_budget {
                            if worlds.support_size() > limit {
                                return Err(CoreError::BadParameter(
                                    "world budget exceeded".into(),
                                ));
                            }
                        }
                        let mut total = Ratio::zero();
                        for (world, p) in worlds.iter() {
                            let fixpoints = tracer.span(
                                "datalog.enumerate_fixpoints_memo",
                                exec_span,
                                || {
                                    enumerate_fixpoints_memo(
                                        &query.program,
                                        world,
                                        budget.node_budget,
                                        &mut memo,
                                    )
                                },
                            )?;
                            let conditional =
                                fixpoints.probability_that(|db| query.event.holds(db));
                            total = tracer.span("num.mix", exec_span, || {
                                total.add_ref(&p.mul_ref(&conditional))
                            });
                        }
                        Ok(EvalValue::Exact(total))
                    }
                    (PlanAction::ExactChain { budget, method }, Task::Forever { db, queries }) => {
                        let query = &queries[q];
                        let chain = tracer.span("core.build_chain_interned", exec_span, || {
                            build_chain_interned(query, db, *budget, &mut cache)
                        })?;
                        counts.chain_states += chain.len();
                        counts.chain_builds += 1;
                        // `long_run_distribution_with` on an irreducible chain is one
                        // condensation plus the sparse GTH solve; calling the two
                        // directly is the same work and returns the fill-in counters.
                        let long_run = tracer.span("markov.solve", exec_span, || {
                            let irreducible = condensation(&chain).len() == 1;
                            if irreducible && *method == StationaryMethod::SparseGth {
                                stationary_sparse_with_stats(&chain)
                                    .map(|(pi, stats)| (pi, Some(stats)))
                                    .map_err(|e| e.to_string())
                            } else {
                                long_run_distribution_with(&chain, 0, *method)
                                    .map(|pi| (pi, None))
                                    .map_err(|e| e.to_string())
                            }
                        });
                        let (pi, stats) = long_run.map_err(CoreError::BadParameter)?;
                        counts.solves += 1;
                        if let Some(stats) = stats {
                            counts.gth_states += stats.states;
                            counts.fill_in += stats.fill_in;
                            counts.peak_entries += stats.peak_entries;
                        }
                        let store = mirror
                            .as_ref()
                            .ok_or_else(|| CoreError::BadParameter("no mirror store".into()))?;
                        let mut total = Ratio::zero();
                        for (i, p) in pi.iter().enumerate() {
                            if !p.is_zero() && query.event.holds(store.resolve(*chain.state(i))) {
                                total = total.add_ref(p);
                            }
                        }
                        Ok(EvalValue::Exact(total))
                    }
                    (
                        PlanAction::BurnInSample {
                            burn_in,
                            epsilon,
                            delta,
                            ..
                        },
                        Task::Forever { db, queries },
                    ) => {
                        let config = SamplerConfig {
                            seed: workload::query_seed(seed, spec.index, q),
                            threads: 1,
                            ..SamplerConfig::default()
                        };
                        let report = tracer.span(
                            "sampler.evaluate_with_burn_in_config",
                            exec_span,
                            || {
                                evaluate_with_burn_in_config(
                                    &queries[q],
                                    db,
                                    *burn_in,
                                    *epsilon,
                                    *delta,
                                    &config,
                                )
                            },
                        )?;
                        counts.samples += report.samples;
                        counts.worst_case += report.worst_case;
                        counts.sampler_runs += 1;
                        Ok(EvalValue::Estimate(report.estimate))
                    }
                    (action, _) => Err(CoreError::BadParameter(format!(
                        "unexpected plan {}",
                        action.name()
                    ))),
                });
            tracer.close(exec_span);
            tracer.close(root);
            roots.push((q == 0, root, plan_span, exec_span));

            match (&value, untraced.outcome.value()) {
                (Ok(replayed_value), Some(engine_value)) if replayed_value == engine_value => {
                    if !accepts(&spec.expected[q], replayed_value) {
                        mismatches.push(format!(
                            "session {} query {q}: oracle rejects {replayed_value}",
                            spec.index
                        ));
                    }
                }
                (Ok(v), other) => mismatches.push(format!(
                    "session {} query {q}: replay {v} vs engine {other:?}",
                    spec.index
                )),
                (Err(e), _) => mismatches.push(format!(
                    "session {} query {q}: replay error {e}",
                    spec.index
                )),
            }
        }
        let mut stats = cache.stats();
        let fx = memo.stats();
        stats.engine_states += fx.states;
        stats.approx_bytes += fx.approx_bytes;
        stats.step_hits += fx.step_hits;
        stats.step_misses += fx.step_misses;
        stats.result_hits += fx.result_hits;
        stats.result_misses += fx.result_misses;
        if stats != record.stats {
            mismatches.push(format!(
                "session {}: replay cache counters [{stats}] vs engine [{}]",
                spec.index, record.stats
            ));
        }
        replay_stats.push(stats);
    }

    /// The per-layer metrics over every replayed session.
    pub fn finish(mut self) -> Replay {
        let metrics = layer_metrics(
            &self.tracer,
            &self.roots,
            &self.counts,
            &self.replay_stats,
            self.untraced_ms,
            &mut self.mismatches,
        );
        Replay {
            replayed: self.roots.len(),
            tracer: self.tracer,
            metrics,
            mismatches: self.mismatches,
        }
    }
}

/// Which per-layer time metric a span's duration is charged to.
const LAYER_OF_SPAN: [(&str, &str); 6] = [
    ("ctable.enumerate_worlds", "ctable.enumerate_ms"),
    ("datalog.enumerate_fixpoints_memo", "datalog.fixpoint_ms"),
    ("num.mix", "num.mix_ms"),
    ("core.build_chain_interned", "core.chain_build_ms"),
    ("markov.solve", "markov.solve_ms"),
    ("sampler.evaluate_with_burn_in_config", "sampler.run_ms"),
];

/// Time metrics, reported separately for cold and warm queries as a mean
/// per query in milliseconds.
const TIME_METRICS: [&str; 10] = [
    "query_ms",
    "core.plan_ms",
    "core.execute_ms",
    "core.other_ms",
    "ctable.enumerate_ms",
    "datalog.fixpoint_ms",
    "num.mix_ms",
    "core.chain_build_ms",
    "markov.solve_ms",
    "sampler.run_ms",
];

fn layer_metrics(
    tracer: &Tracer,
    roots: &[(bool, usize, usize, usize)],
    counts: &Counts,
    replay_stats: &[CacheStats],
    untraced_wall: f64,
    mismatches: &mut Vec<String>,
) -> Vec<(String, &'static str, f64)> {
    let spans = &tracer.spans;
    let dur = |id: usize| (spans[id].end - spans[id].start) as f64 / 1e6;
    // Direct children of each execute span, by parent.
    let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(id);
        }
    }
    let mut sums: BTreeMap<(bool, &str), f64> = BTreeMap::new();
    let (mut n_cold, mut n_warm) = (0usize, 0usize);
    let mut traced_wall = 0.0;
    for &(cold, root, plan, exec) in roots {
        if cold {
            n_cold += 1;
        } else {
            n_warm += 1;
        }
        let wall = dur(root);
        traced_wall += wall;
        let mut covered = 0.0;
        for &child in children.get(&exec).into_iter().flatten() {
            let d = dur(child);
            covered += d;
            let metric = LAYER_OF_SPAN
                .iter()
                .find(|(span, _)| *span == spans[child].name)
                .map(|(_, metric)| *metric)
                .expect("every execute child is a layer span");
            *sums.entry((cold, metric)).or_default() += d;
        }
        let other = dur(exec) - covered;
        *sums.entry((cold, "query_ms")).or_default() += wall;
        *sums.entry((cold, "core.plan_ms")).or_default() += dur(plan);
        *sums.entry((cold, "core.execute_ms")).or_default() += dur(exec);
        *sums.entry((cold, "core.other_ms")).or_default() += other;
        // Plan + layer spans + other must account for the query wall; the
        // rest is the tracer's own bookkeeping between spans.
        let unaccounted = wall - dur(plan) - covered - other;
        if other < 0.0 || unaccounted > 0.05 * wall + 0.05 {
            mismatches.push(format!(
                "session {} query {}: spans cover {:.3} of {wall:.3} ms",
                spans[root].session,
                spans[root].query,
                wall - unaccounted
            ));
        }
    }

    let mut out: Vec<(String, &'static str, f64)> = Vec::new();
    for (cold, n, prefix) in [(true, n_cold, "cold"), (false, n_warm, "warm")] {
        for metric in TIME_METRICS {
            let total = sums.get(&(cold, metric)).copied().unwrap_or(0.0);
            out.push((format!("{prefix}.{metric}"), "ms", total / n.max(1) as f64));
        }
    }

    let per = |num: f64, den: usize| if den == 0 { 0.0 } else { num / den as f64 };
    let ratio = |hits: u64, misses: u64| per(hits as f64, (hits + misses) as usize);
    let sum = |f: fn(&CacheStats) -> u64| replay_stats.iter().map(f).sum::<u64>();
    let n_sessions = replay_stats.len();
    let n_queries = n_cold + n_warm;
    let mut push =
        |name: &str, unit: &'static str, value: f64| out.push((name.to_string(), unit, value));
    push(
        "ctable.worlds",
        "count",
        per(counts.worlds as f64, n_queries),
    );
    push(
        "datalog.nodes",
        "count",
        per(sum(|s| s.engine_states as u64) as f64, n_sessions),
    );
    push(
        "datalog.step_misses",
        "count",
        per(sum(|s| s.step_misses) as f64, n_sessions),
    );
    push(
        "cache.step_hit_ratio",
        "ratio",
        ratio(sum(|s| s.step_hits), sum(|s| s.step_misses)),
    );
    push(
        "cache.result_hit_ratio",
        "ratio",
        ratio(sum(|s| s.result_hits), sum(|s| s.result_misses)),
    );
    push(
        "cache.kernel_hit_ratio",
        "ratio",
        ratio(sum(|s| s.kernel_hits), sum(|s| s.kernel_misses)),
    );
    push(
        "cache.mb",
        "MB",
        per(
            sum(|s| s.approx_bytes as u64) as f64 / 1048576.0,
            n_sessions,
        ),
    );
    push(
        "cache.engine_states",
        "count",
        per(sum(|s| s.engine_states as u64) as f64, n_sessions),
    );
    push(
        "cache.db_states",
        "count",
        per(sum(|s| s.db_states as u64) as f64, n_sessions),
    );
    push(
        "core.chain_states",
        "count",
        per(counts.chain_states as f64, counts.chain_builds),
    );
    push(
        "core.kernel_rows",
        "count",
        per(sum(|s| s.kernel_misses) as f64, n_sessions),
    );
    push(
        "algebra.enumerate_step_us",
        "us",
        per(
            counts.enumerate_step_time.as_secs_f64() * 1e6,
            counts.enumerate_steps,
        ),
    );
    push(
        "markov.states",
        "count",
        per(counts.gth_states as f64, counts.solves),
    );
    push(
        "markov.fill_in",
        "count",
        per(counts.fill_in as f64, counts.solves),
    );
    push(
        "markov.peak_entries",
        "count",
        per(counts.peak_entries as f64, counts.solves),
    );
    let sampler_ms: f64 = sums
        .iter()
        .filter(|((_, m), _)| *m == "sampler.run_ms")
        .map(|(_, v)| v)
        .sum();
    push(
        "sampler.samples",
        "count",
        per(counts.samples as f64, counts.sampler_runs),
    );
    push(
        "sampler.worst_case",
        "count",
        per(counts.worst_case as f64, counts.sampler_runs),
    );
    push(
        "sampler.sample_ratio",
        "ratio",
        per(counts.samples as f64, counts.worst_case),
    );
    push(
        "sampler.trial_us",
        "us",
        per(sampler_ms * 1e3, counts.samples),
    );
    push(
        "algebra.sample_step_us",
        "us",
        per(
            counts.sample_step_time.as_secs_f64() * 1e6,
            counts.sample_steps,
        ),
    );
    push(
        "trace.overhead_frac",
        "ratio",
        traced_wall / untraced_wall - 1.0,
    );
    push("trace.spans", "count", spans.len() as f64);
    out
}
