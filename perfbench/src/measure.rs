//! The untraced closed loop: one client, one query in flight, one fresh
//! `Engine` per session. Only `Engine::run` is inside a timed query
//! interval; input generation and oracle checks stay outside.

use crate::workload::{self, Expected, SessionSpec, Sizes, Workload};
use pfq_core::{CacheStats, Engine, EvalValue};
use std::time::{Duration, Instant};

/// How long a loop runs and how many queries it must hold.
#[derive(Clone, Copy, Debug)]
pub struct LoopPlan {
    /// Keep opening sessions until the loop has run this long...
    pub seconds: f64,
    /// ...and at least this many cold and this many warm queries ran...
    pub min_queries: usize,
    /// ...unless the loop has run this long.
    pub hard_cap_seconds: f64,
    /// Run exactly this many sessions instead.
    pub sessions: Option<usize>,
}

/// What one query returned.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The oracle accepted the value.
    Correct(EvalValue),
    /// The oracle rejected the value.
    Wrong(EvalValue),
    /// The engine returned a typed error (budget overruns included).
    Error(String),
}

impl Outcome {
    /// Whether the oracle accepted the answer.
    pub fn is_correct(&self) -> bool {
        matches!(self, Outcome::Correct(_))
    }

    /// The value the engine returned, if any.
    pub fn value(&self) -> Option<&EvalValue> {
        match self {
            Outcome::Correct(v) | Outcome::Wrong(v) => Some(v),
            Outcome::Error(_) => None,
        }
    }
}

/// One timed query.
#[derive(Clone, Debug)]
pub struct QueryRecord {
    /// Wall time of `Engine::run`.
    pub latency: Duration,
    /// The checked answer.
    pub outcome: Outcome,
}

/// One session: its input, set-up time, queries and final cache counters.
pub struct SessionRecord {
    /// The generated input and oracle answers.
    pub spec: SessionSpec,
    /// Program-side set-up: parse, build inputs, `Engine::new`.
    pub setup: Duration,
    /// Cold query first.
    pub queries: Vec<QueryRecord>,
    /// The engine's cache counters after the last query.
    pub stats: CacheStats,
}

/// Whether `value` is an answer the oracle accepts.
pub fn accepts(expected: &Expected, value: &EvalValue) -> bool {
    match (expected, value) {
        (Expected::Exact(want), EvalValue::Exact(got)) => want == got,
        (Expected::Near { p, tolerance }, value) => (value.to_f64() - p).abs() <= *tolerance,
        (Expected::Exact(_), EvalValue::Estimate(_)) => false,
    }
}

/// Runs one session on a fresh engine: set-up, then its queries in
/// order, each checked against the oracle outside the timed interval.
fn run_session(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    spec: &SessionSpec,
) -> (Duration, Vec<(Duration, Outcome)>, CacheStats) {
    let t = Instant::now();
    let task = workload::build(&spec.spec);
    let mut engine = Engine::new();
    let setup = t.elapsed();

    let mut queries = Vec::with_capacity(spec.expected.len());
    for (q, expected) in spec.expected.iter().enumerate() {
        let request = workload::request(workload, sizes, &spec.spec, &task, seed, spec.index, q);
        let t = Instant::now();
        let result = engine.run(&request);
        let latency = t.elapsed();
        let outcome = match result {
            Ok(outcome) if accepts(expected, &outcome.value) => Outcome::Correct(outcome.value),
            Ok(outcome) => Outcome::Wrong(outcome.value),
            Err(e) => Outcome::Error(e.to_string()),
        };
        queries.push((latency, outcome));
    }
    let stats = engine.stats();
    drop((engine, task));
    // Freeing a session's caches leaves many small chunks on the
    // allocator's fast lists, which glibc consolidates on the next larger
    // request. Make that request here, so the teardown of this session is
    // not charged to the next session's set-up or cold query.
    drop(std::hint::black_box(Vec::<u8>::with_capacity(64 * 1024)));
    (setup, queries, stats)
}

/// Runs sessions of `workload` in a closed loop with one client: one
/// query in flight, one fresh engine per session. Each finished session
/// goes to `after` (the traced run replays it there). `corrupt` names one
/// `(session, query)` whose oracle answer is deliberately wrong: the
/// self-test uses it to prove a wrong answer is counted, not missed.
pub fn run_loop(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    plan: LoopPlan,
    corrupt: Option<(usize, usize)>,
    after: &mut dyn FnMut(&SessionRecord),
) -> Vec<SessionRecord> {
    let start = Instant::now();
    let mut sessions: Vec<SessionRecord> = Vec::new();
    let (mut cold, mut warm) = (0usize, 0usize);
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let done = match plan.sessions {
            Some(n) => sessions.len() >= n,
            None => cold >= plan.min_queries && warm >= plan.min_queries && elapsed >= plan.seconds,
        };
        if done || elapsed >= plan.hard_cap_seconds {
            break;
        }
        let index = sessions.len();
        let mut spec = workload::generate(workload, sizes, seed, index);
        if let Some((s, q)) = corrupt {
            if s == index {
                spec.expected[q] = corrupted(&spec.expected[q]);
            }
        }
        let (setup, results, stats) = run_session(workload, sizes, seed, &spec);
        cold += 1;
        warm += results.len() - 1;
        let queries = results
            .into_iter()
            .map(|(latency, outcome)| QueryRecord { latency, outcome })
            .collect();
        let record = SessionRecord {
            spec,
            setup,
            queries,
            stats,
        };
        after(&record);
        sessions.push(record);
    }
    sessions
}

/// An oracle answer no correct engine returns.
fn corrupted(expected: &Expected) -> Expected {
    match expected {
        Expected::Exact(r) => Expected::Exact(r.add_ref(&pfq_num::Ratio::new(1, 1 << 20))),
        Expected::Near { p, tolerance } => Expected::Near {
            p: p + 10.0,
            tolerance: *tolerance,
        },
    }
}

/// The `p`-quantile by nearest rank (`p` in `(0, 1]`) of unsorted values.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The timed samples of one or more loops, as the end-to-end metrics
/// need them. A forked run's children print theirs with [`Samples::lines`]
/// and the parent merges them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Samples {
    /// Sessions run.
    pub sessions: usize,
    /// Set-up time per session, seconds.
    pub setup_s: Vec<f64>,
    /// Cold query latencies, milliseconds.
    pub cold_ms: Vec<f64>,
    /// Warm query latencies, milliseconds.
    pub warm_ms: Vec<f64>,
    /// Queries issued.
    pub attempted: usize,
    /// Queries that errored or returned a rejected answer.
    pub failed: usize,
    /// Peak resident set of the process (the largest child's, merged).
    pub peak_rss_mb: f64,
}

impl Samples {
    /// The samples of an in-process loop.
    pub fn of(sessions: &[SessionRecord]) -> Samples {
        let ms = |q: &QueryRecord| q.latency.as_secs_f64() * 1e3;
        let queries = sessions.iter().flat_map(|s| &s.queries);
        Samples {
            sessions: sessions.len(),
            setup_s: sessions.iter().map(|s| s.setup.as_secs_f64()).collect(),
            cold_ms: sessions.iter().map(|s| ms(&s.queries[0])).collect(),
            warm_ms: sessions
                .iter()
                .flat_map(|s| s.queries[1..].iter().map(ms))
                .collect(),
            attempted: queries.clone().count(),
            failed: queries.filter(|q| !q.outcome.is_correct()).count(),
            peak_rss_mb: peak_rss_mb(),
        }
    }

    /// Adds another loop's samples.
    pub fn merge(&mut self, other: Samples) {
        self.sessions = self.sessions.max(other.sessions);
        self.setup_s.extend(other.setup_s);
        self.cold_ms.extend(other.cold_ms);
        self.warm_ms.extend(other.warm_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.peak_rss_mb = self.peak_rss_mb.max(other.peak_rss_mb);
    }

    /// One `key value` line per sample, for a parent process to parse.
    pub fn lines(&self) -> String {
        let mut out = format!(
            "sessions {}\nattempted {}\nfailed {}\npeak_rss_mb {}\n",
            self.sessions, self.attempted, self.failed, self.peak_rss_mb
        );
        for (key, values) in [
            ("setup_s", &self.setup_s),
            ("cold_ms", &self.cold_ms),
            ("warm_ms", &self.warm_ms),
        ] {
            for v in values {
                out += &format!("{key} {v}\n");
            }
        }
        out
    }

    /// Parses [`Samples::lines`] output.
    pub fn parse(text: &str) -> Result<Samples, String> {
        let mut s = Samples::default();
        for line in text.lines() {
            let (key, value) = line
                .split_once(' ')
                .ok_or(format!("bad sample line {line:?}"))?;
            let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{line:?}: {e}"));
            match key {
                "sessions" => s.sessions = num(value)? as usize,
                "attempted" => s.attempted = num(value)? as usize,
                "failed" => s.failed = num(value)? as usize,
                "peak_rss_mb" => s.peak_rss_mb = num(value)?,
                "setup_s" => s.setup_s.push(num(value)?),
                "cold_ms" => s.cold_ms.push(num(value)?),
                "warm_ms" => s.warm_ms.push(num(value)?),
                _ => return Err(format!("unknown sample key in {line:?}")),
            }
        }
        Ok(s)
    }

    /// The end-to-end metrics, as `(name, unit, value)`.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        let timed_s = (self.cold_ms.iter().sum::<f64>() + self.warm_ms.iter().sum::<f64>()) / 1e3;
        vec![
            ("setup_s", "s", quantile(&self.setup_s, 0.5)),
            ("cold_p50_ms", "ms", quantile(&self.cold_ms, 0.5)),
            ("cold_p90_ms", "ms", quantile(&self.cold_ms, 0.9)),
            ("warm_p50_ms", "ms", quantile(&self.warm_ms, 0.5)),
            ("warm_p90_ms", "ms", quantile(&self.warm_ms, 0.9)),
            (
                "queries_per_s",
                "1/s",
                (self.attempted - self.failed) as f64 / timed_s,
            ),
            ("peak_rss_mb", "MB", self.peak_rss_mb),
            (
                "failed_frac",
                "ratio",
                self.failed as f64 / self.attempted as f64,
            ),
        ]
    }
}
