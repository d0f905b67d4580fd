//! End-to-end and per-layer latency benchmark for the pfq query engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pc-sat-exact|glauber-exact|glauber-sample> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selftest
//! ```
//!
//! `--trace 0` runs the untraced closed loop and reports the end-to-end
//! metrics; `--trace 1` replays each session right after it ran, with a
//! span around every layer call, and reports the per-layer metrics. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod measure;
mod trace;
mod workload;

use measure::{LoopPlan, Samples, SessionRecord};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Sizes, Workload};

/// Cold and warm queries every untraced run must hold per process.
const MIN_QUERIES: usize = 100;

/// Child processes an untraced run splits its time over, each running the
/// same sessions. How fast one process runs this code depends on where its
/// memory lands and on other tenants of the machine, and varies by up to
/// a third from process to process; pooling the samples of several
/// processes keeps the percentiles steady from run to run.
const FORKS: usize = 6;

/// Stop starting sessions or processes after this long, so a run ends
/// well inside its 180 s limit.
const HARD_CAP_SECONDS: f64 = 120.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child process: run this many sessions (0: decide by time)
    /// and print the samples.
    fork_sessions: Option<usize>,
    tiny: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: pfq-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       pfq-perfbench --selftest",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut fork_sessions = None;
    let mut tiny = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--fork-sessions" => {
                let n = value()?.parse::<usize>();
                fork_sessions = Some(n.map_err(|e| format!("--fork-sessions: {e}"))?);
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        fork_sessions,
        tiny,
    })
}

/// Formats one metric value as a JSON number (non-finite values, which
/// no metric should produce, become `-1`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_table(title: &str, metrics: &[(String, &str, f64)]) {
    println!("{title}");
    for (name, unit, v) in metrics {
        println!("  {name:<28} {v:>14.6} {unit}");
    }
}

fn describe(sessions: &[SessionRecord]) -> String {
    let warm: usize = sessions.iter().map(|s| s.queries.len() - 1).sum();
    let mut labels: Vec<&str> = sessions.iter().map(|s| s.spec.label.as_str()).collect();
    labels.sort_unstable();
    labels.dedup();
    format!(
        "{} sessions ({} cold + {warm} warm queries) over {}",
        sessions.len(),
        sessions.len(),
        labels.join(", ")
    )
}

fn report_failures(sessions: &[SessionRecord]) {
    for s in sessions {
        for (q, record) in s.queries.iter().enumerate() {
            if !record.outcome.is_correct() {
                let what = match &record.outcome {
                    measure::Outcome::Error(e) => format!("error: {e}"),
                    other => format!("wrong answer {:?}", other.value()),
                };
                eprintln!("failed: session {} query {q}: {what}", s.spec.index);
            }
        }
    }
}

/// A child process: runs the loop once and prints its samples.
fn fork_child(args: &Args, sizes: &Sizes, sessions: usize) -> String {
    let plan = LoopPlan {
        seconds: args.seconds,
        min_queries: MIN_QUERIES,
        hard_cap_seconds: HARD_CAP_SECONDS / FORKS as f64,
        sessions: (sessions > 0).then_some(sessions),
    };
    let records = measure::run_loop(args.workload, sizes, args.seed, plan, None, &mut |_| {});
    report_failures(&records);
    Samples::of(&records).lines()
}

/// Runs `forks` child processes of this program over the same sessions,
/// the first deciding by time how many, and pools their samples.
fn forked(args: &Args, forks: usize) -> Result<Samples, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let start = Instant::now();
    let mut pooled = Samples::default();
    for fork in 0..forks {
        if fork > 0 && start.elapsed().as_secs_f64() >= HARD_CAP_SECONDS {
            break;
        }
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / forks as f64).to_string()])
            .args(["--trace", "0"])
            .args(["--fork-sessions", &pooled.sessions.to_string()]);
        if args.tiny {
            cmd.arg("--tiny");
        }
        let out = cmd.output().map_err(|e| format!("process {fork}: {e}"))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        if !out.status.success() {
            return Err(format!("process {fork} exited with {}", out.status));
        }
        pooled.merge(Samples::parse(&String::from_utf8_lossy(&out.stdout))?);
    }
    Ok(pooled)
}

fn untraced(args: &Args) -> Result<String, String> {
    let samples = forked(args, FORKS)?;
    let metrics: Vec<(String, &str, f64)> = samples
        .end_to_end()
        .into_iter()
        .map(|(name, unit, v)| (name.to_string(), unit, v))
        .collect();
    println!(
        "workload {} seed {}: {} sessions x {FORKS} processes, {} cold + {} warm queries",
        args.workload.name(),
        args.seed,
        samples.sessions,
        samples.cold_ms.len(),
        samples.warm_ms.len()
    );
    print_table("end-to-end (closed loop, 1 client):", &metrics);
    // `failed_frac` is printed above; the result line carries it as
    // `failed`/`attempted`, since a metric that is 0 on a correct run
    // cannot be compared as a share of its median.
    let reported: Vec<_> = metrics
        .into_iter()
        .filter(|(name, _, _)| name != "failed_frac")
        .collect();
    Ok(result_line(
        samples.failed == 0,
        samples.attempted,
        samples.failed,
        &reported,
    ))
}

fn traced(args: &Args, sizes: &Sizes) -> String {
    let plan = LoopPlan {
        seconds: args.seconds,
        min_queries: 1,
        hard_cap_seconds: HARD_CAP_SECONDS,
        sessions: None,
    };
    let mut replayer = trace::Replayer::new(args.workload, sizes, args.seed);
    let sessions = measure::run_loop(args.workload, sizes, args.seed, plan, None, &mut |s| {
        replayer.session(s)
    });
    report_failures(&sessions);
    let samples = Samples::of(&sessions);
    let replay = replayer.finish();
    for m in &replay.mismatches {
        eprintln!("trace: {m}");
    }
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out_dir.join(format!("spans-{}.jsonl", args.workload.name()));
    if let Err(e) = std::fs::create_dir_all(&out_dir)
        .and_then(|_| std::fs::write(&path, replay.tracer.to_jsonl()))
    {
        eprintln!("trace: could not write {}: {e}", path.display());
    }
    println!(
        "workload {} seed {} (traced): {}",
        args.workload.name(),
        args.seed,
        describe(&sessions)
    );
    println!("spans: {}", path.display());
    print_table(
        "per-layer (replay, mean per query / per session):",
        &replay.metrics,
    );
    let failed = samples.failed + replay.mismatches.len();
    result_line(
        failed == 0,
        samples.attempted + replay.replayed,
        failed,
        &replay.metrics,
    )
}

/// Runs every workload in-process with its traced replay, and through the
/// forked untraced path, at tiny sizes, with one deliberately wrong
/// oracle answer that must be counted as a failure.
fn selftest() -> bool {
    let sizes = Sizes::tiny();
    let mut ok = true;
    for workload in Workload::ALL {
        let corrupt = (workload == Workload::PcSatExact).then_some((0, 1));
        let plan = LoopPlan {
            seconds: 0.2,
            min_queries: 3,
            hard_cap_seconds: 20.0,
            sessions: None,
        };
        let mut replayer = trace::Replayer::new(workload, &sizes, 1);
        let sessions = measure::run_loop(workload, &sizes, 1, plan, corrupt, &mut |s| {
            replayer.session(s)
        });
        let samples = Samples::of(&sessions);
        let replay = replayer.finish();
        // The wrong oracle answer fails in the loop and in the replay.
        let want = usize::from(corrupt.is_some());
        let args = Args {
            workload,
            seed: 1,
            seconds: 0.2,
            trace: false,
            fork_sessions: None,
            tiny: true,
        };
        let forked = forked(&args, 2);
        let forked_ok =
            matches!(&forked, Ok(s) if s.failed == 0 && s.cold_ms.len() == 2 * s.sessions);
        let pass = samples.attempted > 0
            && samples.failed == want
            && replay.mismatches.len() == want
            && replay.replayed == samples.attempted
            && forked_ok;
        println!(
            "selftest {:<15} {}: {} queries, {} failed (want {want}), {} replay mismatches (want {want}), 2 processes: {}",
            workload.name(),
            if pass { "ok" } else { "FAIL" },
            samples.attempted,
            samples.failed,
            replay.mismatches.len(),
            match &forked {
                Ok(s) => format!("{} + {} queries, {} failed", s.cold_ms.len(), s.warm_ms.len(), s.failed),
                Err(e) => e.clone(),
            }
        );
        for m in &replay.mismatches {
            println!("  {m}");
        }
        ok &= pass;
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--selftest") {
        return if selftest() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let sizes = if args.tiny {
        Sizes::tiny()
    } else {
        Sizes::full()
    };
    let line = match (args.fork_sessions, args.trace) {
        (Some(sessions), _) => {
            print!("{}", fork_child(&args, &sizes, sessions));
            return ExitCode::SUCCESS;
        }
        (None, true) => traced(&args, &sizes),
        (None, false) => match untraced(&args) {
            Ok(line) => line,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    println!("{line}");
    ExitCode::SUCCESS
}
