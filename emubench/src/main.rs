//! The MemorIES emulator benchmark: one workload per invocation.
//!
//! ```text
//! cargo run --release --offline --manifest-path emubench/Cargo.toml -- \
//!     --workload <live_oltp_sweep|replay_dss_l3|replay_oltp_numa> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the seeded input untimed, then calls the workload's
//! `EmulationSession::execute` entry point back to back for `--seconds`
//! seconds, timing set-up and the entry call of every run. Every run's
//! board digest is checked against a serial reference (and, for the
//! single-L3 replay, against the trace-driven simulator); a held-out seed
//! is checked the same way and must give a different digest. With
//! `--trace 1` a traced run follows (see `layers`). The last stdout line
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! See README.md beside this file for the workloads and metrics.

mod check;
mod layers;
mod spec;
mod stats;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use memories::{Error, MemoriesBoard, SdramModel};
use memories_console::{
    ChunkedTraceSource, EmulationSession, ExecutionOptions, PipelineRun, PipelinedLiveSource,
};
use memories_host::HostMachine;
use memories_obs::EngineTelemetry;
use memories_workloads::Workload;

use crate::spec::{Drive, Spec, CYCLE_SPACING, SPECS};
use crate::stats::{median, percentile};

/// Mixed into the seed to derive the held-out seed checked beside it.
const HELD_OUT_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = Spec::by_name(&name).ok_or_else(|| {
        let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; expected one of {names:?}")
    })?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// What one checked entry call produced.
struct Outcome {
    digest: u64,
    telemetry: EngineTelemetry,
    retries_posted: u64,
    demand_miss_ratio: f64,
    threads: usize,
}

/// Set-ups per timed run: set-up is short, so each run repeats it and
/// reports every repetition.
const SETUPS_PER_RUN: usize = 5;

/// One timed run: set-up (repeated), then the entry call.
struct Rep {
    setups: Vec<f64>,
    wall: f64,
    outcome: Result<Outcome, String>,
}

/// The workload's entry call: a pipelined live run or a streaming
/// replay through `EmulationSession::execute`.
fn entry(
    spec: &Spec,
    session: &EmulationSession,
    workload: Option<&mut (dyn Workload + Send + 'static)>,
    trace: Option<&[u8]>,
) -> Result<PipelineRun, Error> {
    let options = ExecutionOptions::new().sample_every(spec.sample_every);
    match (workload, trace) {
        (Some(workload), _) => session.execute(
            PipelinedLiveSource::new(spec.host(), workload, spec.refs),
            options,
        ),
        (None, Some(trace)) => {
            session.execute(ChunkedTraceSource::new(trace, CYCLE_SPACING)?, options)
        }
        (None, None) => unreachable!("every workload has a live host or a trace"),
    }
}

/// Sets the workload up: builds the session, the board and (for live
/// runs) the host, each timed on its own public call. Returns the
/// session and the summed set-up seconds.
fn set_up(spec: &Spec) -> Result<(EmulationSession, f64), Error> {
    let mut secs = 0.0;
    let mut timed = |f: &mut dyn FnMut() -> Result<(), Error>| {
        let started = Instant::now();
        let out = f();
        secs += started.elapsed().as_secs_f64();
        out
    };
    let mut session = None;
    timed(&mut || {
        session = Some(spec.session()?);
        Ok(())
    })?;
    let session = session.expect("set by the timed call");
    let mut board = None;
    timed(&mut || {
        board = Some(MemoriesBoard::new(session.board_config().clone())?);
        Ok(())
    })?;
    drop(board);
    if spec.drive == Drive::Live {
        let mut host = None;
        timed(&mut || {
            host = Some(HostMachine::new(spec.host()).map_err(Error::host)?);
            Ok(())
        })?;
        drop(host);
    }
    Ok((session, secs))
}

/// Sets the workload up [`SETUPS_PER_RUN`] times and runs its entry call
/// once on the last session.
fn rep(spec: &Spec, seed: u64, trace: Option<&[u8]>) -> Rep {
    let mut setups = Vec::with_capacity(SETUPS_PER_RUN);
    let mut session = None;
    for _ in 0..SETUPS_PER_RUN {
        match set_up(spec) {
            Ok((s, secs)) => {
                setups.push(secs);
                session = Some(s);
            }
            Err(e) => {
                return Rep {
                    setups,
                    wall: 0.0,
                    outcome: Err(format!("set-up failed: {e}")),
                }
            }
        }
    }
    let session = session.expect("at least one set-up ran");
    let workload = (spec.drive == Drive::Live).then(|| spec.workload(seed));
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(move || {
        let mut workload = workload;
        entry(spec, &session, workload.as_deref_mut(), trace)
    }));
    let wall = started.elapsed().as_secs_f64();
    let outcome = match result {
        Ok(Ok(run)) => Ok(outcome(spec, &run)),
        Ok(Err(e)) => Err(format!("entry call failed: {e}")),
        Err(_) => Err("entry call panicked".to_string()),
    };
    Rep {
        setups,
        wall,
        outcome,
    }
}

fn outcome(spec: &Spec, run: &PipelineRun) -> Outcome {
    let (misses, refs) = run.node_stats.iter().fold((0, 0), |(m, r), s| {
        (m + s.demand_misses(), r + s.demand_references())
    });
    Outcome {
        digest: check::digest(&run.board),
        telemetry: run.telemetry.clone(),
        retries_posted: run.retries_posted,
        demand_miss_ratio: misses as f64 / refs.max(1) as f64,
        // The calling thread, the live producer, one worker per shard of
        // a parallel engine.
        threads: 1 + usize::from(spec.drive == Drive::Live) + run.telemetry.shards.len(),
    }
}

/// The serial reference digest of a seed's input.
fn reference(spec: &Spec, seed: u64, trace: Option<&[u8]>) -> Result<u64, Error> {
    let board = match trace {
        Some(trace) => check::replay_reference(spec, trace)?,
        None => check::live_reference(spec, seed)?,
    };
    Ok(check::digest(&board))
}

fn input(spec: &Spec, seed: u64) -> Result<Option<Vec<u8>>, Error> {
    match spec.drive {
        Drive::Live => Ok(None),
        Drive::Replay => spec::build_trace(spec, seed).map(Some),
    }
}

/// Kernel clock ticks per second in `/proc/stat`.
const USER_HZ: f64 = 100.0;

/// CPU time stolen by the hypervisor so far, summed over CPUs, in ticks
/// (the `steal` column of `/proc/stat`); `None` where it is not reported.
fn host_steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident set of this process so far, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The commit the checkout was made from, read from `.git` without
/// running git; "unknown" outside a repository.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Output checks: every checked run counts as attempted, and every
/// failed check is kept with its reason.
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// The serial reference digest of a seed's input; a failure to
    /// compute it (the simulator check included) is kept as a reason.
    fn reference(&mut self, spec: &Spec, seed: u64, trace: Option<&[u8]>) -> Option<u64> {
        reference(spec, seed, trace)
            .map_err(|e| {
                self.failures
                    .push(format!("reference for seed {seed}: {e}"))
            })
            .ok()
    }

    /// Checks one run's digest against the reference.
    fn run(&mut self, what: &str, got: Result<u64, String>, want: Option<u64>) {
        self.attempted += 1;
        let problem = match (got, want) {
            (Err(e), _) => Some(e),
            (Ok(_), None) => Some("no reference to compare against".to_string()),
            (Ok(got), Some(want)) if got != want => {
                Some(format!("digest {got:016x} != reference {want:016x}"))
            }
            _ => None,
        };
        if let Some(p) = problem {
            self.failed += 1;
            self.failures.push(format!("{what}: {p}"));
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("emubench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("emubench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one invocation; returns whether every check passed.
fn run(args: &Args) -> Result<bool, String> {
    let Args {
        spec,
        seed,
        seconds,
        trace: traced,
    } = args;
    let (spec, seed) = (spec, *seed);
    let held_out = seed ^ HELD_OUT_MIX;
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out_dir = bench_dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let err = |e: Error| e.to_string();

    let trace = input(spec, seed).map_err(err)?;
    let trace = trace.as_deref();

    // One untimed run first, so allocator and page-table state is warm;
    // every emulated cache still starts empty. Then timed runs, back to
    // back, for the requested seconds.
    let warm_up = rep(spec, seed, trace);
    let budget = Duration::from_secs(*seconds);
    let steal_before = host_steal_ticks();
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.is_empty() || started.elapsed() < budget {
        reps.push(rep(spec, seed, trace));
    }
    let timed_s = started.elapsed().as_secs_f64();
    let steal_s = steal_before
        .zip(host_steal_ticks())
        .map(|(before, after)| after.saturating_sub(before) as f64 / USER_HZ);
    let peak_rss = peak_rss_mib()?;

    // Output checks, untimed.
    let mut checks = Checks {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let want = checks.reference(spec, seed, trace);
    let digest_of = |r: &Rep| r.outcome.as_ref().map(|o| o.digest).map_err(Clone::clone);
    checks.run("warm-up run", digest_of(&warm_up), want);
    for (i, r) in reps.iter().enumerate() {
        checks.run(&format!("run {i}"), digest_of(r), want);
    }
    let held_trace = input(spec, held_out).map_err(err)?;
    let held_rep = rep(spec, held_out, held_trace.as_deref());
    let held_want = checks.reference(spec, held_out, held_trace.as_deref());
    let held_got = match &held_rep.outcome {
        Ok(_) if held_want.is_some() && held_want == want => Err(format!(
            "seeds {seed} and {held_out} give the same digest: the seed does not reach the generator"
        )),
        Ok(o) => Ok(o.digest),
        Err(e) => Err(e.clone()),
    };
    checks.run("held-out seed run", held_got, held_want);

    let Some(first) = reps.iter().find_map(|r| r.outcome.as_ref().ok()) else {
        return Err(format!("no run succeeded: {}", checks.failures.join("; ")));
    };
    let model = SdramModel::table3_default();
    let mut ratios: Vec<f64> = reps
        .iter()
        .filter_map(|r| {
            let o = r.outcome.as_ref().ok()?;
            Some(model.seconds_for(o.telemetry.seen) / r.wall)
        })
        .collect();
    let mut setups: Vec<f64> = reps.iter().flat_map(|r| r.setups.iter().copied()).collect();
    let mut walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = first.threads;

    let mut layer_metrics = None;
    if *traced {
        let untraced = layers::Untraced {
            wall: median(&mut walls),
            telemetry: first.telemetry.clone(),
            retries_posted: first.retries_posted,
            demand_miss_ratio: first.demand_miss_ratio,
        };
        let spans = out_dir.join(format!("spans-{}-{seed}.jsonl", spec.name));
        let layered = layers::run(spec, seed, trace, &untraced, &spans).map_err(err)?;
        for (i, d) in layered.digests.iter().enumerate() {
            checks.run(&format!("traced pass {i}"), Ok(*d), want);
        }
        layer_metrics = Some((layered, spans));
    }

    let mut report = String::new();
    let _ = writeln!(
        report,
        "emubench workload={} seed={seed} held_out_seed={held_out} runs={} seconds={seconds}",
        spec.name,
        reps.len()
    );
    let env_json = format!(
        "{{\"nproc\":{nproc},\"git_revision\":\"{}\",\"rustc\":\"{}\",\"workload\":\"{}\",\"threads\":{threads},\"oversubscribed\":{}}}",
        git_revision(bench_dir.parent().unwrap_or(bench_dir)),
        env!("EMUBENCH_RUSTC"),
        spec.name,
        threads > nproc
    );
    let _ = writeln!(report, "env {env_json}");
    if threads > nproc {
        let _ = writeln!(
            report,
            "warning: {} runs {threads} busy threads on {nproc} CPUs",
            spec.name
        );
    }
    let e2e: Vec<(&str, &str, f64)> = vec![
        ("realtime_ratio", "ratio", median(&mut ratios)),
        ("setup_s", "s", median(&mut setups)),
        ("peak_rss_mib", "MiB", peak_rss),
    ];
    for (name, unit, value) in &e2e {
        let _ = writeln!(report, "end_to_end {name} {value} {unit}");
    }
    let _ = writeln!(
        report,
        "end_to_end error_rate {} 1/run ({} failed of {} attempted)",
        checks.failed as f64 / checks.attempted as f64,
        checks.failed,
        checks.attempted
    );
    let _ = writeln!(
        report,
        "detail wall_s p25={} p50={} p75={} seen_txn={} admitted_txn={}",
        percentile(&walls, 0.25),
        median(&mut walls),
        percentile(&walls, 0.75),
        first.telemetry.seen,
        first.telemetry.admitted
    );
    let _ = writeln!(
        report,
        "detail walls_s {:?}",
        reps.iter().map(|r| r.wall).collect::<Vec<_>>()
    );
    if let Some(steal) = steal_s {
        // Time the hypervisor ran other guests while this one's CPUs were
        // runnable: a host-side cause of slow runs.
        let _ = writeln!(
            report,
            "detail host_steal_s {steal} over {timed_s} s of timed runs on {nproc} CPUs"
        );
    }

    let mut metrics = e2e;
    if let Some((layered, spans)) = layer_metrics {
        for (name, unit, value) in layered.common.iter().chain(&layered.specific) {
            let _ = writeln!(report, "per_layer {name} {value} {unit}");
        }
        let _ = writeln!(report, "spans written to {}", spans.display());
        metrics = layered.common;
    }
    for f in &checks.failures {
        let _ = writeln!(report, "FAILED {f}");
    }
    let correct = checks.failures.is_empty();
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.attempted,
        checks.failed,
        metrics_json.join(",")
    );
    let record = out_dir.join(format!(
        "{}-{seed}-trace{}.txt",
        spec.name,
        u8::from(*traced)
    ));
    std::fs::write(&record, format!("{report}{result}\n"))
        .map_err(|e| format!("{}: {e}", record.display()))?;
    print!("{report}");
    println!("{result}");
    Ok(correct)
}
