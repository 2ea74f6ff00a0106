//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <dblp-self|dblp-cite-rs|ppjoin-1t|all> --seed N
//!           --seconds S --trace <0|1> [--size full|toy]
//! ```
//!
//! One workload per process, so peak memory is that workload's alone. The
//! input is generated from the seed and its reference pair set computed on
//! one thread and checked against All-Pairs, all before any timing. Timed
//! runs follow until `--seconds` have passed; every run's output is checked
//! against the reference. With `--trace 1` one more run with engine
//! profiling on gives the per-layer metrics and writes its spans.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The exit code is 1
//! when the reference differed from All-Pairs or a run errored or its
//! output differed from the reference, and 2 on bad arguments or an input
//! below its pair floor.
//!
//! `--workload all` runs the three workloads in child processes and adds
//! the COST ratio: median `wall_s` of `dblp-self` over that of `ppjoin-1t`.

mod inputs;
mod metrics;
mod run;

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use fuzzyjoin::JoinConfig;
use fuzzyjoin_bench::perflab::peak_rss_bytes;
use fuzzyjoin_bench::stats;
use mapreduce::{obj, Json};

use inputs::{Inputs, Size, Workload};
use run::{Detail, RunRecord};

/// Timed runs per workload, at least, however short `--seconds` is.
const MIN_TIMED_RUNS: usize = 3;
/// Where traced runs write their spans, relative to the repository root the
/// benchmark runs from.
const SPANS_DIR: &str = "perfbench/out";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size_name: String,
    size: Size,
}

const USAGE: &str = "usage: perfbench --workload <dblp-self|dblp-cite-rs|ppjoin-1t|all> \
--seed N --seconds S --trace <0|1> [--size full|toy]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |name: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == &format!("--{name}"))
            .and_then(|i| argv.get(i + 1).cloned())
    };
    for pair in argv.chunks(2) {
        let known = ["--workload", "--seed", "--seconds", "--trace", "--size"];
        if !known.contains(&pair[0].as_str()) || pair.len() < 2 {
            return Err(format!("bad argument {:?}", pair[0]));
        }
    }
    let required = |v: Option<String>, name: &str| v.ok_or_else(|| format!("missing --{name}"));
    let workload_name = required(get("workload"), "workload")?;
    let workload = match workload_name.as_str() {
        "all" => None,
        name => Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?),
    };
    let seed = required(get("seed"), "seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = required(get("seconds"), "seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    let trace = match required(get("trace"), "trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}")),
    };
    let size_name = get("size").unwrap_or_else(|| "full".into());
    let size = Size::parse(&size_name).ok_or_else(|| format!("unknown size {size_name:?}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        size_name,
        size,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit `git rev-parse HEAD` names; `unknown` outside a git checkout.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Hand freed heap pages back to the OS, so every run starts from the same
/// resident set instead of inheriting what earlier runs left in the
/// allocator's free lists.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` has no preconditions; it only
        // returns free heap memory to the OS and leaves live allocations
        // untouched.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Reset the process's peak-RSS high-water mark to the current RSS, so the
/// peak read later covers only what ran after this call.
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: cannot reset peak RSS ({e}); it covers the whole process");
    }
}

fn relation(lines: &[String]) -> Json {
    obj(vec![
        ("records", Json::Num(lines.len() as f64)),
        ("mb", Json::Num(inputs::text_mb(lines))),
    ])
}

fn provenance(args: &Args, inputs: &Inputs, config: &JoinConfig) -> Json {
    let workload = inputs.workload;
    let cluster = run::cluster_config(nproc(), args.trace);
    let (backend, threads, nodes) = if workload.is_pipeline() {
        (
            cluster.backend.as_str(),
            cluster.physical_threads(),
            run::NODES,
        )
    } else {
        ("none", 1, 0)
    };
    let mut rel = vec![("r", relation(&inputs.r_lines))];
    if let Some(s) = &inputs.s_lines {
        rel.push(("s", relation(s)));
    }
    obj(vec![
        ("workload", Json::Str(workload.name().into())),
        ("seed", Json::Num(args.seed as f64)),
        ("size", Json::Str(args.size_name.clone())),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Num(nproc() as f64)),
        ("execution_threads", Json::Num(threads as f64)),
        ("nodes", Json::Num(nodes as f64)),
        ("backend", Json::Str(backend.into())),
        ("combo", Json::Str(config.combo_name())),
        (
            "threshold",
            Json::Str(format!(
                "{:?} {}",
                config.threshold.func(),
                config.threshold.tau()
            )),
        ),
        ("inputs", obj(rel)),
        ("git_commit", Json::Str(git_commit())),
        ("profile", Json::Bool(args.trace)),
    ])
}

fn measure_once(
    inputs: &Inputs,
    expected: &[inputs::Row],
    config: &JoinConfig,
    profile: bool,
) -> Result<RunRecord, String> {
    if inputs.workload.is_pipeline() {
        run::pipeline(
            inputs,
            expected,
            config,
            run::cluster_config(nproc(), profile),
        )
    } else {
        run::one_thread(inputs, expected, config)
    }
}

fn numbers(values: impl Iterator<Item = f64>) -> Json {
    Json::Arr(values.map(Json::Num).collect())
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: Json) -> String {
    obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .to_string()
}

/// Check that no stage's jobs, by the engine's own clock, outlast the
/// stage call that ran them. The stage walls tile `wall_s` and each
/// `stageN.driver_s` is its stage wall minus its jobs' wall, so those sums
/// hold by construction; this is the part that can fail.
fn reconcile(traced: &RunRecord) -> Result<String, String> {
    let Detail::Pipeline(p) = &traced.detail else {
        return Ok("one-thread run: no stages".into());
    };
    let mut parts = Vec::new();
    for (i, stage_wall) in p.stage_wall_s.iter().enumerate() {
        let driver = metrics::stage_driver_s(p, i);
        let jobs = stage_wall - driver;
        if driver < -1e-3 {
            return Err(format!(
                "stage{}: jobs' wall {jobs:.4} s outlasts the stage call {stage_wall:.4} s",
                i + 1
            ));
        }
        parts.push(format!(
            "stage{}: jobs {jobs:.4} s within call {stage_wall:.4} s",
            i + 1
        ));
    }
    Ok(parts.join("; "))
}

fn measure(args: &Args, workload: Workload) -> Result<ExitCode, String> {
    let config = JoinConfig::recommended();
    let inputs = Inputs::generate(workload, args.size, args.seed);
    let reference = inputs::reference(&inputs, &config);
    let checked = Instant::now();
    if let Err(e) = inputs::cross_check(&inputs, &config, &reference.rows) {
        eprintln!("perfbench: {}: {e}", workload.name());
        println!("{}", result_line(false, 1, 1, Json::Obj(Vec::new())));
        return Ok(ExitCode::from(1));
    }
    let cross_check_s = checked.elapsed().as_secs_f64();
    let floor = inputs::pair_floor(&inputs);
    if reference.rows.len() < floor {
        return Err(format!(
            "{}: {} reference pairs, below the floor of {floor} for {} planted copies",
            workload.name(),
            reference.rows.len(),
            inputs.s_copies
        ));
    }
    println!(
        "{}",
        obj(vec![("provenance", provenance(args, &inputs, &config))])
    );

    // The reference computation has already grown the heap, so the timed
    // runs start warm.
    let mut attempted = 0;
    let mut errors: Vec<String> = Vec::new();
    let mut timed: Vec<RunRecord> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    let started = Instant::now();
    while timed.len() < MIN_TIMED_RUNS || started.elapsed().as_secs_f64() < args.seconds {
        attempted += 1;
        release_free_heap();
        reset_peak_rss();
        match measure_once(&inputs, &reference.rows, &config, false) {
            Ok(record) => {
                peaks.push(peak_rss_bytes() as f64);
                timed.push(record);
            }
            Err(e) => errors.push(e),
        }
        if errors.len() >= MIN_TIMED_RUNS {
            break; // a failing program fails every run; stop early
        }
    }
    let walls: Vec<f64> = timed.iter().map(|r| r.wall_s).collect();
    let untraced_wall = stats::median(&walls);

    let mut traced = None;
    if args.trace {
        attempted += 1;
        release_free_heap();
        match measure_once(&inputs, &reference.rows, &config, true) {
            Ok(record) => traced = Some(record),
            Err(e) => errors.push(e),
        }
    }
    for e in &errors {
        eprintln!("perfbench: {}: run failed: {e}", workload.name());
    }
    let failed = errors.len();
    let error_rate = failed as f64 / attempted as f64;

    let end_to_end = metrics::end_to_end(&timed, inputs.records(), &peaks);
    let reference_s = reference.tokenize_order_s + reference.join_s;
    let tail = metrics::tail(&walls).map_or(Json::Null, |(p, v)| {
        obj(vec![("percentile", Json::Num(p)), ("value", Json::Num(v))])
    });
    let mut summary = vec![
        ("workload", Json::Str(workload.name().into())),
        (
            "wall_s",
            obj(vec![
                ("median", Json::Num(untraced_wall)),
                ("tail", tail),
                ("samples", Json::Num(walls.len() as f64)),
            ]),
        ),
        (
            "runs",
            obj(vec![
                ("wall_s", numbers(walls.iter().copied())),
                ("setup_s", numbers(timed.iter().map(|r| r.setup_s))),
                ("peak_rss_mb", numbers(peaks.iter().map(|p| p / 1e6))),
            ]),
        ),
        ("end_to_end", end_to_end.to_json()),
        ("error_rate", Json::Num(error_rate)),
        ("attempted", Json::Num(attempted as f64)),
        ("reference_pairs", Json::Num(reference.rows.len() as f64)),
        ("pair_floor", Json::Num(floor as f64)),
        ("all_pairs_check_s", Json::Num(cross_check_s)),
        (
            "one_thread_reference_s",
            obj(vec![
                ("tokenize_order", Json::Num(reference.tokenize_order_s)),
                ("join", Json::Num(reference.join_s)),
            ]),
        ),
    ];
    if workload.is_pipeline() {
        summary.push((
            "cost_ratio",
            obj(vec![
                ("value", Json::Num(untraced_wall / reference_s)),
                ("wall_s_median", Json::Num(untraced_wall)),
                ("one_thread_reference_s", Json::Num(reference_s)),
            ]),
        ));
    }
    let summary = obj(summary);
    println!("{}", obj(vec![("summary", summary)]));

    let metrics = match &traced {
        Some(record) => {
            let reconciled = reconcile(record)?;
            println!("reconcile: {reconciled}");
            let input_mb = inputs::text_mb(&inputs.r_lines)
                + inputs.s_lines.as_deref().map_or(0.0, inputs::text_mb);
            let run_id = format!("{}-seed{}", workload.name(), args.seed);
            std::fs::create_dir_all(SPANS_DIR)
                .map_err(|e| format!("cannot create {SPANS_DIR}: {e}"))?;
            let path = Path::new(SPANS_DIR).join(format!("{run_id}.spans.jsonl"));
            std::fs::write(&path, metrics::spans_jsonl(record, &run_id))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("spans: {}", path.display());
            metrics::per_layer(record, untraced_wall, input_mb, &reference).to_json()
        }
        None if args.trace => Json::Obj(Vec::new()),
        None => end_to_end.to_json(),
    };
    let correct = failed == 0;
    println!("{}", result_line(correct, attempted, failed, metrics));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Run every workload in its own child process and add the COST ratio.
fn measure_all(argv: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut all_metrics = Vec::new();
    let mut walls = Vec::new();
    for workload in Workload::ALL {
        let mut child_args = argv.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed");
        child_args[at + 1] = workload.name().into();
        let output = Command::new(&exe)
            .args(&child_args)
            .output()
            .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let parsed: Vec<Json> = stdout.lines().filter_map(|l| Json::parse(l).ok()).collect();
        let result = parsed.last().filter(|j| j.get("correct").is_some());
        let Some(result) = result else {
            return Err(format!("{} printed no result", workload.name()));
        };
        correct &= result.get("correct") == Some(&Json::Bool(true)) && output.status.success();
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(members) = result.get("metrics").and_then(Json::as_obj) {
            for (name, value) in members {
                all_metrics.push((format!("{}.{name}", workload.name()), value.clone()));
            }
        }
        let wall = parsed
            .iter()
            .find_map(|j| j.get("summary")?.get("wall_s")?.get("median")?.as_f64())
            .unwrap_or(f64::NAN);
        walls.push(wall);
    }
    let (pipeline, one_thread) = (walls[0], walls[2]);
    println!(
        "cost_ratio: {:.3} = dblp-self wall_s median {pipeline:.4} s ({} threads) / ppjoin-1t wall_s median {one_thread:.4} s (1 thread)",
        pipeline / one_thread,
        nproc()
    );
    all_metrics.push((
        "cost_ratio".into(),
        obj(vec![
            ("value", Json::Num(pipeline / one_thread)),
            ("unit", Json::Str("ratio".into())),
        ]),
    ));
    println!(
        "{}",
        result_line(
            correct,
            attempted as usize,
            failed as usize,
            Json::Obj(all_metrics)
        )
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match args.workload {
        Some(w) => measure(&args, w),
        None => measure_all(&argv),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
