//! `opine-bench` — see `perfbench/README.md`.
//!
//! ```text
//! opine-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run, as BENCHMARK.json's `command` is invoked; the last line
//!     of standard output is the result object
//! opine-bench run --workload <name|all> [--seed n] [--runs k] [--vary-seed]
//!                 [--seconds s] [--traced] [--smoke] [--out file]
//!     k runs per workload, each in a process of its own as the
//!     acceptance pipeline runs them, emitted as one run-set document
//! opine-bench compare <parent.json> <change.json>
//!     row-by-row verdicts; exits 1 on a regression
//! ```

use opine_perfbench::metrics::{Metric, END_TO_END, INGEST_END_TO_END, PER_LAYER};
use opine_perfbench::report::{compare, contract_line, document, parse_run_line, run_line, table};
use opine_perfbench::run::{broken_expectations, run_once, RunConfig, RunResult};
use opine_perfbench::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The seed `BENCHMARK.json`'s committed baseline was measured at.
const DEFAULT_SEED: u64 = 20190801;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: usize,
    vary_seed: bool,
    smoke: bool,
    out: Option<PathBuf>,
    /// Internal, set by `run` on its children: make the last line carry
    /// every metric of the run, not just the contract's.
    full_line: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        runs: 1,
        vary_seed: false,
        smoke: false,
        out: None,
        full_line: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = number(value()?)? as u64,
            "--seconds" => parsed.seconds = number(value()?)?,
            "--trace" => parsed.traced = number(value()?)? != 0.0,
            "--runs" => parsed.runs = number(value()?)? as usize,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--traced" => parsed.traced = true,
            "--vary-seed" => parsed.vary_seed = true,
            "--smoke" => parsed.smoke = true,
            "--full-line" => parsed.full_line = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(parsed)
}

fn config(args: &Args, workload: Workload, seed: u64) -> RunConfig {
    // Traces go beside the build outputs, which .gitignore covers.
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    RunConfig {
        workload,
        seed,
        window: Duration::from_secs_f64(args.seconds),
        traced: args.traced,
        smoke: args.smoke,
        trace_dir: target.join("opine-bench"),
    }
}

/// One run under the driver contract.
fn contract(args: &Args) -> Result<ExitCode, String> {
    let workload = Workload::parse(&args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let result = run_once(&config(args, workload, args.seed)).map_err(|e| e.to_string())?;
    print!("{}", table(workload, &result));
    if args.traced && !args.smoke {
        for line in broken_expectations(workload, &result.metrics) {
            eprintln!("opine-bench: workload expectation broken: {line}");
        }
    }
    if args.full_line {
        println!("{}", run_line(&result));
        return Ok(ExitCode::SUCCESS);
    }
    // Traced: every per-layer metric BENCHMARK.json lists, which is the
    // registry's per-layer table and the ingest-only end-to-end metrics.
    let names: Vec<&Metric> = if args.traced {
        PER_LAYER.iter().chain(&INGEST_END_TO_END).collect()
    } else {
        END_TO_END.iter().collect()
    };
    println!("{}", contract_line(&result, &names));
    Ok(if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One run in a fresh process: runs that share a process share its
/// allocator state and its resident high-water mark.
fn child_run(args: &Args, workload: Workload, seed: u64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload.name(), "--full-line"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "run of {} failed: {}",
            workload.name(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    parse_run_line(stdout.lines().last().unwrap_or_default())
}

/// `run`: k runs per workload, one document.
fn run_set(args: &Args) -> Result<ExitCode, String> {
    let workloads: Vec<Workload> = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&args.workload)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?]
    };
    let mut sets = Vec::new();
    let mut failed = 0;
    for workload in workloads {
        let mut results = Vec::new();
        for run in 0..args.runs.max(1) {
            let seed = args.seed + if args.vary_seed { run as u64 } else { 0 };
            let result = child_run(args, workload, seed)?;
            eprint!("run {run} seed {seed} {}", table(workload, &result));
            failed += result.failed;
            results.push(result);
        }
        sets.push((workload, results));
    }
    let text = document(
        args.seed,
        args.vary_seed,
        args.seconds,
        args.smoke,
        args.traced,
        &sets,
    );
    match &args.out {
        Some(path) => std::fs::write(path, &text).map_err(|e| e.to_string())?,
        None => print!("{text}"),
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [parent, change] => std::fs::read_to_string(parent)
                .and_then(|p| Ok((p, std::fs::read_to_string(change)?)))
                .map_err(|e| e.to_string())
                .and_then(|(p, c)| compare(&p, &c))
                .map(|(table, regressed)| {
                    print!("{table}");
                    if regressed {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }),
            _ => Err("usage: opine-bench compare <parent.json> <change.json>".into()),
        },
        Some("run") => parse_args(&args[1..]).and_then(|a| run_set(&a)),
        _ => parse_args(&args).and_then(|a| contract(&a)),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("opine-bench: {message}");
        ExitCode::from(2)
    })
}
