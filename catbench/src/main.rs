//! `catbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics, ending with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when a
//! correctness check fails (after printing the result) and 2 on usage or
//! set-up errors (without one). Scratch files live under `.catbench/` in
//! the working directory; the last traced run's spans are left in
//! `.catbench/trace-<workload>-<seed>.jsonl`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use catbench::{workload, RunOptions, Workload};

fn usage() -> String {
    "usage: catbench --workload <dialogue_cinema_1k|dialogue_cinema_20k|sql_oltp_50k> \
     --seed <n> --seconds <s> --trace <0|1>"
        .to_string()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(usage()),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!("unknown workload {:?}\n{}", args.workload, usage());
        return ExitCode::from(2);
    };
    // The engine's morsel parallelism stays at its default of one
    // worker: the benchmark measures a single client thread.
    std::env::remove_var("TXDB_THREADS");

    let root = PathBuf::from(".catbench");
    let dir = root.join(format!("run-{}", std::process::id()));
    let opts = RunOptions {
        seed: args.seed,
        measure: Duration::from_secs_f64(args.seconds.max(0.0)),
        trace: args.trace,
        dir: dir.clone(),
    };
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("create {}: {e}", dir.display()))
        .and_then(|()| match w {
            Workload::Dialogue(d) => catbench::dialogue::run(&d, &opts),
            Workload::Sql(s) => catbench::sql::run(&s, &opts),
        });
    let trace = dir.join("trace.jsonl");
    if trace.exists() {
        let kept = root.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        let _ = std::fs::rename(&trace, kept);
    }
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(report) => {
            for line in report.text_lines(args.trace) {
                println!("{line}");
            }
            println!("{}", report.to_json(args.trace));
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("catbench: {e}");
            ExitCode::from(2)
        }
    }
}
