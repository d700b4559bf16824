//! routelab's benchmark: three workloads that stress different layers,
//! each checked for correctness as it runs.
//!
//! ```text
//! perfbench --workload <verdicts|unreduced|montecarlo|all> [--seed N]
//!           [--seconds S] [--trace 0|1] [--record-golden]
//! ```
//!
//! The untraced run (`--trace 0`) prints the end-to-end metrics; the traced
//! run (`--trace 1`) records a span around every call into routelab and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`. A result file
//! with provenance (and, when traced, a span dump) goes to `perfbench/out/`.
//! Any failed check makes the exit code nonzero. `--record-golden`
//! rewrites the expected tables from the current program instead of
//! checking against them.

mod explorer;
mod montecarlo;
mod report;
mod stats;
mod trace;
mod unreduced;
mod verdicts;

use std::fs;
use std::io::BufWriter;
use std::io::Write as _;
use std::process::{Command, ExitCode};

use report::{json_str, Outcome};

const WORKLOADS: [&str; 3] = ["verdicts", "unreduced", "montecarlo"];

const USAGE: &str = "usage: perfbench --workload <verdicts|unreduced|montecarlo|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--record-golden]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: montecarlo::DEFAULT_SEED,
        seconds: 30,
        trace: false,
        record: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--record-golden" => a.record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let seconds = args.seconds as f64;
    let out = match args.workload.as_str() {
        "verdicts" => verdicts::run(seconds, args.trace, args.record),
        "unreduced" => unreduced::run(seconds, args.trace),
        _ => montecarlo::run(args.seed, seconds, args.trace, args.record),
    };
    if let Err(e) = write_files(&args, &out) {
        eprintln!("perfbench: writing the result file: {e}");
        return ExitCode::from(2);
    }
    print_report(&args, &out);
    if out.checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs each workload in a child process of its own, so that each reports
/// its own peak memory; fails when any child fails.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args = argv.to_vec();
        let i = child_args.iter().position(|a| a == "--workload").expect("--workload was given");
        child_args[i + 1] = w.to_string();
        println!("== {w}");
        let status = Command::new(&exe).args(&child_args).status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_report(args: &Args, out: &Outcome) {
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &out.metrics {
        println!("  {:<30} {:>18} {}", m.name, format!("{:.6}", m.value), m.unit);
    }
    println!(
        "  {:<30} {:>18} ({} failed / {} attempted)",
        "error_rate",
        format!("{:.6}", out.checks.error_rate()),
        out.checks.failed,
        out.checks.attempted
    );
    for (k, v) in &out.notes {
        println!("  {k} = {v}");
    }
    for msg in &out.checks.messages {
        println!("  FAILED: {msg}");
    }
    println!("{}", report::result_line(&out.checks, &out.metrics));
}

/// Writes the result file (and, for a traced run, the span dump).
fn write_files(args: &Args, out: &Outcome) -> std::io::Result<()> {
    let dir = report::out_dir();
    fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let mut fields: Vec<(String, String)> = vec![
        ("workload".into(), json_str(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), args.trace.to_string()),
    ];
    fields.extend(report::provenance().into_iter().map(|(k, v)| (k.to_string(), v)));
    fields.extend(out.notes.iter().map(|(k, v)| (k.to_string(), v.clone())));
    fields.push(("correct".into(), out.checks.correct().to_string()));
    fields.push(("attempted".into(), out.checks.attempted.to_string()));
    fields.push(("failed".into(), out.checks.failed.to_string()));
    fields.push(("error_rate".into(), report::json_num(out.checks.error_rate())));
    let msgs: Vec<String> = out.checks.messages.iter().map(|m| json_str(m)).collect();
    fields.push(("failures".into(), format!("[{}]", msgs.join(", "))));
    fields.push(("metrics".into(), report::metrics_json(&out.metrics)));
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("  {}: {v}", json_str(k))).collect();
    fs::write(dir.join(format!("{stem}.json")), format!("{{\n{}\n}}\n", body.join(",\n")))?;
    if args.trace {
        let mut w = BufWriter::new(fs::File::create(dir.join(format!("{stem}-spans.ndjson")))?);
        out.tracer.write_ndjson(&mut w)?;
        w.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload montecarlo --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "montecarlo".into(),
                seed: 7,
                seconds: 12,
                trace: true,
                record: false
            }
        );
        assert_eq!(args("--workload verdicts").unwrap().seed, montecarlo::DEFAULT_SEED);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload verdicts --trace 2").is_err());
        assert!(args("--workload verdicts --seconds 0").is_err());
        assert!(args("--workload verdicts --seed").is_err());
        assert!(args("--workload verdicts --bogus 1").is_err());
    }
}
