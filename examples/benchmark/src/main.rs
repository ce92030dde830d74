//! The repo's end-to-end benchmark. See README.md beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, result on the last line
//! benchmark [--seed 42] [--seconds 12] [--workload NAME] [--out FILE] [--trace-out FILE]
//!                                                             the suite: every workload, untraced then traced
//! benchmark --compare A.json B.json                           two suite outputs against the bounds
//! ```

mod compare;
mod probes;
mod report;
mod run;
mod spans;
mod suite;
mod workloads;

use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`; what the suite uses without `--seconds`.
const DEFAULT_SECONDS: f64 = 12.0;

/// Variables that would change what is measured. The benchmark reads no
/// `FEDCA_*` variable itself and refuses to run under these.
const REFUSED_ENV: [&str; 5] = [
    "FEDCA_FORCE_KERNEL",
    "FEDCA_TRACE",
    "FEDCA_SHARDS",
    "FEDCA_COMPRESSION",
    "FEDCA_THREADS",
];

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out FILE] [--trace-out FILE] | --compare A.json B.json";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<String>,
    trace_out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                });
            }
            "--out" => args.out = Some(value()?),
            "--trace-out" => args.trace_out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &args.workload {
        if !workloads::NAMES.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload {name:?}; the workloads are {:?}",
                workloads::NAMES
            ));
        }
    }
    Ok(args)
}

/// `ShardPool` puts its sockets under `std::env::temp_dir()`. Point that at
/// a directory beside this executable — inside the build directory, so the
/// benchmark writes nowhere else — and relative to the working directory
/// when it can be, because a Unix socket path holds only about 100 bytes.
fn confine_temp_dir() -> std::io::Result<()> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or(std::path::Path::new("."))
        .join("tmp");
    let dir = match std::env::current_dir() {
        Ok(cwd) => dir
            .strip_prefix(&cwd)
            .map(|p| p.to_path_buf())
            .unwrap_or(dir),
        Err(_) => dir,
    };
    std::fs::create_dir_all(&dir)?;
    std::env::set_var("TMPDIR", &dir);
    Ok(())
}

fn main() -> ExitCode {
    // Shard children re-enter this binary: serve the protocol and exit.
    if fedca_core::shard::maybe_run_child() {
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("benchmark: refusing to run with {var} set: it changes what is measured");
        return ExitCode::from(2);
    }
    if let Err(e) = confine_temp_dir() {
        eprintln!("benchmark: cannot create a temporary directory beside the executable: {e}");
        return ExitCode::from(2);
    }
    let seed = args.seed.unwrap_or(42);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let ok = match (args.trace, args.workload) {
        (Some(trace), Some(workload)) => run::single(&run::RunArgs {
            workload,
            seed,
            seconds,
            trace,
            trace_out: args.trace_out,
        }),
        (Some(_), None) => {
            eprintln!("benchmark: --trace needs --workload\n{USAGE}");
            return ExitCode::from(2);
        }
        (None, workload) => suite::run(&suite::SuiteArgs {
            workload,
            seed,
            seconds,
            out: args.out,
            trace_out: args.trace_out,
        }),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
