//! The one command: every workload through the real `Trainer`, each run in
//! a fresh child process of this binary, strictly one at a time, untraced
//! then traced; then every metric by name with its unit and sample count,
//! the cross-workload checks, and a non-zero exit if any check failed.

use crate::report::{num, obj, pos, MetricDef, END_TO_END, PER_LAYER};
use crate::workloads;
use serde_json::Value;
use std::process::{Command, Stdio};

pub struct SuiteArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub out: Option<String>,
    pub trace_out: Option<String>,
}

/// The info line and the result line of one child run.
struct ChildRun {
    info: Value,
    result: Value,
}

fn run_child(workload: &str, args: &SuiteArgs, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let (true, Some(path)) = (trace, &args.trace_out) {
        // One file per workload, next to the name the user gave.
        cmd.args(["--trace-out", &format!("{path}.{workload}.jsonl")]);
    }
    // `output` waits for the child, so runs never overlap.
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let mut parse = |what: &str| {
        let line = lines
            .next()
            .ok_or_else(|| format!("{workload}: no {what} line"))?;
        serde_json::parse(line).map_err(|e| format!("{workload}: bad {what} line: {e}"))
    };
    let result = parse("result")?;
    let info = parse("info")?;
    let info = info
        .get("info")
        .cloned()
        .ok_or_else(|| format!("{workload}: no info object"))?;
    if !out.status.success() {
        eprintln!(
            "benchmark: {workload} (trace {}) exited with {}",
            trace as u8, out.status
        );
    }
    Ok(ChildRun { info, result })
}

fn as_f64(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Number(n)) => Some(n.as_f64()),
        _ => None,
    }
}

fn print_table(title: &str, defs: &[MetricDef], run: &ChildRun) {
    println!("  {title}");
    let metrics = run.result.get("metrics");
    let samples = run.info.get("samples");
    for d in defs {
        let value = as_f64(
            metrics
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value")),
        );
        let n = as_f64(samples.and_then(|s| s.get(d.name))).unwrap_or(0.0);
        match value {
            Some(v) => println!(
                "    {:<34} {:>14.4} {:<8} n={}",
                d.name, v, d.unit, n as u64
            ),
            None => println!("    {:<34} {:>14} {:<8}", d.name, "missing", d.unit),
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

pub fn run(args: &SuiteArgs) -> bool {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = obj(vec![
        ("seed", pos(args.seed)),
        ("seconds", num(args.seconds)),
        ("nproc", pos(nproc as u64)),
        ("undersized", Value::Bool(nproc < workloads::WORKERS)),
        (
            "kernel",
            Value::String(fedca_tensor::gemm::active_kernel().name().into()),
        ),
        ("rustc", Value::String(command_line("rustc", &["-V"]))),
        (
            "git_rev",
            Value::String(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ]);
    println!(
        "environment: {}",
        serde_json::to_string(&env).expect("value trees always serialize")
    );

    let mut ok = true;
    let mut fingerprints: Vec<(String, String)> = Vec::new();
    let mut entries: Vec<(String, Value)> = Vec::new();
    for name in names {
        println!("workload {name}");
        let mut runs = Vec::new();
        for trace in [false, true] {
            match run_child(name, args, trace) {
                Ok(run) => runs.push(run),
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ok = false;
                }
            }
        }
        let [plain, traced] = match <[ChildRun; 2]>::try_from(runs) {
            Ok(pair) => pair,
            Err(_) => continue,
        };
        print_table("end to end (tracing off)", END_TO_END, &plain);
        let attempted = as_f64(plain.result.get("attempted")).unwrap_or(0.0);
        let failed = as_f64(plain.result.get("failed")).unwrap_or(0.0);
        println!(
            "    {:<34} {:>14.4} {:<8} n={}",
            "failed_share",
            failed / attempted.max(1.0),
            "ratio",
            attempted as u64
        );
        print_table(
            "per layer (traced run and isolated probes)",
            PER_LAYER,
            &traced,
        );
        let fp = |run: &ChildRun| match run.info.get("fingerprint") {
            Some(Value::String(s)) => s.clone(),
            _ => "missing".into(),
        };
        let (fp_plain, fp_traced) = (fp(&plain), fp(&traced));
        println!("    fingerprint {fp_plain} (untraced), {fp_traced} (traced)");
        if fp_plain != fp_traced {
            eprintln!("benchmark: check failed on {name}: traced and untraced fingerprints differ");
            ok = false;
        }
        for run in [&plain, &traced] {
            if run.result.get("correct") != Some(&Value::Bool(true)) {
                ok = false;
            }
        }
        fingerprints.push((name.to_string(), fp_plain.clone()));
        entries.push((
            name.to_string(),
            obj(vec![
                ("fingerprint", Value::String(fp_plain)),
                (
                    "attempted",
                    plain
                        .result
                        .get("attempted")
                        .cloned()
                        .unwrap_or(Value::Null),
                ),
                (
                    "failed",
                    plain.result.get("failed").cloned().unwrap_or(Value::Null),
                ),
                (
                    "end_to_end",
                    plain.result.get("metrics").cloned().unwrap_or(Value::Null),
                ),
                (
                    "per_layer",
                    traced.result.get("metrics").cloned().unwrap_or(Value::Null),
                ),
                ("untraced_info", plain.info),
                ("traced_info", traced.info),
            ]),
        ));
    }

    // Topology invariance across processes: the sharded twin of cnn_fedca
    // must have computed exactly what cnn_fedca computed.
    let fp_of = |w: &str| fingerprints.iter().find(|(n, _)| n == w).map(|(_, f)| f);
    if let (Some(local), Some(sharded)) = (fp_of("cnn_fedca"), fp_of("cnn_fedca_shard2")) {
        if local != sharded {
            eprintln!(
                "benchmark: check failed: cnn_fedca {local} and cnn_fedca_shard2 {sharded} differ"
            );
            ok = false;
        }
    }

    if let Some(path) = &args.out {
        let doc = obj(vec![("env", env), ("workloads", Value::Object(entries))]);
        let text = serde_json::to_string_pretty(&doc).expect("value trees always serialize");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("benchmark: cannot write --out {path}: {e}");
            ok = false;
        }
    }
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    ok
}
