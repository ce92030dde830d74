//! `--compare A.json B.json`: two suite outputs (`--out`) side by side. Per
//! metric × workload it prints both values, B's difference relative to A,
//! the bound, and a verdict; only bounded end-to-end cells can `exceed`.

use crate::report::{Better, MetricDef, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::process::ExitCode;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn value_of(doc: &Value, workload: &str, section: &str, metric: &str) -> Option<f64> {
    match doc
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?
        .get("value")?
    {
        Value::Number(n) => Some(n.as_f64()),
        _ => None,
    }
}

/// Prints one section; returns how many cells exceeded their bound.
fn section(a: &Value, b: &Value, workload: &str, key: &str, defs: &[MetricDef]) -> usize {
    let mut exceeded = 0;
    for d in defs {
        let (Some(va), Some(vb)) = (
            value_of(a, workload, key, d.name),
            value_of(b, workload, key, d.name),
        ) else {
            println!("  {:<34} missing in one file", d.name);
            continue;
        };
        // Relative to A; a zero base has no ratio.
        let rel = if va != 0.0 { (vb - va) / va.abs() } else { 0.0 };
        let worse = match d.better {
            Better::Higher => -rel,
            Better::Lower => rel,
        };
        let (bound, verdict) = match d.bound {
            Some(bound) if worse > bound => {
                exceeded += 1;
                (format!("{:.0}%", bound * 100.0), "exceeds")
            }
            Some(bound) => (format!("{:.0}%", bound * 100.0), "within"),
            None => ("-".into(), "informational"),
        };
        println!(
            "  {:<34} {:>14.4} {:>14.4} {:<8} {:>+8.2}% of A  bound {:<4} {}",
            d.name,
            va,
            vb,
            d.unit,
            rel * 100.0,
            bound,
            verdict
        );
    }
    exceeded
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(Value::Object(workloads)) = a.get("workloads") else {
        eprintln!("benchmark: {path_a} has no workloads object");
        return ExitCode::from(2);
    };
    let mut exceeded = 0;
    for (name, entry) in workloads {
        let Some(other) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("workload {name}: missing in {path_b}");
            continue;
        };
        println!("workload {name}   A = {path_a}   B = {path_b}");
        exceeded += section(&a, &b, name, "end_to_end", END_TO_END);
        section(&a, &b, name, "per_layer", PER_LAYER);
        let same = entry.get("fingerprint") == other.get("fingerprint");
        println!(
            "  fingerprint {}",
            if same {
                "identical"
            } else {
                "DIFFERS (the arithmetic or the trajectory changed)"
            }
        );
    }
    if exceeded > 0 {
        println!("{exceeded} bounded end-to-end cells exceed their bound");
        ExitCode::FAILURE
    } else {
        println!("every bounded end-to-end cell is within its bound");
        ExitCode::SUCCESS
    }
}
