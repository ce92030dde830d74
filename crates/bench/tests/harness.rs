//! The `fedca-bench` harness contracts: the command line parses to one
//! `Cli` or a typed error, the registry is the single list of studies, and
//! sharing a cell is invisible to the studies that read it. Everything
//! trains `tiny_mlp` or a sub-second smoke study.

use fedca_bench::cells::NO_TARGET;
use fedca_bench::cli::parse_compression;
use fedca_bench::studies::{self, STUDIES};
use fedca_bench::study::{CONSECUTIVE_ROUNDS, EARLY_LATE_ROUNDS};
use fedca_bench::{apply_population, fl_config, Cells, Cli, CliError, Command, ExpScale};
use fedca_compress::Compression;
use fedca_core::metrics::RoundRecord;
use fedca_core::workload::Scale;
use fedca_core::{Scheme, Trainer, Workload};
use std::process::Command as Process;

fn parse(args: &[&str]) -> Result<Cli, CliError> {
    Cli::parse(args.iter().map(|a| a.to_string()))
}

// --- (a) the command line ---------------------------------------------------

#[test]
fn every_accepted_spelling_parses_to_the_expected_cli() {
    let overhead = Command::Studies(vec!["overhead"]);
    let base = || Cli {
        command: overhead.clone(),
        ..Cli::default()
    };
    type Expect = fn(&mut Cli);
    let table: [(&[&str], Expect); 21] = [
        (&[], |_| {}),
        (&["--scale", "smoke"], |c| c.scale = ExpScale::Smoke),
        (&["--scale=paper"], |c| c.scale = ExpScale::Paper),
        (&["--seed", "7"], |c| c.seed = Some(7)),
        (&["--seed=0"], |c| c.seed = Some(0)),
        (&["--compression", "none"], |c| {
            c.compression = Some(Compression::None)
        }),
        (&["--compression=int8"], |c| {
            c.compression = Some(Compression::Int8)
        }),
        (&["--compression", "f16"], |c| {
            c.compression = Some(Compression::F16)
        }),
        (&["--compression=q4"], |c| {
            c.compression = Some(Compression::Quantize { bits: 4 })
        }),
        (&["--compression", " q2 "], |c| {
            c.compression = Some(Compression::Quantize { bits: 2 })
        }),
        (&["--compression", "top10"], |c| {
            c.compression = Some(Compression::TopK { keep: 0.1 })
        }),
        (&["--n-clients", "5"], |c| c.n_clients = Some(5)),
        (&["--n-clients=1000000"], |c| c.n_clients = Some(1_000_000)),
        (&["--shards", "0"], |c| c.shards = Some(0)),
        (&["--shards=4"], |c| c.shards = Some(4)),
        (&["--trace", "t.jsonl"], |c| {
            c.trace = Some("t.jsonl".into())
        }),
        (&["--trace=out/t.jsonl"], |c| {
            c.trace = Some("out/t.jsonl".into())
        }),
        (&["--checkpoint-dir", "ck", "--resume"], |c| {
            c.checkpoint_dir = Some("ck".into());
            c.resume = true;
        }),
        (&["--checkpoint-dir=ck"], |c| {
            c.checkpoint_dir = Some("ck".into())
        }),
        (&["--out", "results/smoke"], |c| {
            c.out = Some("results/smoke".into())
        }),
        (&["--out=d"], |c| c.out = Some("d".into())),
    ];
    for (flags, expect) in table {
        let mut want = base();
        expect(&mut want);
        // Flags parse the same before and after the study name.
        let name: &[&str] = &["overhead"];
        for args in [[name, flags].concat(), [flags, name].concat()] {
            assert_eq!(parse(&args), Ok(want.clone()), "{args:?}");
        }
    }

    assert_eq!(parse(&["list"]).map(|c| c.command), Ok(Command::List));
    let two = parse(&["fig8_cdf", "overhead"]).expect("two studies");
    assert_eq!(
        two.command,
        Command::Studies(vec!["fig8_cdf", "overhead"]),
        "studies run in the order given"
    );
    assert_eq!((two.seed(), two.scale), (42, ExpScale::Scaled), "defaults");
}

/// An error's variant and the flag or name it carries.
fn kind(e: &CliError) -> (&'static str, String) {
    match e {
        CliError::MissingCommand => ("missing-command", String::new()),
        CliError::UnknownFlag(flag) => ("unknown-flag", flag.clone()),
        CliError::BadValue {
            flag, value: None, ..
        } => ("missing-value", flag.to_string()),
        CliError::BadValue { flag, .. } => ("bad-value", flag.to_string()),
        CliError::UnknownStudy(name) => ("unknown-study", name.clone()),
        CliError::Io { .. } => ("io", String::new()),
    }
}

#[test]
fn every_malformed_command_line_is_a_typed_error() {
    let table: [(&[&str], &str, &str); 27] = [
        (&[], "missing-command", ""),
        (&["--scale", "smoke"], "missing-command", ""),
        (&["overhead", "--scale", "x"], "bad-value", "--scale"),
        (&["overhead", "--seed", "-1"], "bad-value", "--seed"),
        (
            &["overhead", "--n-clients", "0"],
            "bad-value",
            "--n-clients",
        ),
        (&["overhead", "--n-clients"], "missing-value", "--n-clients"),
        (
            &["overhead", "--n-clients", "--resume"],
            "missing-value",
            "--n-clients",
        ),
        (
            &["overhead", "--compression", "q0"],
            "bad-value",
            "--compression",
        ),
        (
            &["overhead", "--compression=q9"],
            "bad-value",
            "--compression",
        ),
        (
            &["overhead", "--compression", "top0"],
            "bad-value",
            "--compression",
        ),
        (
            &["overhead", "--compression", "top101"],
            "bad-value",
            "--compression",
        ),
        (
            &["overhead", "--compression", "fp32"],
            "bad-value",
            "--compression",
        ),
        (
            &["overhead", "--compression="],
            "bad-value",
            "--compression",
        ),
        (&["overhead", "--shards", "-1"], "bad-value", "--shards"),
        (&["overhead", "--trace"], "missing-value", "--trace"),
        (&["overhead", "--resume=yes"], "bad-value", "--resume"),
        (
            &["overhead", "--frobnicate"],
            "unknown-flag",
            "--frobnicate",
        ),
        (&["overhead", "fig11"], "unknown-study", "fig11"),
        // The retired probe spellings.
        (&["probe-shard"], "unknown-study", "probe-shard"),
        (&["probe-population"], "unknown-study", "probe-population"),
        (&["list", "--cohort", "4"], "unknown-flag", "--cohort"),
        (&["overhead", "--rounds=3"], "unknown-flag", "--rounds=3"),
        (&["overhead", "--workers", "2"], "unknown-flag", "--workers"),
        (
            &["overhead", "--workload", "wrn"],
            "unknown-flag",
            "--workload",
        ),
        (
            &["overhead", "--local-iters", "4"],
            "unknown-flag",
            "--local-iters",
        ),
        (&["list", "overhead"], "unknown-study", "list"),
        (&["all", "overhead"], "unknown-study", "all"),
    ];
    for (args, variant, carries) in table {
        let err = parse(args).expect_err(&format!("{args:?} must be rejected"));
        assert_eq!(kind(&err), (variant, carries.to_string()), "{args:?}");
        assert!(!err.to_string().is_empty());
    }
    let unknown = parse(&["fig11"]).expect_err("unknown").to_string();
    for name in studies::names() {
        assert!(unknown.contains(name), "an unknown study lists {name}");
    }
    for bad in ["", "fp32", "q0", "q9", "top0", "top101", "topNaN"] {
        assert_eq!(parse_compression(bad), None, "{bad:?}");
    }
}

/// Runs the real binary; returns `(exit code, stdout)`.
fn fedca_bench(args: &[&str], env: &[(String, String)]) -> (Option<i32>, String) {
    let out = Process::new(env!("CARGO_BIN_EXE_fedca-bench"))
        .args(args)
        .envs(env.iter().map(|(k, v)| (k, v)))
        .output()
        .expect("fedca-bench runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn retired_environment_variables_change_nothing() {
    let dir = std::env::temp_dir().join(format!("fedca-bench-env-{}", std::process::id()));
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    // The seven retired `FEDCA_*` spellings, with values that would have
    // changed the output or written files.
    let retired = [
        ("SCALE", "paper".to_string()),
        ("SEED", "7".to_string()),
        ("COMPRESSION", "int8".to_string()),
        ("N_CLIENTS", "3".to_string()),
        ("SHARDS", "2".to_string()),
        ("TRACE", path("trace.jsonl")),
        ("CHECKPOINT", path("ckpt")),
    ]
    .map(|(name, value)| (format!("FEDCA_{name}"), value));
    let args = ["ext_adaptive_batch", "--scale", "smoke"];
    let (code, clean) = fedca_bench(&args, &[]);
    assert_eq!(code, Some(0));
    assert_eq!(fedca_bench(&args, &retired), (Some(0), clean.clone()));
    assert!(!dir.exists(), "no trace or checkpoint was written");
    // The seed flag is what the variable used to be.
    let (_, seeded) = fedca_bench(&[&args[..], &["--seed", "7"]].concat(), &[]);
    assert_ne!(seeded, clean);
    // Bad input exits 2 with a usage line instead of unwinding.
    assert_eq!(fedca_bench(&["overhead", "--scale", "x"], &[]).0, Some(2));
    assert_eq!(fedca_bench(&["fig11"], &[]).0, Some(2));
    assert_eq!(fedca_bench(&["probe-shard"], &[]).0, Some(2));
    assert_eq!(fedca_bench(&["list", "--cohort", "4"], &[]).0, Some(2));
}

// --- (b) the registry -------------------------------------------------------

#[test]
fn the_registry_is_the_one_list_of_studies() {
    let names = studies::names();
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names are unique");
    assert!(names.contains(&"tta_quantized"));
    let all = parse(&["all"]).expect("all parses").command;
    assert_eq!(all, Command::Studies(names));
    let listing = studies::list();
    let readme = include_str!("../../../README.md");
    for s in &STUDIES {
        assert!(listing.contains(s.name) && listing.contains(s.paper));
    }
    for line in listing.lines() {
        assert!(readme.contains(line.trim_end()), "README lacks: {line}");
    }
}

#[test]
fn a_studys_header_is_the_first_line_it_emits() {
    for name in ["overhead", "ext_adaptive_batch"] {
        let study = studies::find(name).expect("registered");
        let (code, stdout) = fedca_bench(&[name, "--scale", "smoke"], &[]);
        assert_eq!(code, Some(0));
        let mut lines = stdout.lines();
        assert_eq!(lines.next(), Some(study.header));
        let columns = study.header.split(',').count();
        let rows: Vec<&str> = lines.collect();
        assert!(!rows.is_empty());
        for row in rows {
            assert_eq!(row.split(',').count(), columns, "{name}: {row}");
        }
    }
}

#[test]
fn out_dir_gets_one_csv_and_one_log_per_study() {
    let dir = std::env::temp_dir().join(format!("fedca-bench-out-{}", std::process::id()));
    let out = dir.to_string_lossy().into_owned();
    let (code, stdout) = fedca_bench(&["overhead", "--scale", "smoke", "--out", &out], &[]);
    assert_eq!((code, stdout.as_str()), (Some(0), ""));
    let (_, direct) = fedca_bench(&["overhead", "--scale", "smoke"], &[]);
    assert_eq!(
        std::fs::read_to_string(dir.join("overhead.csv")).ok(),
        Some(direct)
    );
    let log = std::fs::read_to_string(dir.join("overhead.log")).expect("log written");
    assert!(log.contains("[fedca-bench] cnn:"));
    std::fs::remove_dir_all(&dir).expect("clean up");
}

// --- (c) cells --------------------------------------------------------------

fn smoke_cli() -> Cli {
    Cli {
        scale: ExpScale::Smoke,
        seed: Some(11),
        ..Cli::default()
    }
}

#[test]
fn requests_that_differ_in_any_key_part_do_not_alias() {
    let cli = smoke_cli();
    let mut cells = Cells::new(&cli);
    let w = Workload::tiny_mlp(cli.seed());
    let fl = fl_config(&w, &cli);
    let base = cells.run(Scheme::FedAvg, &w, &fl, NO_TARGET, 2, 1);
    assert_eq!(cells.rounds_trained(), 2);

    let mut wide = w.clone();
    wide.wire_model_bytes *= 100.0;
    let slow = cells.run(Scheme::FedAvg, &wide, &fl, NO_TARGET, 2, 1);
    assert_eq!(cells.rounds_trained(), 4, "wire size is part of the key");
    assert!(slow.rounds[1].end > base.rounds[1].end);

    let blind = cells.run(Scheme::FedAvg, &w, &fl, NO_TARGET, 2, 0);
    assert_eq!(cells.rounds_trained(), 6, "eval cadence is part of the key");
    assert!(blind.rounds.iter().all(|r| r.accuracy.is_none()));
    assert!(base.rounds.iter().all(|r| r.accuracy.is_some()));

    let mut int8 = fl.clone();
    int8.compression = Compression::Int8;
    let packed = cells.run(Scheme::FedAvg, &w, &int8, NO_TARGET, 2, 1);
    assert_eq!(cells.rounds_trained(), 8, "the config is part of the key");
    assert!(packed.rounds[0].wire_bytes_uploaded < base.rounds[0].wire_bytes_uploaded);

    cells.run(Scheme::fedca_default(), &w, &fl, NO_TARGET, 2, 1);
    assert_eq!(cells.rounds_trained(), 10, "the scheme is part of the key");

    let again = cells.run(Scheme::FedAvg, &w, &fl, NO_TARGET, 2, 1);
    assert_eq!(
        cells.rounds_trained(),
        10,
        "an identical request trains nothing"
    );
    assert_eq!(again.rounds, base.rounds);
}

#[test]
fn a_view_is_the_prefix_the_request_would_have_trained_alone() {
    let cli = smoke_cli();
    let mut cells = Cells::new(&cli);
    let w = Workload::tiny_mlp(cli.seed());
    let fl = fl_config(&w, &cli);
    let fresh = |until: Option<f32>, rounds: usize| {
        let mut t = Trainer::new(fl.clone(), Scheme::fedca_default(), w.clone());
        match until {
            Some(target) => t.run_until_accuracy(target, rounds),
            None => t.run(rounds),
        }
    };
    let mut ask =
        |target: f32, rounds: usize| cells.run(Scheme::fedca_default(), &w, &fl, target, rounds, 1);

    let canonical = |rounds: &[RoundRecord]| -> Vec<RoundRecord> {
        rounds.iter().map(RoundRecord::canonical).collect()
    };

    // 3 rounds, extended to 5: both prefixes equal a fresh trainer's.
    let three = ask(NO_TARGET, 3);
    let five = ask(NO_TARGET, 5);
    assert_eq!(canonical(&three.rounds), canonical(&fresh(None, 3).rounds));
    assert_eq!(canonical(&five.rounds), canonical(&fresh(None, 5).rounds));
    assert_eq!(ask(NO_TARGET, 3).rounds, three.rounds);
    assert_eq!(
        (three.scheme.as_str(), three.workload.as_str()),
        ("FedCA", "tiny_mlp")
    );

    // "Until accuracy" after the longer fixed run: same first crossing as
    // run_until_accuracy alone, and nothing past it.
    let target = five.rounds[1].accuracy.expect("evaluated every round");
    let reached = ask(target, 5);
    let alone = fresh(Some(target), 5);
    assert_eq!(canonical(&reached.rounds), canonical(&alone.rounds));
    assert_eq!(
        reached.time_to_accuracy(target),
        alone.time_to_accuracy(target)
    );
    assert!(reached.rounds.len() <= 2);

    // An unreachable target sees max_rounds records, not the longer run.
    let missed = ask(2.0, 4);
    assert_eq!(missed.rounds, five.rounds[..4]);
    assert_eq!(missed.time_to_accuracy(2.0), None);

    // ... and extends the cell when the budget exceeds what was trained.
    assert_eq!(ask(2.0, 6).rounds.len(), 6);
    assert_eq!(cells.rounds_trained(), 6, "one cell served every request");
}

#[test]
fn trace_paths_are_numbered_per_run() {
    let dir = std::env::temp_dir().join(format!("fedca-bench-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let listing = || {
        let entries = std::fs::read_dir(&dir).expect("listable");
        let mut names: Vec<String> = entries
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    // Three requests, two cells: a cell keeps its number when it is extended.
    let three_requests = |cli: &Cli| {
        let mut cells = Cells::new(cli);
        let w = Workload::tiny_mlp(cli.seed());
        let fl = fl_config(&w, cli);
        cells.run(Scheme::FedAvg, &w, &fl, NO_TARGET, 1, 0);
        cells.run(Scheme::fedca_default(), &w, &fl, NO_TARGET, 1, 0);
        cells.run(Scheme::FedAvg, &w, &fl, NO_TARGET, 2, 0);
    };
    three_requests(&Cli {
        trace: Some(dir.join("t.jsonl")),
        checkpoint_dir: Some(dir.join("ckpt")),
        ..smoke_cli()
    });
    assert_eq!(listing(), ["ckpt", "ckpt.1", "t.1.jsonl", "t.jsonl"]);
    let generations = std::fs::read_dir(dir.join("ckpt")).expect("cell 0's directory");
    assert_eq!(generations.count(), 2, "one generation per round of cell 0");
    // A base without an extension gets a plain numeric suffix.
    three_requests(&Cli {
        trace: Some(dir.join("trace")),
        ..smoke_cli()
    });
    assert!(listing().ends_with(&["trace".to_string(), "trace.1".to_string()]));
    std::fs::remove_dir_all(&dir).expect("clean up");
}

// --- (d) config plumbing ----------------------------------------------------

#[test]
fn scale_mapping() {
    assert_eq!(ExpScale::Scaled.workload_scale(), Scale::Scaled);
    assert_eq!(ExpScale::Paper.workload_scale(), Scale::Paper);
    assert_eq!(ExpScale::Smoke.workload_scale(), Scale::Scaled);
    for (i, name) in ExpScale::NAMES.iter().enumerate() {
        let scale = ExpScale::parse(name).expect("a listed name parses");
        assert_eq!(scale.pick([0, 1, 2]), i);
    }
    // One testbed run recording Fig. 4's rounds serves Figs. 2 and 3.
    for (two, all) in EARLY_LATE_ROUNDS.iter().zip(CONSECUTIVE_ROUNDS) {
        assert!(two.iter().all(|r| all.contains(r)));
    }
}

#[test]
fn population_override_clamps_cohort_and_bounds_residency() {
    let w = Workload::tiny_mlp(1);
    let mut fl = fl_config(&w, &smoke_cli());
    apply_population(&mut fl, 2);
    assert_eq!(fl.n_clients, 2);
    assert_eq!(fl.clients_per_round, 2);
    assert_eq!(fl.population.cache_clients, 0, "small stays eager");
    let big = Cli {
        n_clients: Some(1_000_000),
        ..Cli::default()
    };
    let big = fl_config(&w, &big);
    assert_eq!(big.n_clients, 1_000_000);
    assert_eq!(big.clients_per_round, 8);
    assert_eq!(big.population.cache_clients, 256);
}

#[test]
fn fl_config_adopts_workload_hypers_and_overrides() {
    let w = Workload::tiny_mlp(1);
    let fl = fl_config(&w, &smoke_cli());
    assert_eq!(fl.lr, w.lr);
    assert_eq!(fl.weight_decay, w.weight_decay);
    assert_eq!(fl.seed, 11);
    assert_eq!(fl.n_clients, 16);
    assert_eq!((fl.compression, fl.shard.n_shards), (Compression::None, 0));
    let overridden = Cli {
        compression: Some(Compression::Int8),
        shards: Some(2),
        ..smoke_cli()
    };
    let fl = fl_config(&w, &overridden);
    assert_eq!((fl.compression, fl.shard.n_shards), (Compression::Int8, 2));
}
