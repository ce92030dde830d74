//! `fedca-bench <study>… | all | list`: see the library docs and
//! `fedca-bench list`.

use fedca_bench::cli::usage;
use fedca_bench::{studies, Cells, Cli, CliError, Command, ExpScale, Log};
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

fn main() {
    let code = match Cli::parse(std::env::args().skip(1)).and_then(|cli| run(&cli)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fedca-bench: {e}\n{}", usage());
            2
        }
    };
    std::process::exit(code);
}

/// Runs the command; the exit code is 1 when a study's verdict failed.
fn run(cli: &Cli) -> Result<i32, CliError> {
    match &cli.command {
        Command::List => {
            print!("{}", studies::list());
            Ok(0)
        }
        Command::Studies(names) => run_studies(cli, names),
    }
}

/// Runs the studies in order over one shared cell store, so a trajectory
/// two studies read is trained once. A failed verdict does not stop the
/// studies after it.
fn run_studies(cli: &Cli, names: &[&'static str]) -> Result<i32, CliError> {
    let io_error =
        |path: &Path, e: std::io::Error| CliError::Io(format!("{}: {e}", path.display()));
    let mut cells = Cells::new(cli);
    for name in names {
        let study = studies::find(name).expect("parse() only admits registry names");
        let mut csv_path = None;
        if let Some(dir) = &cli.out {
            fs::create_dir_all(dir).map_err(|e| io_error(dir, e))?;
            let log_path = dir.join(format!("{name}.log"));
            let log = File::create(&log_path).map_err(|e| io_error(&log_path, e))?;
            cells.log = Log(Some(log));
            csv_path = Some(dir.join(format!("{name}.csv")));
            eprintln!("[fedca-bench] {name} -> {}", dir.display());
        }
        // Provenance: the tier decides only how fast the study ran; every
        // tier computes the same bits, so the CSV is the same on any tier.
        let kernel = fedca_tensor::gemm::active_kernel().name();
        let (scale, seed) = (cli.scale.pick(ExpScale::NAMES), cli.seed());
        cells.note(format!(
            "{name}: scale {scale}, seed {seed}, gemm kernel {kernel}"
        ));
        let mut csv = format!("{}\n", study.header);
        for row in (study.run)(study, &mut cells) {
            csv.push_str(&row);
            csv.push('\n');
        }
        match &csv_path {
            Some(path) => fs::write(path, csv).map_err(|e| io_error(path, e))?,
            // A closed stdout (`| head`) must not panic the run.
            None => drop(std::io::stdout().write_all(csv.as_bytes())),
        }
    }
    if cells.verdicts_failed.is_empty() {
        return Ok(0);
    }
    eprintln!(
        "[fedca-bench] verdict failed: {}",
        cells.verdicts_failed.join(" ")
    );
    Ok(1)
}
