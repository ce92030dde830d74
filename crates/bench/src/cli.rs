//! The command line, parsed once: `main` turns the process arguments into a
//! [`Cli`] and everything downstream takes its settings from that value.

use crate::studies;
use crate::ExpScale;
use fedca_compress::Compression;
use std::fmt;
use std::path::PathBuf;

/// The usage text printed with every [`CliError`]: every flag with its
/// accepted forms.
pub fn usage() -> String {
    let mut out = "usage: fedca-bench <study>... | all | list  [flags]\n  \
                   (flags take `--flag VALUE` or `--flag=VALUE`)"
        .to_string();
    for (flag, forms) in FLAGS {
        out.push_str(&format!("\n  {flag:<17} {forms}"));
    }
    out
}

/// What the invocation asks for.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Command {
    /// Print the study registry.
    #[default]
    List,
    /// Run these registry studies, in the order given (`all` = registry
    /// order).
    Studies(Vec<&'static str>),
}

/// Every user-settable value of one invocation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Cli {
    /// What to do.
    pub command: Command,
    /// `--scale`: experiment tier.
    pub scale: ExpScale,
    /// `--seed`: master seed of every workload and federation; read it
    /// through [`Cli::seed`], which applies the default.
    pub seed: Option<u64>,
    /// `--compression`: upload-compression override.
    pub compression: Option<Compression>,
    /// `--n-clients`: population-size override (≥ 1).
    pub n_clients: Option<usize>,
    /// `--trace`: JSONL trace destination (tracing is off without it).
    pub trace: Option<PathBuf>,
    /// `--out`: write `DIR/<study>.csv` + `.log` instead of stdout/stderr.
    pub out: Option<PathBuf>,
}

/// A command line that cannot be run. `main` prints it with [`usage`] and
/// exits 2.
#[derive(Clone, Debug, PartialEq)]
pub enum CliError {
    /// No study or command was named.
    MissingCommand,
    /// A `--flag` this binary does not have.
    UnknownFlag(String),
    /// A flag's value is missing (`None`) or outside its accepted forms.
    BadValue {
        /// The flag.
        flag: &'static str,
        /// What was given.
        value: Option<String>,
        /// Its accepted forms.
        expected: &'static str,
    },
    /// A positional argument that names no study or command.
    UnknownStudy(String),
    /// An `--out` file could not be created or written: `path: OS error`.
    Io(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "name a study, `all` or `list`"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            CliError::BadValue {
                flag,
                value,
                expected,
            } => match value {
                Some(value) => write!(f, "{flag} {value:?}: expected {expected}"),
                None => write!(f, "{flag} requires a value: {expected}"),
            },
            CliError::UnknownStudy(name) => write!(
                f,
                "unknown study {name:?}; the registry has: {}",
                studies::names().join(" ")
            ),
            CliError::Io(what) => f.write_str(what),
        }
    }
}

impl std::error::Error for CliError {}

/// Every flag with its accepted forms.
const FLAGS: [(&str, &str); 6] = [
    ("--scale", "smoke|scaled|paper (default scaled)"),
    ("--seed", "a non-negative integer (default 42)"),
    ("--compression", "none|int8|q1..q8|topP, 0 < P <= 100"),
    ("--n-clients", "a positive integer (population size)"),
    ("--trace", "a file path (JSONL trace, numbered per cell)"),
    ("--out", "a directory for <study>.csv and <study>.log"),
];

/// Parses a compression spec: `none`, `int8` (deterministic 8-bit),
/// `qN` (stochastic QSGD with `N` bits, e.g. `q4`), or `topP` (top-`P`%
/// sparsification, e.g. `top10`). `None` for anything else.
pub fn parse_compression(spec: &str) -> Option<Compression> {
    let s = spec.trim();
    match s {
        "none" => return Some(Compression::None),
        "int8" => return Some(Compression::Int8),
        _ => {}
    }
    if let Some(bits) = s.strip_prefix('q').and_then(|v| v.parse::<u8>().ok()) {
        return (1..=8)
            .contains(&bits)
            .then_some(Compression::Quantize { bits });
    }
    let pct = s.strip_prefix("top")?.parse::<f32>().ok()?;
    (pct > 0.0 && pct <= 100.0).then_some(Compression::TopK { keep: pct / 100.0 })
}

impl Cli {
    /// Parses the arguments after `argv[0]`. Flags take `--flag value` or
    /// `--flag=value`; everything else names a study or a command.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, CliError> {
        let mut cli = Cli::default();
        let mut names = Vec::new();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                names.push(arg);
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (arg.as_str(), None),
            };
            let known = FLAGS.iter().find(|(f, _)| *f == name);
            let &(flag, expected) = known.ok_or_else(|| CliError::UnknownFlag(arg.clone()))?;
            let value = inline.or_else(|| args.next_if(|next| !next.starts_with("--")));
            let stored = value.as_deref().and_then(|v| cli.set(flag, v));
            stored.ok_or(CliError::BadValue {
                flag,
                value,
                expected,
            })?;
        }
        cli.command = command(&names)?;
        Ok(cli)
    }

    /// `--seed`, or the default master seed 42.
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(42)
    }

    /// Stores one flag's value; `None` when it is outside the accepted forms.
    fn set(&mut self, flag: &str, v: &str) -> Option<()> {
        match flag {
            "--scale" => self.scale = ExpScale::parse(v)?,
            "--seed" => self.seed = Some(v.parse().ok()?),
            "--compression" => self.compression = Some(parse_compression(v)?),
            "--n-clients" => self.n_clients = Some(v.parse().ok().filter(|n| *n > 0)?),
            "--trace" => self.trace = Some(v.into()),
            "--out" => self.out = Some(v.into()),
            _ => return None,
        }
        Some(())
    }
}

/// Resolves the positional arguments: one command, or study names.
fn command(names: &[String]) -> Result<Command, CliError> {
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    match names[..] {
        [] => Err(CliError::MissingCommand),
        ["list"] => Ok(Command::List),
        ["all"] => Ok(Command::Studies(studies::names())),
        _ => names
            .iter()
            .map(|n| {
                let found = studies::find(n).map(|s| s.name);
                found.ok_or_else(|| CliError::UnknownStudy(n.to_string()))
            })
            .collect::<Result<_, _>>()
            .map(Command::Studies),
    }
}
