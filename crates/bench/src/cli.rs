//! Command-line parsing shared by every harness binary.
//!
//! `figure3`, `figure4`, `ablations`, and `kv_bench` all take the same
//! simulator knobs (`--jobs`, `--repeat`, `--topology`, `--json`, ...);
//! this module parses them once into a [`Cli`] and owns the equally
//! repetitive tail — the sweep's wall-time line, the `SweepMeta` header
//! and the `--json` report write. Binaries with extra flags hook them
//! in through [`parse_cli_with`] instead of forking the parser.

use tt_base::{SystemConfig, Topology};

use crate::json::{write_report, PointRecord, SweepMeta};
use crate::{bench_config, par, Run, RunOutcome};

/// Command-line options shared by the figure/ablation binaries.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Data-set divisor (1 = the paper's sizes).
    pub scale: usize,
    /// Simulated machine size.
    pub nodes: usize,
    /// Worker threads for the point sweep (default: available
    /// parallelism). Any value produces identical tables.
    pub jobs: usize,
    /// Runs per point; wall timings are min-of-N (default 1). Cycle
    /// counts are asserted identical across repeats.
    pub repeat: usize,
    /// Interconnect model (`ideal` keeps the paper's constant-latency
    /// pipe and its byte-identical tables; `mesh[:width]` adds per-link
    /// occupancy).
    pub(crate) topology: Topology,
    /// Where to write the machine-readable run report, if anywhere.
    pub(crate) json: Option<std::path::PathBuf>,
}

impl Cli {
    /// The [`bench_config`] for this invocation, with the `--topology`
    /// setting applied.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = bench_config(self.nodes);
        cfg.topology = self.topology;
        cfg
    }

    /// The [`SweepMeta`] header for this invocation's report.
    pub(crate) fn sweep_meta(&self, figure: &str, total_wall_secs: f64) -> SweepMeta {
        SweepMeta {
            figure: figure.into(),
            nodes: self.nodes,
            scale: self.scale,
            jobs: self.jobs,
            repeat: self.repeat,
            topology: self.topology,
            total_wall_secs,
        }
    }

    /// The shared tail of every sweep binary: prints the sweep's wall
    /// time to stderr and writes the `--json` report of `runs`, which
    /// finished as `outs`, if one was requested.
    pub fn finish(&self, figure: &str, total_wall_secs: f64, runs: &[Run], outs: &[RunOutcome]) {
        eprintln!(
            "  sweep: {n} runs in {total_wall_secs:.2}s wall ({jobs} jobs)",
            n = runs.len(),
            jobs = self.jobs,
        );
        if let Some(path) = &self.json {
            let meta = self.sweep_meta(figure, total_wall_secs);
            let records: Vec<PointRecord> =
                runs.iter().zip(outs).map(|(run, out)| PointRecord::new(run, out)).collect();
            write_report(path, &meta, &records).expect("write --json report");
            eprintln!("  wrote {}", path.display());
        }
    }
}

/// Help text for the flags every harness binary shares, printed after
/// the binary's own usage block.
pub(crate) const SHARED_FLAGS: &str = "\
Shared flags:
  --scale N                data-set divisor (1 = the paper's sizes)
  --full                   the paper's exact sizes (--scale 1)
  --nodes N                simulated machine size (default 32)
  --jobs N                 sweep worker threads (default: available cores)
  --repeat N               runs per point; wall times are min-of-N (default 1)
  --topology T             ideal | mesh[:W]
  --json PATH              write a machine-readable run report
  -h, --help               print this help and exit
";

/// Why parsing stopped without producing a [`Cli`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h`: print the usage and exit 0.
    Help,
    /// A bad or unknown argument, with a one-line reason.
    Bad(String),
}

impl From<String> for CliError {
    fn from(reason: String) -> Self {
        CliError::Bad(reason)
    }
}

impl CliError {
    /// Ends the process the conventional way: `Help` prints `usage` and
    /// the shared flags to stdout and exits 0; `Bad` prints the reason,
    /// then the usage, to stderr and exits 2.
    pub(crate) fn exit(self, usage: &str) -> ! {
        self.exit_with_help(&format!("{usage}\n{SHARED_FLAGS}"))
    }

    /// `CliError::exit` for a binary whose help text is all its own
    /// (`tt-check` takes none of the shared flags).
    pub fn exit_with_help(self, help: &str) -> ! {
        match self {
            CliError::Help => {
                print!("{help}");
                std::process::exit(0)
            }
            CliError::Bad(reason) => {
                eprint!("error: {reason}\n\n{help}");
                std::process::exit(2)
            }
        }
    }
}

/// A binary's hook for its own flags; see [`parse_cli_with`].
pub(crate) type ExtraFlags<'a> =
    dyn FnMut(&str, &[String], &mut usize) -> Result<bool, String> + 'a;

/// Parses `--scale N`, `--nodes N`, `--full`, `--jobs N`, `--repeat N`,
/// `--topology ideal|mesh[:W]`, and `--json PATH` arguments
/// shared by the harness binaries. On `--help` or a bad argument, prints
/// `usage` (plus `SHARED_FLAGS`) and exits; see `CliError::exit`.
pub fn parse_cli(args: &[String], default_scale: usize, usage: &str) -> Cli {
    parse_cli_with(args, default_scale, usage, &mut |_, _, _| Ok(false))
}

/// [`parse_cli`] with a hook for binary-specific flags: `extra` is
/// called with `(flag, args, &mut i)` for any argument the shared
/// parser does not recognize. It returns `Ok(true)` once it has
/// consumed the flag (advancing `i` past the flag and its value),
/// `Ok(false)` if the flag is not its own, or `Err` for a bad value.
pub fn parse_cli_with(
    args: &[String],
    default_scale: usize,
    usage: &str,
    extra: &mut ExtraFlags,
) -> Cli {
    try_parse_cli_with(args, default_scale, extra).unwrap_or_else(|e| e.exit(usage))
}

/// The parser behind [`parse_cli_with`], returning instead of exiting.
pub(crate) fn try_parse_cli_with(
    args: &[String],
    default_scale: usize,
    extra: &mut ExtraFlags,
) -> Result<Cli, CliError> {
    let mut cli = Cli {
        scale: default_scale,
        nodes: 32,
        jobs: par::default_jobs(),
        repeat: 1,
        topology: Topology::Ideal,
        json: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => return Err(CliError::Help),
            "--scale" => cli.scale = at_least_one(args, i, "--scale")?,
            "--nodes" => cli.nodes = number(args, i, "--nodes")?,
            "--jobs" => cli.jobs = at_least_one(args, i, "--jobs")?,
            "--repeat" => cli.repeat = number(args, i, "--repeat")?.max(1),
            "--topology" => {
                cli.topology = value(args, i, "--topology")?
                    .parse()
                    .map_err(|e| format!("--topology: {e}"))?;
            }
            "--json" => cli.json = Some(std::path::PathBuf::from(value(args, i, "--json")?)),
            "--full" => {
                cli.scale = 1;
                i += 1;
                continue;
            }
            other => {
                let before = i;
                if !extra(other, args, &mut i)? {
                    return Err(CliError::Bad(format!("unknown argument {other}")));
                }
                assert!(i > before, "extra-flag hook must consume {other}");
                continue;
            }
        }
        // Every shared flag but `--full` takes one value.
        i += 2;
    }
    cli.config().validate().map_err(|e| format!("--nodes: {e}"))?;
    Ok(cli)
}

/// The value following flag position `i`.
pub fn value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, String> {
    args.get(i + 1).map(String::as_str).ok_or_else(|| format!("{flag} requires a value"))
}

/// The numeric value following flag position `i`.
pub fn number(args: &[String], i: usize, flag: &str) -> Result<usize, String> {
    let v = value(args, i, flag)?;
    v.parse().map_err(|e| format!("{flag} N: {v:?}: {e}"))
}

/// [`number`] for a flag whose 0 means nothing: a data-set divisor or
/// a worker count.
fn at_least_one(args: &[String], i: usize, flag: &str) -> Result<usize, String> {
    match number(args, i, flag)? {
        0 => Err(format!("{flag}: must be at least 1")),
        n => Ok(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        try_parse_cli_with(&strs(args), 7, &mut |_, _, _| Ok(false))
    }

    #[test]
    fn extra_flags_are_routed_to_the_hook() {
        let args = strs(&["--nodes", "8", "--keys", "512", "--jobs", "2"]);
        let mut keys = 0usize;
        let cli = parse_cli_with(&args, 1, "usage", &mut |flag, args, i| match flag {
            "--keys" => {
                keys = number(args, *i, "--keys")?;
                *i += 2;
                Ok(true)
            }
            _ => Ok(false),
        });
        assert_eq!(cli.nodes, 8);
        assert_eq!(cli.jobs, 2);
        assert_eq!(keys, 512);
    }

    #[test]
    fn sweep_meta_mirrors_the_cli() {
        let cli = parse(&["--repeat", "3", "--jobs", "2"]).unwrap();
        let meta = cli.sweep_meta("figX", 1.5);
        assert_eq!(meta.figure, "figX");
        assert_eq!(meta.scale, 7);
        assert_eq!((meta.repeat, meta.jobs), (3, 2));
        assert_eq!(meta.topology, Topology::Ideal);
    }

    #[test]
    fn topology_flag_parses_and_reaches_the_config() {
        let cli = parse(&["--topology", "mesh:4"]).unwrap();
        assert_eq!(cli.topology, Topology::Mesh2D { width: 4 });
        assert_eq!(cli.config().topology, Topology::Mesh2D { width: 4 });
        assert_eq!(parse(&[]).unwrap().topology, Topology::Ideal);
    }

    #[test]
    fn help_and_bad_arguments_are_errors_not_panics() {
        assert_eq!(parse(&["--help"]).unwrap_err(), CliError::Help);
        assert_eq!(parse(&["--nodes", "8", "-h"]).unwrap_err(), CliError::Help);
        let bad = |args: &[&str]| match parse(args) {
            Err(CliError::Bad(reason)) => reason,
            other => panic!("{args:?} must be rejected, got {other:?}"),
        };
        assert_eq!(bad(&["--bogus"]), "unknown argument --bogus");
        assert_eq!(bad(&["--jobs"]), "--jobs requires a value");
        assert!(bad(&["--jobs", "abc"]).starts_with("--jobs N: \"abc\""));
        assert_eq!(bad(&["--jobs", "0"]), "--jobs: must be at least 1");
        assert_eq!(bad(&["--scale", "0"]), "--scale: must be at least 1");
        assert_eq!(bad(&["--sim-threads", "2"]), "unknown argument --sim-threads");
        assert!(bad(&["--topology", "ring"]).starts_with("--topology: "));
        assert_eq!(
            bad(&["--topology", "fat-tree"]),
            "--topology: unknown topology \"fat-tree\" (ideal|mesh[:width])"
        );
        assert_eq!(bad(&["--nodes", "0"]), "--nodes: nodes must be between 1 and 65535, got 0");
        assert!(bad(&["--nodes", "65536"]).starts_with("--nodes: "));
        assert!(parse(&["--nodes", "65535"]).is_ok());
        let hook_err = try_parse_cli_with(&strs(&["--keys", "x"]), 1, &mut |_, args, i| {
            number(args, *i, "--keys").map(|_| true)
        });
        assert_eq!(
            hook_err.unwrap_err(),
            CliError::Bad("--keys N: \"x\": invalid digit found in string".into())
        );
    }

    #[test]
    fn full_sets_scale_one_and_takes_no_value() {
        let cli = parse(&["--full", "--nodes", "16"]).unwrap();
        assert_eq!((cli.scale, cli.nodes), (1, 16));
    }
}
