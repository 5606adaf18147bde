//! Command-line behaviour of the harness binaries and `tt-check`:
//! `--help` prints the usage and exits 0; a bad or unknown argument
//! prints a one-line error and the usage to stderr and exits 2 — never
//! a panic backtrace.

use std::process::{Command, Output};

/// Every binary parsing its arguments through `tt_bench::cli`.
const BINARIES: [(&str, &str); 4] = [
    ("figure3", env!("CARGO_BIN_EXE_figure3")),
    ("figure4", env!("CARGO_BIN_EXE_figure4")),
    ("ablations", env!("CARGO_BIN_EXE_ablations")),
    ("kv_bench", env!("CARGO_BIN_EXE_kv_bench")),
];

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .expect("spawn harness binary")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for (name, exe) in BINARIES {
        for flag in ["--help", "-h"] {
            let out = run(exe, &["--nodes", "8", flag]);
            let stdout = text(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "{name} {flag}: {out:?}");
            assert!(
                stdout.starts_with(&format!("Usage: {name} ")),
                "{name}: {stdout}"
            );
            assert!(
                stdout.contains("--topology T"),
                "{name}: shared flags listed"
            );
            assert!(
                out.stderr.is_empty(),
                "{name} {flag}: {}",
                text(&out.stderr)
            );
        }
    }
}

#[test]
fn bad_arguments_print_one_error_line_and_exit_two() {
    let cases: [&[&str]; 10] = [
        &["--bogus"],
        &["--jobs", "abc"],
        // A zero divisor or worker count cannot run (it used to be
        // clamped or reported as given).
        &["--scale", "0"],
        &["--jobs", "0"],
        &["--nodes"],
        // The parallel simulator's flags are gone.
        &["--sim-threads", "2"],
        &["--topology", "ring"],
        // The mesh is the only routed shape: a fat tree is unknown.
        &["--topology", "fat-tree"],
        // Node ids are 16-bit: zero nodes and more than 65,535 are
        // impossible machines, rejected before anything is built.
        &["--nodes", "0"],
        &["--nodes", "70000"],
    ];
    let check = |name: &str, exe: &str, args: &[&str]| {
        let out = run(exe, args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} {args:?}: nothing on stdout");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error: ") && first.contains(args[0]),
            "{name} {args:?}: first line {first:?}"
        );
        assert_eq!(
            stderr.lines().filter(|l| l.starts_with("error:")).count(),
            1,
            "{name} {args:?}: one error line"
        );
        assert!(
            stderr.contains(&format!("Usage: {name} ")),
            "{name}: usage follows"
        );
        assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
    };
    for (name, exe) in BINARIES {
        for args in cases {
            check(name, exe, args);
        }
    }
    // kv_bench's own flags: an empty key space, a value length the
    // slot header cannot record (it packs the length into 8 bits), a
    // zero interarrival and a loss rate above 500 permille are usage
    // errors, not a panic or a silent clamp.
    let (name, kv_bench) = BINARIES[3];
    for args in [
        &["--keys", "0"][..],
        &["--value-words", "0"],
        &["--value-words", "256"],
        &["--interarrival", "0"],
        &["--fault-rate", "2000"],
    ] {
        check(name, kv_bench, args);
    }
}

#[test]
fn binary_specific_flags_report_bad_values() {
    let figure3 = BINARIES[0].1;
    let out = run(figure3, &["--apps", "em3d,nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(text(&out.stderr).starts_with("error: --apps: unknown application \"nope\"\n"));

    let kv_bench = BINARIES[3].1;
    let out = run(kv_bench, &["--keys", "many"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(text(&out.stderr).starts_with("error: --keys N: \"many\""));
    // The range errors name the range.
    let out = run(kv_bench, &["--fault-rate", "501"]);
    assert!(text(&out.stderr).starts_with("error: --fault-rate: must be 0 to 500\n"));
    let out = run(kv_bench, &["--interarrival", "0"]);
    assert!(text(&out.stderr).starts_with("error: --interarrival: must be 1 to 4294967295\n"));
}

/// `tt-check` takes subcommands and its own checker flags, but follows
/// the same conventions.
const TT_CHECK: &str = env!("CARGO_BIN_EXE_tt-check");

#[test]
fn tt_check_help_prints_usage_and_exits_zero() {
    let cases: [&[&str]; 4] =
        [&["--help"], &["-h"], &["run", "--help"], &["kv", "--seeds", "3", "-h"]];
    for args in cases {
        let out = run(TT_CHECK, args);
        let stdout = text(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "tt-check {args:?}: {out:?}");
        assert!(stdout.starts_with("Usage: tt-check "), "tt-check {args:?}: {stdout}");
        assert!(stdout.contains("--fault-seed F"), "tt-check {args:?}: checker flags listed");
        assert!(out.stderr.is_empty(), "tt-check {args:?}: {}", text(&out.stderr));
    }
}

#[test]
fn tt_check_bad_arguments_print_one_error_line_and_exit_two() {
    let cases: [(&[&str], &str); 10] = [
        (&[], "missing command"),
        (&["bogus"], "bogus"),
        (&["run", "--bogus"], "--bogus"),
        (&["run", "--seeds", "abc"], "--seeds"),
        (&["kv", "--sim-threads", "2"], "--sim-threads"),
        (&["run", "--topology", "fat-tree"], "--topology: unknown topology"),
        (&["replay"], "--seed"),
        (&["replay", "--seed"], "--seed"),
        // `--out` belongs to `run` alone.
        (&["replay", "--seed", "1", "--out", "report.json"], "--out"),
        // The report file is opened before the sweep: an unwritable
        // path is a usage error, not a panic after fuzzing.
        (&["run", "--seeds", "2", "--out", "/proc/nope/x.json"], "--out"),
    ];
    for (args, culprit) in cases {
        let out = run(TT_CHECK, args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "tt-check {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "tt-check {args:?}: nothing runs");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error: ") && first.contains(culprit),
            "tt-check {args:?}: first line {first:?}"
        );
        assert!(stderr.contains("Usage: tt-check "), "tt-check {args:?}: usage follows");
        assert!(!stderr.contains("panicked"), "tt-check {args:?}: {stderr}");
    }
}
