//! Machine-readable benchmark output (`--json <path>`).
//!
//! Simulated results (cycle counts) are deterministic and comparable
//! across machines; wall-clock throughput is not, but it is exactly what
//! the hot-path optimization work needs to track. The `--json` flag on
//! every sweep binary writes both: one record per [`Run`] with its cycle
//! count, wall seconds, the derived simulated-cycles/sec and ops/sec
//! rates, and a `cost` object (host microseconds per simulated node per
//! kilocycle, heap high-water mark, bytes per node, allocations). A KV
//! run adds a `kv` object of latency percentiles.
//!
//! The format is deliberately tiny and hand-rolled — the build container
//! has no crates.io access, so `serde` is not available.

use std::io::Write;
use std::path::Path;

use tt_base::stats::LatHistogram;
use tt_base::Topology;

use crate::{Run, RunOutcome, Work};

/// The report record of one [`Run`]; [`PointRecord::new`] builds
/// every record of every sweep binary.
#[derive(Clone, Debug)]
pub(crate) struct PointRecord {
    /// Sweep coordinate, e.g. `"barnes small/64K"` or `"30% remote"`.
    point: String,
    /// System simulated, e.g. `"Typhoon/Stache"`.
    system: &'static str,
    /// Simulated execution time in cycles.
    cycles: u64,
    /// Host wall-clock seconds the simulation took.
    wall_secs: f64,
    /// Workload ops the simulated CPUs executed (`cpu.ops`).
    ops: u64,
    /// Simulated machine size, the divisor of the per-node costs.
    nodes: usize,
    /// Heap high-water mark over the run (attributable per run only at
    /// `--jobs 1`; see EXPERIMENTS.md).
    peak_bytes: u64,
    /// Heap allocation events during the run.
    allocs: u64,
    /// A KV run's `"kv"` member: the point's mix, skew and key count,
    /// its latency percentiles, and on a lossy network a `"fault"`
    /// object of transport counters.
    kv: Option<String>,
}

impl PointRecord {
    /// The record of `run`, which finished as `out`.
    pub(crate) fn new(run: &Run, out: &RunOutcome) -> PointRecord {
        PointRecord {
            point: run.point.clone(),
            system: run.system,
            cycles: out.cycles.raw(),
            wall_secs: out.wall_secs,
            ops: out.ops,
            nodes: run.cfg.nodes,
            peak_bytes: out.peak_bytes,
            allocs: out.allocs,
            kv: kv_member(run, out),
        }
    }

    /// Simulated cycles advanced per host second.
    fn sim_cycles_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.cycles as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Workload ops simulated per host second.
    fn ops_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.ops as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Host microseconds per simulated node per thousand simulated
    /// cycles: the simulator's cost density.
    fn us_per_node_kilocycle(&self) -> f64 {
        if self.cycles > 0 {
            self.wall_secs * 1e6 / self.nodes as f64 / (self.cycles as f64 / 1000.0)
        } else {
            0.0
        }
    }

    pub(crate) fn to_json(&self) -> String {
        let kv = match &self.kv {
            None => String::new(),
            Some(member) => format!(", {member}"),
        };
        format!(
            "    {{\"point\": {}, \"system\": {}, \"cycles\": {}, \
             \"wall_secs\": {:.6}, \"ops\": {}, \
             \"sim_cycles_per_sec\": {:.1}, \"ops_per_sec\": {:.1}{kv}, \
             \"cost\": {{\"us_per_node_kilocycle\": {:.4}, \"peak_bytes\": {}, \
             \"bytes_per_node\": {}, \"allocs\": {}}}}}",
            escape(&self.point),
            escape(self.system),
            self.cycles,
            self.wall_secs,
            self.ops,
            self.sim_cycles_per_sec(),
            self.ops_per_sec(),
            self.us_per_node_kilocycle(),
            self.peak_bytes,
            self.peak_bytes / self.nodes as u64,
            self.allocs,
        )
    }
}

/// The `"kv"` member of a KV run's record; `None` for any other run.
fn kv_member(run: &Run, out: &RunOutcome) -> Option<String> {
    let (Work::Kv(p), Some(kv)) = (&run.work, &out.kv) else {
        return None;
    };
    let hist = |h: &LatHistogram| {
        format!(
            "{{\"p50\": {}, \"p99\": {}, \"p999\": {}, \"mean\": {:.1}, \"max\": {}}}",
            h.quantile(0.50),
            h.quantile(0.99),
            h.quantile(0.999),
            h.mean(),
            h.max(),
        )
    };
    let count = |name| out.report.get(name).unwrap_or(0.0) as u64;
    let fault = match &run.cfg.fault {
        None => String::new(),
        Some(f) => format!(
            ", \"fault\": {{\"rate_permille\": {}, \"retransmits\": {}, \"sent\": {}}}",
            f.drop_permille,
            count("rel.retransmits"),
            count("rel.sent"),
        ),
    };
    Some(format!(
        "\"kv\": {{\"mix\": \"{}/{}\", \"skew\": {:.2}, \"keys\": {}, \"requests\": {}, \
         \"requests_per_kcycle\": {:.4}, \"get\": {}, \"put\": {}{fault}}}",
        100 - p.write_pct,
        p.write_pct,
        p.skew,
        p.keys,
        kv.lat.requests(),
        kv.requests_per_kcycle,
        hist(&kv.lat.get),
        hist(&kv.lat.put),
    ))
}

/// Best-effort short git revision of the working tree, so committed
/// `results/BENCH_*.json` snapshots are attributable to the code that
/// produced them: `HEAD`, suffixed `-dirty` when tracked files differ
/// from it. `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    rev_of(Path::new("."))
}

/// [`git_rev`] of the checkout containing `dir`.
fn rev_of(dir: &Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git").arg("-C").arg(dir).args(args).output().ok()
    };
    let Some(rev) = git(&["rev-parse", "--short=12", "HEAD"])
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
    else {
        return "unknown".into();
    };
    // `git diff --quiet` exits 1 exactly when the tree differs.
    match git(&["diff", "--quiet", "HEAD"]).and_then(|o| o.status.code()) {
        Some(1) => format!("{rev}-dirty"),
        _ => rev,
    }
}

/// Best-effort host name (wall-clock rates are host-specific). Tries the
/// `HOSTNAME` environment variable, then the kernel's node name;
/// `"unknown"` if neither is available.
pub fn hostname() -> String {
    std::env::var("HOSTNAME")
        .ok()
        .or_else(|| {
            std::fs::read_to_string("/proc/sys/kernel/hostname").ok().map(|s| s.trim().to_string())
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// JSON string literal, quotes included, with the required escapes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Sweep shape + provenance for a report header.
#[derive(Clone, Debug)]
pub(crate) struct SweepMeta {
    /// Which figure/sweep the report covers, e.g. `"figure3"`.
    pub(crate) figure: String,
    /// Simulated machine size.
    pub(crate) nodes: usize,
    /// Data-set divisor.
    pub(crate) scale: usize,
    /// Sweep worker threads.
    pub(crate) jobs: usize,
    /// Wall-timing repeats per point (min-of-N).
    pub(crate) repeat: usize,
    /// Interconnect model the sweep ran under.
    pub(crate) topology: Topology,
    /// Wall seconds for the whole sweep.
    pub(crate) total_wall_secs: f64,
}

/// Writes a sweep report to `path`, creating parent directories. The
/// header records the sweep shape plus provenance (`git_rev`, `host`,
/// and every [`SweepMeta`] field) so snapshots are attributable and
/// wall-clock rates can be compared like-for-like across PRs.
pub(crate) fn write_report(
    path: &Path,
    meta: &SweepMeta,
    points: &[PointRecord],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"figure\": {},", escape(&meta.figure))?;
    writeln!(f, "  \"git_rev\": {},", escape(&git_rev()))?;
    writeln!(f, "  \"host\": {},", escape(&hostname()))?;
    writeln!(f, "  \"nodes\": {},", meta.nodes)?;
    writeln!(f, "  \"scale\": {},", meta.scale)?;
    writeln!(f, "  \"jobs\": {},", meta.jobs)?;
    writeln!(f, "  \"repeat\": {},", meta.repeat)?;
    writeln!(f, "  \"topology\": {},", escape(&meta.topology.to_string()))?;
    writeln!(f, "  \"total_wall_secs\": {:.6},", meta.total_wall_secs)?;
    writeln!(f, "  \"points\": [")?;
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        writeln!(f, "{}{sep}", p.to_json())?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cycles: u64, wall_secs: f64, kv: Option<&str>) -> PointRecord {
        PointRecord {
            point: "em3d small/4K".into(),
            system: "DirNNB",
            cycles,
            wall_secs,
            ops: 200,
            nodes: 8,
            peak_bytes: 8000,
            allocs: 3,
            kv: kv.map(String::from),
        }
    }

    #[test]
    fn rates_are_derived() {
        let p = record(1000, 0.5, None);
        assert_eq!(p.sim_cycles_per_sec(), 2000.0);
        assert_eq!(p.ops_per_sec(), 400.0);
        assert_eq!(p.us_per_node_kilocycle(), 0.5e6 / 8.0);
    }

    #[test]
    fn zero_wall_time_does_not_divide_by_zero() {
        let p = record(1000, 0.0, None);
        assert_eq!(p.sim_cycles_per_sec(), 0.0);
        assert_eq!(p.ops_per_sec(), 0.0);
        assert_eq!(record(0, 1.0, None).us_per_node_kilocycle(), 0.0);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(escape("tab\there"), "\"tab\\u0009here\"");
    }

    #[test]
    fn report_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("tt_bench_json_test");
        let path = dir.join("report.json");
        let points =
            vec![record(42, 0.001, None), record(42, 0.001, Some("\"kv\": {\"p99\": 123}"))];
        let meta = SweepMeta {
            figure: "figure3".into(),
            nodes: 8,
            scale: 64,
            jobs: 2,
            repeat: 3,
            topology: Topology::Mesh2D { width: 0 },
            total_wall_secs: 0.123,
        };
        write_report(&path, &meta, &points).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"figure\": \"figure3\""));
        assert!(text.contains("\"topology\": \"mesh\""));
        assert!(text.contains("\"cycles\": 42"));
        assert!(text.contains("\"jobs\": 2"));
        assert!(text.contains("\"repeat\": 3"));
        assert!(text.contains("\"ops_per_sec\": 200000.0, \"cost\": {"));
        assert!(text.contains(", \"kv\": {\"p99\": 123}, \"cost\": {"));
        assert!(text.contains("\"peak_bytes\": 8000, \"bytes_per_node\": 1000, \"allocs\": 3}}"));
        assert!(text.contains("\"git_rev\": "));
        assert!(text.contains("\"host\": "));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn git_rev_marks_a_dirty_tree() {
        let dir = std::env::temp_dir().join(format!("tt_bench_git_rev_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let git = |args: &[&str]| {
            let status = std::process::Command::new("git")
                .arg("-C")
                .arg(&dir)
                .args(["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"])
                .args(args)
                .output()
                .unwrap()
                .status;
            assert!(status.success(), "git {args:?}");
        };
        git(&["init", "-q"]);
        std::fs::write(dir.join("f.txt"), "one\n").unwrap();
        git(&["add", "f.txt"]);
        git(&["commit", "-q", "-m", "one"]);
        let clean = rev_of(&dir);
        assert_eq!(clean.len(), 12, "{clean}");
        assert!(clean.chars().all(|c| c.is_ascii_hexdigit()), "{clean}");
        std::fs::write(dir.join("f.txt"), "two\n").unwrap();
        assert_eq!(rev_of(&dir), format!("{clean}-dirty"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn provenance_helpers_never_return_empty() {
        assert!(!git_rev().is_empty());
        assert!(!hostname().is_empty());
    }
}
