//! Machine-readable benchmark output (`--json <path>`).
//!
//! Simulated results (cycle counts) are deterministic and comparable
//! across machines; wall-clock throughput is not, but it is exactly what
//! the hot-path optimization work needs to track. The `--json` flag on
//! the figure/ablation binaries writes both: one record per (point,
//! system) simulation run with its cycle count, wall seconds, and the
//! derived simulated-cycles/sec and ops/sec rates.
//!
//! The format is deliberately tiny and hand-rolled — the build container
//! has no crates.io access, so `serde` is not available.

use std::io::Write;
use std::path::Path;

use tt_base::Topology;

/// One simulation run inside a sweep.
#[derive(Clone, Debug)]
pub struct PointRecord {
    /// Sweep coordinate, e.g. `"barnes small/64K"` or `"30% remote"`.
    pub point: String,
    /// System simulated, e.g. `"Typhoon/Stache"`.
    pub system: String,
    /// Simulated execution time in cycles.
    pub cycles: u64,
    /// Host wall-clock seconds the simulation took.
    pub wall_secs: f64,
    /// Workload ops the simulated CPUs executed (`cpu.ops`).
    pub ops: u64,
    /// Binary-specific additions, as a raw `"key": value` JSON fragment
    /// appended to the record object (e.g. `kv_bench` latency
    /// percentiles). `None` adds nothing.
    pub extra: Option<String>,
}

impl PointRecord {
    /// Simulated cycles advanced per host second.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.cycles as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Workload ops simulated per host second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.ops as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        let extra = match &self.extra {
            None => String::new(),
            Some(frag) => format!(", {frag}"),
        };
        format!(
            "    {{\"point\": {}, \"system\": {}, \"cycles\": {}, \
             \"wall_secs\": {:.6}, \"ops\": {}, \
             \"sim_cycles_per_sec\": {:.1}, \"ops_per_sec\": {:.1}{extra}}}",
            escape(&self.point),
            escape(&self.system),
            self.cycles,
            self.wall_secs,
            self.ops,
            self.sim_cycles_per_sec(),
            self.ops_per_sec(),
        )
    }
}

/// Best-effort short git revision of the working tree, so committed
/// `results/BENCH_*.json` snapshots are attributable to the code that
/// produced them. `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
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
pub struct SweepMeta {
    /// Which figure/sweep the report covers, e.g. `"figure3"`.
    pub figure: String,
    /// Simulated machine size.
    pub nodes: usize,
    /// Data-set divisor.
    pub scale: usize,
    /// Sweep worker threads.
    pub jobs: usize,
    /// Wall-timing repeats per point (min-of-N).
    pub repeat: usize,
    /// Interconnect model the sweep ran under.
    pub topology: Topology,
    /// Wall seconds for the whole sweep.
    pub total_wall_secs: f64,
}

/// Writes a sweep report to `path`, creating parent directories. The
/// header records the sweep shape plus provenance (`git_rev`, `host`,
/// and every [`SweepMeta`] field) so snapshots are attributable and
/// wall-clock rates can be compared like-for-like across PRs.
pub fn write_report(path: &Path, meta: &SweepMeta, points: &[PointRecord]) -> std::io::Result<()> {
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

    #[test]
    fn rates_are_derived() {
        let p = PointRecord {
            point: "x".into(),
            system: "s".into(),
            cycles: 1000,
            wall_secs: 0.5,
            ops: 200,
            extra: None,
        };
        assert_eq!(p.sim_cycles_per_sec(), 2000.0);
        assert_eq!(p.ops_per_sec(), 400.0);
    }

    #[test]
    fn zero_wall_time_does_not_divide_by_zero() {
        let p = PointRecord {
            point: "x".into(),
            system: "s".into(),
            cycles: 1000,
            wall_secs: 0.0,
            ops: 200,
            extra: None,
        };
        assert_eq!(p.sim_cycles_per_sec(), 0.0);
        assert_eq!(p.ops_per_sec(), 0.0);
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
        let points = vec![
            PointRecord {
                point: "em3d small/4K".into(),
                system: "DirNNB".into(),
                cycles: 42,
                wall_secs: 0.001,
                ops: 7,
                extra: None,
            },
            PointRecord {
                point: "em3d small/4K".into(),
                system: "Typhoon/Stache".into(),
                cycles: 42,
                wall_secs: 0.001,
                ops: 7,
                extra: Some("\"kv\": {\"p99\": 123}".into()),
            },
        ];
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
        assert!(text.contains("\"ops_per_sec\": 7000.0}"));
        assert!(text.contains(", \"kv\": {\"p99\": 123}}"));
        assert!(text.contains("\"git_rev\": "));
        assert!(text.contains("\"host\": "));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn provenance_helpers_never_return_empty() {
        assert!(!git_rev().is_empty());
        assert!(!hostname().is_empty());
    }
}
