//! The application data sets of Table 3, plus a scale knob.
//!
//! The paper simulates each application on a small set "scaled for a
//! 4 Kbyte cache" and a significantly larger set. The bench harness can
//! additionally scale a set down by an integer factor to trade fidelity
//! for wall-clock time; the Figure 3/4 shapes are robust to moderate
//! scaling because they are driven by working-set-to-cache ratios and
//! communication-to-computation ratios, which the scaler preserves where
//! it can (it shrinks element counts, never the machine size).

use std::fmt;

/// Which benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppId {
    /// NAS Appbt: computational fluid dynamics (block-tridiagonal).
    Appbt,
    /// SPLASH Barnes: gravitational N-body (Barnes-Hut).
    Barnes,
    /// SPLASH MP3D: rarefied fluid flow.
    Mp3d,
    /// SPLASH Ocean: hydrodynamic basin simulation.
    Ocean,
    /// Split-C EM3D: electromagnetic wave propagation.
    Em3d,
}

impl AppId {
    /// All five, in the paper's Figure 3 order.
    pub const ALL: [AppId; 5] =
        [AppId::Appbt, AppId::Barnes, AppId::Mp3d, AppId::Ocean, AppId::Em3d];

    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Appbt => "appbt",
            AppId::Barnes => "barnes",
            AppId::Mp3d => "mp3d",
            AppId::Ocean => "ocean",
            AppId::Em3d => "em3d",
        }
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which Table 3 data set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataSet {
    /// The small set (scaled for a 4 KB cache).
    Small,
    /// The large set.
    Large,
}

impl DataSet {
    /// The Table 3 description string for an application.
    pub fn describe(self, app: AppId) -> String {
        match (app, self) {
            (AppId::Appbt, DataSet::Small) => "12x12x12".into(),
            (AppId::Appbt, DataSet::Large) => "24x24x24".into(),
            (AppId::Barnes, DataSet::Small) => "2048 bodies".into(),
            (AppId::Barnes, DataSet::Large) => "8192 bodies".into(),
            (AppId::Mp3d, DataSet::Small) => "10,000 mols".into(),
            (AppId::Mp3d, DataSet::Large) => "50,000 mols".into(),
            (AppId::Ocean, DataSet::Small) => "98x98 grid".into(),
            (AppId::Ocean, DataSet::Large) => "386x386 grid".into(),
            (AppId::Em3d, DataSet::Small) => "64,000 nodes, degree 10".into(),
            (AppId::Em3d, DataSet::Large) => "192,000 nodes, degree 15".into(),
        }
    }
}

impl fmt::Display for DataSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DataSet::Small => "small",
            DataSet::Large => "large",
        })
    }
}

/// Divides an element count by `scale`, keeping at least `min`.
pub fn scaled(count: usize, scale: usize, min: usize) -> usize {
    (count / scale.max(1)).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_3_descriptions() {
        assert_eq!(DataSet::Small.describe(AppId::Ocean), "98x98 grid");
        assert_eq!(DataSet::Large.describe(AppId::Em3d), "192,000 nodes, degree 15");
        assert_eq!(AppId::ALL.len(), 5);
    }

    #[test]
    fn scaling_clamps() {
        assert_eq!(scaled(1000, 4, 10), 250);
        assert_eq!(scaled(1000, 1000, 64), 64);
        assert_eq!(scaled(1000, 0, 1), 1000);
    }
}
