//! Disk models.
//!
//! The paper's clusters mix SSDs (fast, seldom the bottleneck on gigabit
//! networks) and HDDs "5 to 10 times slower" (§5.3, Figure 9). A disk here
//! is just a pair of shared-bandwidth resources: concurrent readers share
//! `read_bps` max-min, concurrent writers share `write_bps`.

/// Bandwidth model of one host's local storage.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DiskModel {
    /// Sustained read bandwidth, bytes per second.
    pub read_bps: f64,
    /// Sustained write bandwidth, bytes per second.
    pub write_bps: f64,
}

impl DiskModel {
    /// A SATA-class SSD: 500 MB/s read, 450 MB/s write.
    pub fn ssd() -> Self {
        DiskModel {
            read_bps: 500e6,
            write_bps: 450e6,
        }
    }

    /// A spinning disk ~7× slower than [`DiskModel::ssd`] (the paper's
    /// "5 to 10 times slower" HDDs): 70 MB/s read, 65 MB/s write.
    pub fn hdd() -> Self {
        DiskModel {
            read_bps: 70e6,
            write_bps: 65e6,
        }
    }

    /// Returns a copy scaled by `factor` in both directions.
    pub fn scaled(self, factor: f64) -> Self {
        DiskModel {
            read_bps: self.read_bps * factor,
            write_bps: self.write_bps * factor,
        }
    }
}

impl Default for DiskModel {
    /// Defaults to [`DiskModel::ssd`].
    fn default() -> Self {
        DiskModel::ssd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_sanely() {
        assert!(DiskModel::ssd().read_bps > DiskModel::hdd().read_bps);
        // The paper's HDDs are 5-10x slower than its SSDs.
        let ratio = DiskModel::ssd().read_bps / DiskModel::hdd().read_bps;
        assert!((5.0..=10.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn scaling_scales_both_directions() {
        let d = DiskModel::ssd().scaled(0.5);
        assert_eq!(d.read_bps, 250e6);
        assert_eq!(d.write_bps, 225e6);
    }
}
