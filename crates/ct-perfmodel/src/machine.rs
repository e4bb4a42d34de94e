//! Machine constants for the performance model.
//!
//! Defaults are calibrated to the paper's testbed — AIST's ABCI
//! supercomputer (Section 5.1: two Xeon Gold 6148 + four 16 GB Tesla V100
//! per node, PCIe gen3 x16, dual InfiniBand EDR, 6.6 PB GPFS) — using the
//! micro-benchmark values the paper publishes:
//!
//! * `BW_PCIe = 11.9 GB/s` per x16 link (Section 5.3.3, `bandwidthTest`);
//! * GPFS sequential write "28.5 GB/s" — read as GiB/s (30.5e9 B/s) so
//!   that the published `T_store(256 GiB) ~ 9 s` and `T_store(2 TiB) ~
//!   71.8 s` both come out exactly;
//! * device-to-host of 32 GB (four 8 GB sub-volumes) `~2.6 s` per node —
//!   i.e. effectively one PCIe link's bandwidth serves the node's D2H
//!   drain (the paper attributes the gap to PCIe-switch contention,
//!   two GPUs per switch);
//! * reducing an 8 GB sub-volume over dual InfiniBand EDR `~2.7 s`
//!   (`TH_Reduce ~ 3.18 GB/s`);
//! * filtering throughput derived from Table 5 (`T_flt = 1.4 s` for 4,096
//!   projections of 2048^2 on 8 nodes -> ~366 projections/s/node);
//! * AllGather ring bandwidth derived from Table 5
//!   (`T_AllGather = 31.4 s` for 128 ops x 31 blocks x 16.8 MB ->
//!   ~2.1 GB/s effective per column ring).

/// Constants describing one GPU-accelerated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// GPUs (and hence MPI ranks) per compute node.
    pub gpus_per_node: usize,
    /// GPU device memory per GPU, bytes (16 GB on V100).
    pub gpu_mem_bytes: u64,
    /// PCIe bandwidth per x16 link, bytes/s.
    pub pcie_bw: f64,
    /// Effective PCIe links per node for host-to-device traffic.
    pub pcie_links_h2d: usize,
    /// Effective PCIe links per node for device-to-host traffic (1 on
    /// ABCI due to switch contention; see module docs).
    pub pcie_links_d2h: usize,
    /// Aggregate PFS read bandwidth, bytes/s.
    pub bw_load: f64,
    /// Aggregate PFS write bandwidth, bytes/s.
    pub bw_store: f64,
    /// Filtering throughput, projections/s per node (`TH_flt`).
    pub th_flt: f64,
    /// Effective ring bandwidth of the per-projection AllGather, bytes/s
    /// per column group.
    pub allgather_bw: f64,
    /// Sub-volume reduction throughput, bytes/s per rank (`TH_Reduce`).
    pub th_reduce: f64,
    /// On-GPU sub-volume transpose throughput, bytes/s (`TH_trans`; the
    /// paper measures `T_trans` ~ 0.29 s for 8 GB, i.e. ~27 GB/s).
    pub th_trans: f64,
}

impl MachineConfig {
    /// The paper's ABCI testbed.
    pub fn abci() -> Self {
        Self {
            gpus_per_node: 4,
            gpu_mem_bytes: 16 * (1 << 30),
            pcie_bw: 11.9e9,
            pcie_links_h2d: 2,
            pcie_links_d2h: 1,
            bw_load: 100.0e9,
            bw_store: 30.5e9,
            th_flt: 366.0,
            allgather_bw: 2.1e9,
            th_reduce: 3.18e9,
            th_trans: 27.0e9,
        }
    }

    /// An Nvidia DGX-2-like single node (Section 6.2.2): 16 GPUs, NVSwitch
    /// interconnect (no PCIe bottleneck to speak of), fast local NVMe.
    pub fn dgx2() -> Self {
        Self {
            gpus_per_node: 16,
            gpu_mem_bytes: 32 * (1 << 30),
            pcie_bw: 60.0e9, // NVSwitch-class effective link
            pcie_links_h2d: 8,
            pcie_links_d2h: 8,
            bw_load: 8.0e9,  // local NVMe array read
            bw_store: 5.0e9, // local NVMe array write
            th_flt: 366.0,
            allgather_bw: 40.0e9,
            th_reduce: 30.0e9,
            th_trans: 27.0e9,
        }
    }

    /// An AWS p3.8xlarge-like cluster (Section 6.2.1): same V100 GPUs but
    /// a 10 Gb/s network and EBS-class storage.
    pub fn aws_p3() -> Self {
        Self {
            gpus_per_node: 4,
            gpu_mem_bytes: 16 * (1 << 30),
            pcie_bw: 11.9e9,
            pcie_links_h2d: 2,
            pcie_links_d2h: 1,
            bw_load: 10.0e9,
            bw_store: 5.0e9,
            th_flt: 366.0,
            allgather_bw: 1.0e9, // 10 Gbps network, some overlap
            th_reduce: 0.8e9,
            th_trans: 27.0e9,
        }
    }

    /// Basic sanity checks.
    // `!(v > 0.0)` deliberately rejects NaN constants as invalid.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), String> {
        if self.gpus_per_node == 0 {
            return Err("gpus_per_node must be >= 1".into());
        }
        for (name, v) in [
            ("pcie_bw", self.pcie_bw),
            ("bw_load", self.bw_load),
            ("bw_store", self.bw_store),
            ("th_flt", self.th_flt),
            ("allgather_bw", self.allgather_bw),
            ("th_reduce", self.th_reduce),
            ("th_trans", self.th_trans),
        ] {
            if !(v > 0.0) {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        if self.pcie_links_h2d == 0 || self.pcie_links_d2h == 0 {
            return Err("pcie link counts must be >= 1".into());
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::abci()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abci_matches_published_constants() {
        let m = MachineConfig::abci();
        assert_eq!(m.gpus_per_node, 4);
        assert_eq!(m.gpu_mem_bytes, 16 * (1 << 30));
        assert!((m.pcie_bw - 11.9e9).abs() < 1.0);
        assert!((m.bw_store - 30.5e9).abs() < 1.0);
        m.validate().unwrap();
    }

    #[test]
    fn store_time_of_256_gb_is_about_9s() {
        // The paper: "the projected time required to store data of size
        // 256GB and 2TB is ~9.0s and 87.7s".
        let m = MachineConfig::abci();
        let t256 = 256.0 * (1u64 << 30) as f64 / m.bw_store;
        assert!((t256 - 9.0).abs() < 0.8, "{t256}");
        let t2t = 2048.0 * (1u64 << 30) as f64 / m.bw_store;
        assert!((t2t - 77.0).abs() < 11.0, "{t2t}");
    }

    #[test]
    fn d2h_of_32_gb_is_about_2_6s() {
        // "copy data of size 32GB ... to the host ... is ~2.6s".
        let m = MachineConfig::abci();
        let t = 32.0 * (1u64 << 30) as f64 / (m.pcie_bw * m.pcie_links_d2h as f64);
        assert!((t - 2.6).abs() < 0.5, "{t}");
    }

    #[test]
    fn reduce_of_8_gb_is_about_2_7s() {
        let m = MachineConfig::abci();
        let t = 8.0 * (1u64 << 30) as f64 / m.th_reduce;
        assert!((t - 2.7).abs() < 0.4, "{t}");
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut m = MachineConfig::abci();
        m.pcie_bw = 0.0;
        assert!(m.validate().is_err());
        let mut m = MachineConfig::abci();
        m.gpus_per_node = 0;
        assert!(m.validate().is_err());
        let mut m = MachineConfig::abci();
        m.pcie_links_d2h = 0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn presets_are_valid() {
        MachineConfig::abci().validate().unwrap();
        MachineConfig::dgx2().validate().unwrap();
        MachineConfig::aws_p3().validate().unwrap();
        assert_eq!(MachineConfig::default(), MachineConfig::abci());
    }
}
