//! Machine profiles bundling calibrated tier and link characteristics.

use crate::{Tier, TierSpec};
use std::time::Duration;

/// Calibrated characteristics of a simulated machine.
///
/// The default [`MachineProfile::polaris`] profile is calibrated so the
/// end-to-end model-update paths reproduce the latencies the paper reports
/// on ALCF Polaris (Fig. 8): see `EXPERIMENTS.md` for the paper-vs-measured
/// comparison.
#[derive(Debug, Clone)]
pub struct MachineProfile {
    /// Profile name (for reports).
    pub name: String,
    /// Per-tier cost models.
    pub tiers: Vec<TierSpec>,
    /// GPU-to-GPU RDMA (GPUDirect over Slingshot/NVLink) bandwidth, bytes/s.
    pub gpu_rdma_bw: f64,
    /// Host-to-host RDMA (InfiniBand verbs without GPUDirect) bandwidth, bytes/s.
    pub host_rdma_bw: f64,
    /// Fragmented device-to-host capture bandwidth: copying a model's many
    /// training tensors out of GPU memory over PCIe (blocks training on the
    /// host path), bytes/s. Far below peak PCIe because the tensors are
    /// scattered.
    pub d2h_capture_bw: f64,
    /// Contiguous host-to-device apply bandwidth (`cudaMemcpyAsync` of the
    /// received buffer into the live model), bytes/s.
    pub h2d_apply_bw: f64,
    /// Fragmented device-to-device capture bandwidth: snapshotting the live
    /// tensors inside GPU memory, bytes/s.
    pub gpu_capture_bw: f64,
    /// Extra device copy performed by the asynchronous GPU path when handing
    /// the snapshot to the background transfer thread, bytes/s.
    pub gpu_async_stage_bw: f64,
    /// Extra host memcpy performed by the asynchronous host path, bytes/s.
    pub host_async_stage_bw: f64,
    /// One-way network message latency (RDMA setup / rendezvous).
    pub net_latency: Duration,
    /// Publish-subscribe notification delivery latency (<1 ms per the paper).
    pub notify_latency: Duration,
    /// Model-repository polling interval floor used by baseline serving
    /// systems (≥1 ms per the paper's discussion of Triton).
    pub poll_interval_floor: Duration,
}

impl MachineProfile {
    /// A Polaris-like node: A100 HBM, DDR4, Slingshot-10, Lustre.
    pub fn polaris() -> Self {
        MachineProfile {
            name: "polaris".into(),
            tiers: vec![
                TierSpec {
                    tier: Tier::GpuMem,
                    write_bw: 1.2e12,
                    read_bw: 1.3e12,
                    write_latency: Duration::from_micros(10),
                    read_latency: Duration::from_micros(10),
                    per_tensor_write: Duration::from_micros(5),
                    per_tensor_read: Duration::from_micros(5),
                    capacity: 40 * (1 << 30),
                },
                TierSpec {
                    tier: Tier::HostMem,
                    write_bw: 2.0e10,
                    read_bw: 2.4e10,
                    write_latency: Duration::from_micros(5),
                    read_latency: Duration::from_micros(5),
                    per_tensor_write: Duration::from_micros(2),
                    per_tensor_read: Duration::from_micros(2),
                    capacity: 512 * (1 << 30),
                },
                TierSpec {
                    tier: Tier::LocalSsd,
                    write_bw: 2.0e9,
                    read_bw: 3.5e9,
                    write_latency: Duration::from_micros(80),
                    read_latency: Duration::from_micros(60),
                    per_tensor_write: Duration::from_micros(30),
                    per_tensor_read: Duration::from_micros(20),
                    capacity: 3 * (1u64 << 40),
                },
                TierSpec {
                    tier: Tier::Pfs,
                    // Single-client effective Lustre bandwidth under the
                    // uncoordinated small-I/O pattern of model checkpoints —
                    // far below the 650 GB/s aggregate.
                    write_bw: 1.5e9,
                    read_bw: 1.55e9,
                    write_latency: Duration::from_millis(120),
                    read_latency: Duration::from_millis(120),
                    per_tensor_write: Duration::from_micros(2_500),
                    per_tensor_read: Duration::from_micros(2_500),
                    capacity: u64::MAX,
                },
            ],
            gpu_rdma_bw: 8.5e9,
            host_rdma_bw: 9.4e9,
            d2h_capture_bw: 3.4e9,
            h2d_apply_bw: 1.2e10,
            gpu_capture_bw: 7.5e10,
            gpu_async_stage_bw: 2.0e10,
            host_async_stage_bw: 8.0e10,
            net_latency: Duration::from_micros(20),
            notify_latency: Duration::from_micros(300),
            poll_interval_floor: Duration::from_millis(1),
        }
    }

    /// Cost model for a tier. Panics if the profile lacks the tier (all
    /// built-in profiles define all four).
    pub fn tier(&self, tier: Tier) -> &TierSpec {
        self.tiers
            .iter()
            .find(|t| t.tier == tier)
            .unwrap_or_else(|| panic!("profile {} has no spec for {tier}", self.name))
    }

    /// Modeled duration of a point-to-point transfer of `bytes` over the
    /// GPU-direct path.
    pub fn gpu_transfer_time(&self, bytes: u64) -> Duration {
        self.net_latency + Duration::from_secs_f64(bytes as f64 / self.gpu_rdma_bw)
    }

    /// Modeled duration of a host-to-host RDMA transfer of `bytes`.
    pub fn host_transfer_time(&self, bytes: u64) -> Duration {
        self.net_latency + Duration::from_secs_f64(bytes as f64 / self.host_rdma_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polaris_defines_all_tiers() {
        let p = MachineProfile::polaris();
        for t in Tier::ALL {
            assert_eq!(p.tier(t).tier, t);
        }
    }

    #[test]
    fn tier_speed_ordering_holds() {
        let p = MachineProfile::polaris();
        assert!(p.tier(Tier::GpuMem).write_bw > p.tier(Tier::HostMem).write_bw);
        assert!(p.tier(Tier::HostMem).write_bw > p.tier(Tier::LocalSsd).write_bw);
        assert!(p.tier(Tier::LocalSsd).write_bw > p.tier(Tier::Pfs).write_bw);
    }

    #[test]
    fn gpu_path_beats_host_path_beats_pfs() {
        let p = MachineProfile::polaris();
        let bytes = 4_700_000_000u64; // TC1
        let gpu = p.gpu_transfer_time(bytes);
        let secs = |bw: f64| Duration::from_secs_f64(bytes as f64 / bw);
        let host = secs(p.d2h_capture_bw) + p.host_transfer_time(bytes) + secs(p.h2d_apply_bw);
        let pfs = p.tier(Tier::Pfs).write_time(bytes, 20) + p.tier(Tier::Pfs).read_time(bytes, 20);
        assert!(gpu < host, "{gpu:?} !< {host:?}");
        assert!(host < pfs, "{host:?} !< {pfs:?}");
    }

    #[test]
    fn notify_beats_polling_floor() {
        let p = MachineProfile::polaris();
        assert!(p.notify_latency < p.poll_interval_floor);
    }
}
