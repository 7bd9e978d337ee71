//! Storage tier identities and their cost models.

use std::time::Duration;

/// The storage tiers available on a simulated compute node, ordered from
/// fastest to slowest — the "memory-first" hierarchy Viper exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tier {
    /// GPU high-bandwidth memory (A100 HBM2e class).
    GpuMem,
    /// Host DRAM.
    HostMem,
    /// Node-local NVMe SSD.
    LocalSsd,
    /// The parallel file system (Lustre class), shared across nodes.
    Pfs,
}

impl Tier {
    /// All tiers, fastest first.
    pub const ALL: [Tier; 4] = [Tier::GpuMem, Tier::HostMem, Tier::LocalSsd, Tier::Pfs];

    /// Short human-readable name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Tier::GpuMem => "GPU Memory",
            Tier::HostMem => "Host Memory",
            Tier::LocalSsd => "Local SSD",
            Tier::Pfs => "PFS",
        }
    }

    /// Whether the tier survives a node crash (only the PFS does).
    pub fn is_persistent(self) -> bool {
        matches!(self, Tier::Pfs)
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cost model for one storage tier.
///
/// An I/O of `bytes` spread over `ntensors` objects costs
/// `latency + ntensors * per_tensor + bytes / bandwidth`, with bandwidth
/// degraded by concurrent load (see [`TierSpec::effective_bw`]). The
/// per-tensor term models the uncoordinated small-I/O metadata accesses the
/// paper identifies as the PFS bottleneck (§3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierSpec {
    /// Which tier this spec describes.
    pub tier: Tier,
    /// Sequential write bandwidth, bytes/second.
    pub write_bw: f64,
    /// Sequential read bandwidth, bytes/second.
    pub read_bw: f64,
    /// Fixed per-operation setup latency (file open, allocation, RPC).
    pub write_latency: Duration,
    /// Fixed per-operation read latency.
    pub read_latency: Duration,
    /// Metadata cost charged once per tensor written.
    pub per_tensor_write: Duration,
    /// Metadata cost charged once per tensor read.
    pub per_tensor_read: Duration,
    /// Usable capacity in bytes.
    pub capacity: u64,
}

impl TierSpec {
    /// Bandwidth under `load` concurrent streams (the tier's aggregate is
    /// shared fairly; a single stream keeps full bandwidth).
    #[inline]
    pub fn effective_bw(&self, bw: f64, load: usize) -> f64 {
        bw / load.max(1) as f64
    }

    /// Modeled duration of writing `bytes` across `ntensors` tensors with no
    /// concurrent load.
    pub fn write_time(&self, bytes: u64, ntensors: usize) -> Duration {
        self.write_time_loaded(bytes, ntensors, 1)
    }

    /// Modeled write duration under `load` concurrent streams.
    pub fn write_time_loaded(&self, bytes: u64, ntensors: usize, load: usize) -> Duration {
        let bw = self.effective_bw(self.write_bw, load);
        self.write_latency
            + self.per_tensor_write.mul_f64(ntensors as f64)
            + Duration::from_secs_f64(bytes as f64 / bw)
    }

    /// Modeled duration of reading `bytes` across `ntensors` tensors.
    pub fn read_time(&self, bytes: u64, ntensors: usize) -> Duration {
        self.read_time_loaded(bytes, ntensors, 1)
    }

    /// Modeled read duration under `load` concurrent streams.
    pub fn read_time_loaded(&self, bytes: u64, ntensors: usize, load: usize) -> Duration {
        let bw = self.effective_bw(self.read_bw, load);
        self.read_latency
            + self.per_tensor_read.mul_f64(ntensors as f64)
            + Duration::from_secs_f64(bytes as f64 / bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TierSpec {
        TierSpec {
            tier: Tier::Pfs,
            write_bw: 1.0e9,
            read_bw: 2.0e9,
            write_latency: Duration::from_millis(100),
            read_latency: Duration::from_millis(50),
            per_tensor_write: Duration::from_millis(3),
            per_tensor_read: Duration::from_millis(2),
            capacity: u64::MAX,
        }
    }

    #[test]
    fn tier_ordering_fastest_first() {
        assert!(Tier::GpuMem < Tier::HostMem);
        assert!(Tier::HostMem < Tier::LocalSsd);
        assert!(Tier::LocalSsd < Tier::Pfs);
    }

    #[test]
    fn only_pfs_is_persistent() {
        assert!(Tier::Pfs.is_persistent());
        assert!(!Tier::GpuMem.is_persistent());
        assert!(!Tier::HostMem.is_persistent());
        assert!(!Tier::LocalSsd.is_persistent());
    }

    #[test]
    fn write_time_components_add_up() {
        let s = spec();
        // 1 GB at 1 GB/s = 1 s payload + 0.1 s latency + 10 * 3 ms metadata.
        let t = s.write_time(1_000_000_000, 10);
        assert!((t.as_secs_f64() - 1.13).abs() < 1e-6, "{t:?}");
    }

    #[test]
    fn read_faster_than_write_here() {
        let s = spec();
        let w = s.write_time(1_000_000_000, 1);
        let r = s.read_time(1_000_000_000, 1);
        assert!(r < w);
    }

    #[test]
    fn contention_halves_bandwidth() {
        let s = spec();
        let t1 = s.write_time_loaded(1_000_000_000, 0, 1);
        let t2 = s.write_time_loaded(1_000_000_000, 0, 2);
        let payload1 = t1.as_secs_f64() - 0.1;
        let payload2 = t2.as_secs_f64() - 0.1;
        assert!((payload2 / payload1 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_io_costs_only_fixed_overheads() {
        let s = spec();
        assert_eq!(s.write_time(0, 0), Duration::from_millis(100));
        assert_eq!(s.read_time(0, 0), Duration::from_millis(50));
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(Tier::GpuMem.to_string(), "GPU Memory");
        assert_eq!(Tier::Pfs.to_string(), "PFS");
    }
}
