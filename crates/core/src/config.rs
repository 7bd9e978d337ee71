//! Framework configuration.

use std::time::Duration;
use viper_formats::{CheckpointFormat, H5Lite, ViperFormat};
use viper_hw::{CaptureMode, MachineProfile, Route, TransferStrategy};

/// How consumers learn about new model versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscoveryMode {
    /// Viper's push notifications through the pub/sub broker.
    Push,
    /// The baseline serving systems' approach (TensorFlow Serving, NVIDIA
    /// Triton): poll the metadata repository at a fixed interval. The
    /// interval is charged to the virtual clock as discovery delay.
    Poll {
        /// Poll interval (the paper cites a >= 1 ms floor for Triton).
        interval: Duration,
    },
}

/// Which serialization format checkpoints use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatKind {
    /// The lean Viper binary format.
    Viper,
    /// The h5py-style baseline format (for baseline measurements).
    H5,
}

impl FormatKind {
    /// Instantiate the format.
    pub fn build(self) -> Box<dyn CheckpointFormat> {
        match self {
            FormatKind::Viper => Box::new(ViperFormat),
            FormatKind::H5 => Box::new(H5Lite),
        }
    }
}

/// Configuration of a Viper deployment.
#[derive(Debug, Clone)]
pub struct ViperConfig {
    /// Simulated machine characteristics.
    pub profile: MachineProfile,
    /// How checkpoints travel from producer to consumer.
    pub strategy: TransferStrategy,
    /// Checkpoint serialization format.
    pub format: FormatKind,
    /// Flush every checkpoint to the PFS in the background for fault
    /// tolerance (§4.4). Memory routes only (the PFS route already lands
    /// there).
    pub flush_to_pfs: bool,
    /// How many versions of each model to keep in the metadata DB.
    pub keep_versions: usize,
    /// Let the Transfer Selector degrade the route down the tier hierarchy
    /// (GPU → host → PFS) when the configured staging tier is out of
    /// memory, instead of failing the save (Fig. 7's strategy selection).
    pub tier_fallback: bool,
    /// How consumers discover updates (push vs baseline polling).
    pub discovery: DiscoveryMode,
    /// Deliver memory-route checkpoints as a pipelined chunked flow: the
    /// payload is split into `chunk_bytes` chunks, each its own message, so
    /// capture, wire, and apply of successive chunks overlap in virtual
    /// time. The PFS route and the default monolithic path are unaffected.
    pub chunked_transfer: bool,
    /// Chunk size for the pipelined path (bytes of original payload per
    /// chunk). Small chunks pay per-chunk fixed costs; the ~64 MiB default
    /// keeps those under 1% on the Polaris profile.
    pub chunk_bytes: u64,
    /// Persist the PFS tier's objects as files under this directory,
    /// surviving process restarts (see [`crate::Viper::recover_catalog`]).
    pub pfs_dir: Option<std::path::PathBuf>,
    /// Deterministic fault-injection plan installed on the fabric at
    /// deployment construction (drops, duplicates, reorders, bit flips).
    /// `None` — the default — leaves the fabric untouched.
    pub fault_plan: Option<viper_net::FaultPlan>,
    /// Reliable delivery for memory routes: per-chunk CRC verification,
    /// receiver NACK/ACK feedback, and sender retransmission with backoff
    /// under [`ViperConfig::retry`]. When the retry budget is exhausted the
    /// producer degrades the update to the durable PFS route. Off by
    /// default: the fault-free fast path is byte- and timing-identical to a
    /// build without the reliability layer.
    pub reliable_delivery: bool,
    /// Encode memory-route updates as incremental [`viper_formats::delta`]
    /// checkpoints when the receiving consumer has acknowledged a retained
    /// base version, falling back to a full checkpoint for fresh consumers,
    /// stale bases, and the durable PFS paths (which always store full
    /// encodings). Wire payloads carry an explicit payload-kind envelope
    /// ([`viper_formats::wire`]) so the receiver dispatches by header, never
    /// by sniffing. Implies [`ViperConfig::reliable_delivery`]: a base is
    /// "acknowledged" only through the ACK channel, and the `NeedFull`
    /// recovery reply rides the same control path.
    pub delta_transfer: bool,
    /// Retransmission budget and pacing for reliable delivery (also paces
    /// the consumer's stale-flow reaping, even when `reliable_delivery` is
    /// off, so lost flows cannot pin reassembly buffers forever).
    pub retry: viper_net::RetryPolicy,
    /// Collapse-to-latest coalescing on the reliable delivery path: while
    /// an update is in flight to a consumer, the newest later version waits
    /// behind it and every version in between is dropped before it touches
    /// the wire (counted per consumer as `updates_superseded`, with a
    /// `queue_depth` gauge). Saves stop
    /// blocking on the slowest consumer — the producer's pipeline runs
    /// ahead while congested consumers skip straight to the newest
    /// version. Off by default: the blocking path stays byte- and
    /// timing-identical to previous builds. Requires
    /// [`ViperConfig::reliable_delivery`] (enabled by
    /// [`ViperConfig::with_coalescing`]).
    pub coalesce_updates: bool,
    /// Distribute reliable memory-route updates through a relay tree
    /// instead of producer point-to-point sends: consumers are organized
    /// into a bounded-fan-out tree ([`viper_net::Topology`]), the producer
    /// ships each update once per tree root, and every relay consumer
    /// re-serves the already-framed chunk bytes to its children after
    /// installing the update itself. The producer sees one group-level ACK
    /// per subtree (sent when the whole subtree has installed) instead of
    /// one round-trip per consumer, so wire time and retransmit state on
    /// the producer grow with the *fan-out*, not the fleet size, and
    /// propagation makespan grows with tree depth (~`log n`). Relay
    /// misses (a subtree member that cannot use the relayed payload) and
    /// relay failures degrade to direct producer sends, counted by
    /// `group_acks`/`reparent_events`. Off by default; requires
    /// [`ViperConfig::reliable_delivery`] (enabled by
    /// [`ViperConfig::with_relay_tree`]).
    pub relay_tree: bool,
    /// Fan-out bound of the relay tree (children per node, clamped to at
    /// least 1). The default of 4 keeps subtree serve time per level low
    /// while reaching 100k consumers in 9 levels.
    pub relay_fanout: usize,
    /// Worker-thread budget for the delivery reactor's CRC pool. The
    /// reactor itself is always one scheduler thread; this only sizes the
    /// pool that checksums incoming chunk batches. `1` (the default) means
    /// inline verification with no extra threads. Any value produces
    /// bit-identical virtual timings and traces — results are merged
    /// positionally, never by completion order.
    pub reactor_threads: usize,
    /// Telemetry handle shared by every component of the deployment
    /// (producers, consumers, fabric, pub/sub broker, predictor calls).
    /// Disabled by default — the disabled path records nothing and never
    /// touches the virtual clock, so benchmark makespans are bit-identical
    /// with or without it. [`crate::Viper::new`] binds this handle to the
    /// deployment's virtual clock, so timestamps land in virtual time.
    pub telemetry: viper_telemetry::Telemetry,
}

impl Default for ViperConfig {
    fn default() -> Self {
        ViperConfig {
            profile: MachineProfile::polaris(),
            strategy: TransferStrategy {
                route: Route::GpuToGpu,
                mode: CaptureMode::Async,
            },
            format: FormatKind::Viper,
            flush_to_pfs: true,
            keep_versions: 16,
            tier_fallback: true,
            discovery: DiscoveryMode::Push,
            chunked_transfer: false,
            chunk_bytes: 64 * 1024 * 1024,
            pfs_dir: None,
            fault_plan: None,
            reliable_delivery: false,
            delta_transfer: false,
            retry: viper_net::RetryPolicy::default(),
            coalesce_updates: false,
            relay_tree: false,
            relay_fanout: 4,
            reactor_threads: 1,
            telemetry: viper_telemetry::Telemetry::disabled(),
        }
    }
}

impl ViperConfig {
    /// The traditional baseline: h5py files through the PFS, discovered by
    /// polling (as TensorFlow Serving / Triton do).
    pub fn h5py_baseline() -> Self {
        ViperConfig {
            strategy: TransferStrategy {
                route: Route::PfsStaging,
                mode: CaptureMode::Sync,
            },
            format: FormatKind::H5,
            flush_to_pfs: false,
            discovery: DiscoveryMode::Poll {
                interval: Duration::from_millis(1),
            },
            ..Self::default()
        }
    }

    /// Viper through the PFS (lean format, same tier as the baseline).
    pub fn viper_pfs() -> Self {
        ViperConfig {
            strategy: TransferStrategy {
                route: Route::PfsStaging,
                mode: CaptureMode::Sync,
            },
            flush_to_pfs: false,
            ..Self::default()
        }
    }

    /// Collapse-to-latest coalescing is in effect: its lanes live on the
    /// reliable path.
    pub(crate) fn coalescing(&self) -> bool {
        self.coalesce_updates && self.reliable_delivery
    }

    /// Updates are delta-encoded (and envelope-framed): a base is only
    /// "acknowledged" through the reliable path's ACK channel.
    pub(crate) fn delta_active(&self) -> bool {
        self.delta_transfer && self.reliable_delivery
    }

    /// Consumers re-serve updates down a relay tree: relays group-ACK
    /// over the reliable path's control channel.
    pub(crate) fn relaying(&self) -> bool {
        self.relay_tree && self.reliable_delivery
    }

    /// Chunk size of the wire geometry; 0 ("one chunk") for monolithic
    /// transfer.
    pub(crate) fn wire_chunk_bytes(&self) -> u64 {
        if self.chunked_transfer {
            self.chunk_bytes
        } else {
            0
        }
    }

    /// Set the transfer strategy (builder style).
    pub fn with_strategy(mut self, route: Route, mode: CaptureMode) -> Self {
        self.strategy = TransferStrategy { route, mode };
        self
    }

    /// Enable the pipelined chunked transfer path with the given chunk size
    /// (builder style).
    pub fn with_chunked(mut self, chunk_bytes: u64) -> Self {
        self.chunked_transfer = true;
        self.chunk_bytes = chunk_bytes;
        self
    }

    /// Install a fault-injection plan AND enable reliable delivery (builder
    /// style) — injecting faults without the recovery machinery would just
    /// lose updates.
    pub fn with_faults(mut self, plan: viper_net::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self.reliable_delivery = true;
        self
    }

    /// Enable reliable delivery without injecting faults (builder style):
    /// CRC verification and ACK-gated sends on an otherwise clean fabric.
    pub fn with_reliable(mut self) -> Self {
        self.reliable_delivery = true;
        self
    }

    /// Enable delta transfer AND reliable delivery (builder style) — the
    /// per-consumer base tracking that makes a delta safe to send only
    /// exists on the ACK-gated path.
    pub fn with_delta(mut self) -> Self {
        self.delta_transfer = true;
        self.reliable_delivery = true;
        self
    }

    /// Set the retransmission policy (builder style).
    pub fn with_retry(mut self, retry: viper_net::RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enable collapse-to-latest coalescing AND reliable delivery (builder
    /// style) — the per-consumer queues live in the reliable delivery
    /// reactor; the unreliable path has no per-consumer state to bound.
    pub fn with_coalescing(mut self) -> Self {
        self.coalesce_updates = true;
        self.reliable_delivery = true;
        self
    }

    /// Enable relay-tree fan-out AND reliable delivery (builder style) —
    /// relays re-serve flows and group-ACK their subtree over the same
    /// control channel the reliability layer provides. `fanout` bounds
    /// the children per node (clamped to at least 1).
    pub fn with_relay_tree(mut self, fanout: usize) -> Self {
        self.relay_tree = true;
        self.relay_fanout = fanout.max(1);
        self.reliable_delivery = true;
        self
    }

    /// Set the delivery reactor's CRC worker budget (builder style).
    /// Clamped to at least 1 at deployment construction.
    pub fn with_reactor_threads(mut self, threads: usize) -> Self {
        self.reactor_threads = threads;
        self
    }

    /// Install a telemetry handle (builder style). Pass
    /// [`viper_telemetry::Telemetry::enabled`] to capture traces; the
    /// deployment binds the handle to its virtual clock on construction.
    pub fn with_telemetry(mut self, telemetry: viper_telemetry::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_memory_first_async_push() {
        let c = ViperConfig::default();
        assert_eq!(c.strategy.route, Route::GpuToGpu);
        assert_eq!(c.strategy.mode, CaptureMode::Async);
        assert_eq!(c.format, FormatKind::Viper);
        assert!(c.flush_to_pfs);
        assert!(c.tier_fallback);
        assert_eq!(c.discovery, DiscoveryMode::Push);
        assert!(!c.chunked_transfer, "monolithic delivery stays the default");
        assert_eq!(c.chunk_bytes, 64 * 1024 * 1024);
        assert!(c.fault_plan.is_none(), "no faults by default");
        assert!(!c.reliable_delivery, "reliability machinery off by default");
        assert!(!c.delta_transfer, "full checkpoints stay the default");
        assert!(!c.coalesce_updates, "blocking delivery stays the default");
        assert!(!c.relay_tree, "point-to-point delivery stays the default");
        assert_eq!(c.relay_fanout, 4);
        assert_eq!(c.reactor_threads, 1, "inline CRC verification by default");
    }

    #[test]
    fn with_relay_tree_implies_reliability_and_clamps_fanout() {
        let c = ViperConfig::default().with_relay_tree(8);
        assert!(c.relay_tree);
        assert_eq!(c.relay_fanout, 8);
        assert!(c.reliable_delivery);
        let c = ViperConfig::default().with_relay_tree(0);
        assert_eq!(c.relay_fanout, 1, "fan-out clamps to at least 1");
    }

    #[test]
    fn with_coalescing_implies_reliability() {
        let c = ViperConfig::default().with_coalescing();
        assert!(c.coalesce_updates);
        assert!(c.reliable_delivery);
    }

    #[test]
    fn builder_sets_reactor_threads() {
        let c = ViperConfig::default().with_reactor_threads(4);
        assert_eq!(c.reactor_threads, 4);
    }

    #[test]
    fn with_delta_implies_reliability() {
        let c = ViperConfig::default().with_delta();
        assert!(c.delta_transfer);
        assert!(c.reliable_delivery);
    }

    #[test]
    fn with_faults_enables_reliability() {
        let c = ViperConfig::default().with_faults(viper_net::FaultPlan::seeded(1).with_drop(0.2));
        assert!(c.reliable_delivery);
        assert_eq!(c.fault_plan.as_ref().map(|p| p.seed), Some(1));
        let c = ViperConfig::default().with_reliable();
        assert!(c.reliable_delivery);
        assert!(c.fault_plan.is_none());
    }

    #[test]
    fn builder_enables_chunking() {
        let c = ViperConfig::default().with_chunked(8 * 1024 * 1024);
        assert!(c.chunked_transfer);
        assert_eq!(c.chunk_bytes, 8 * 1024 * 1024);
    }

    #[test]
    fn baseline_polls() {
        assert!(matches!(
            ViperConfig::h5py_baseline().discovery,
            DiscoveryMode::Poll { .. }
        ));
    }

    #[test]
    fn baseline_uses_h5_over_pfs() {
        let c = ViperConfig::h5py_baseline();
        assert_eq!(c.strategy.route, Route::PfsStaging);
        assert_eq!(c.format, FormatKind::H5);
    }

    #[test]
    fn format_kinds_build() {
        assert_eq!(FormatKind::Viper.build().name(), "viper");
        assert_eq!(FormatKind::H5.build().name(), "h5py");
    }

    #[test]
    fn builder_sets_strategy() {
        let c = ViperConfig::default().with_strategy(Route::HostToHost, CaptureMode::Sync);
        assert_eq!(c.strategy.route, Route::HostToHost);
        assert_eq!(c.strategy.mode, CaptureMode::Sync);
    }
}
