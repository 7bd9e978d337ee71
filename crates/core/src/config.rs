//! Framework configuration.

use std::num::NonZeroUsize;
use std::time::Duration;
use viper_formats::{CheckpointFormat, H5Lite, ViperFormat};
use viper_hw::{pipeline_costs, CaptureMode, MachineProfile, Route, TransferStrategy};

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

/// How memory-route updates reach the consumers. Every extension past the
/// paper's push rides the reliable layer — a delta base is "acknowledged"
/// only through its ACK channel, the coalescing lanes live in its delivery
/// reactor, relays group-ACK over its control path — so they are options of
/// [`Delivery::Reliable`], and a mode the engine does not run cannot be
/// written down. The PFS route is unaffected: consumers pull from the
/// shared tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Delivery {
    /// The paper's push: each attached consumer is sent the payload once,
    /// one after another, as a chunked flow (one chunk unless
    /// [`ViperConfig::chunk_bytes`] says otherwise) whose chunks carry a
    /// 40-byte header with their CRC. A chunk that arrives damaged is
    /// dropped at its CRC and the update is lost to that consumer: no
    /// feedback, no retransmission.
    #[default]
    BestEffort,
    /// Receiver NACK/ACK feedback on top of the same flows, and sender
    /// retransmission with backoff under [`ViperConfig::retry`]. When the
    /// retry budget is exhausted the producer degrades the update to the
    /// durable PFS route.
    Reliable(Reliable),
}

/// The options of [`Delivery::Reliable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Reliable {
    /// Encode updates as incremental [`viper_formats::delta`] checkpoints
    /// when the receiving consumer has acknowledged a retained base
    /// version, falling back to a full checkpoint for fresh consumers,
    /// stale bases, and the durable PFS paths (which always store full
    /// encodings). Wire payloads carry an explicit payload-kind envelope
    /// ([`viper_formats::wire`]) so the receiver dispatches by header,
    /// never by sniffing.
    pub delta: bool,
    /// Collapse-to-latest coalescing: while an update is in flight to a
    /// consumer, the newest later version waits behind it and every
    /// version in between is dropped before it touches the wire (counted
    /// per consumer as `updates_superseded`, with a `queue_depth` gauge).
    /// Saves stop blocking on the slowest consumer — the producer's
    /// pipeline runs ahead while congested consumers skip straight to the
    /// newest version.
    pub coalesce: bool,
    /// Distribute through a relay tree of this fan-out (children per node)
    /// instead of producer point-to-point sends: consumers are organized
    /// into a bounded-fan-out tree ([`viper_net::Topology`]), the producer
    /// ships each update once per tree root, and every relay consumer
    /// re-serves the already-framed chunk bytes to its children after
    /// installing the update itself. The producer sees one group-level ACK
    /// per subtree instead of one round-trip per consumer, so wire time
    /// and retransmit state on the producer grow with the *fan-out*, not
    /// the fleet size, and propagation makespan grows with tree depth
    /// (~`log n`). Relay misses and relay failures degrade to direct
    /// producer sends, counted by `group_acks`/`reparent_events`. `None`:
    /// point to point.
    pub relay_fanout: Option<NonZeroUsize>,
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
    /// How consumers discover updates (push vs baseline polling).
    pub discovery: DiscoveryMode,
    /// Memory-route checkpoints travel as a pipelined chunked flow of
    /// chunks of this many bytes of payload, each its own message with a
    /// 40-byte header carrying its CRC, so capture, wire, and apply of
    /// successive chunks overlap in virtual time. `0` — the default — is
    /// one chunk: the monolithic update, priced and sent by the same
    /// pipeline. Small chunks pay per-chunk fixed costs; ~64 MiB keeps
    /// those under 1% on the Polaris profile. The PFS route is unaffected.
    pub chunk_bytes: u64,
    /// Persist the PFS tier's objects as files under this directory,
    /// surviving process restarts (see [`crate::Viper::recover_catalog`]).
    pub pfs_dir: Option<std::path::PathBuf>,
    /// Deterministic fault-injection plan installed on the fabric at
    /// deployment construction (drops, duplicates, reorders, bit flips).
    /// `None` — the default — leaves the fabric untouched.
    pub fault_plan: Option<viper_net::FaultPlan>,
    /// How memory-route updates reach the consumers.
    pub delivery: Delivery,
    /// Retransmission budget and pacing for reliable delivery (also paces
    /// the consumer's stale-flow reaping under best-effort delivery, so
    /// lost flows cannot pin reassembly buffers forever).
    pub retry: viper_net::RetryPolicy,
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
            discovery: DiscoveryMode::Push,
            chunk_bytes: 0,
            pfs_dir: None,
            fault_plan: None,
            delivery: Delivery::BestEffort,
            retry: viper_net::RetryPolicy::default(),
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

    /// Set the transfer strategy (builder style).
    pub fn with_strategy(mut self, route: Route, mode: CaptureMode) -> Self {
        self.strategy = TransferStrategy { route, mode };
        self
    }

    /// Set the chunk size memory-route flows are cut into (builder style;
    /// see [`ViperConfig::chunk_bytes`]).
    pub fn with_chunked(mut self, chunk_bytes: u64) -> Self {
        self.chunk_bytes = chunk_bytes;
        self
    }

    /// Install a fault-injection plan AND enable reliable delivery (builder
    /// style) — injecting faults without the recovery machinery would just
    /// lose updates.
    pub fn with_faults(mut self, plan: viper_net::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self.reliable_with(|_| {})
    }

    /// Enable reliable delivery without injecting faults (builder style):
    /// CRC verification and ACK-gated sends on an otherwise clean fabric.
    pub fn with_reliable(self) -> Self {
        self.reliable_with(|_| {})
    }

    /// Enable delta transfer, on reliable delivery (builder style).
    pub fn with_delta(self) -> Self {
        self.reliable_with(|options| options.delta = true)
    }

    /// Set the retransmission policy (builder style).
    pub fn with_retry(mut self, retry: viper_net::RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enable collapse-to-latest coalescing, on reliable delivery (builder
    /// style).
    pub fn with_coalescing(self) -> Self {
        self.reliable_with(|options| options.coalesce = true)
    }

    /// Enable relay-tree fan-out, on reliable delivery (builder style).
    /// `fanout` bounds the children per node (clamped to at least 1).
    pub fn with_relay_tree(self, fanout: usize) -> Self {
        let fanout = NonZeroUsize::new(fanout).unwrap_or(NonZeroUsize::MIN);
        self.reliable_with(|options| options.relay_fanout = Some(fanout))
    }

    /// Switch reliable delivery on — keeping its options if it already is —
    /// and `set` one of them, so the builders compose in any order.
    fn reliable_with(mut self, set: impl FnOnce(&mut Reliable)) -> Self {
        let mut options = match self.delivery {
            Delivery::BestEffort => Reliable::default(),
            Delivery::Reliable(options) => options,
        };
        set(&mut options);
        self.delivery = Delivery::Reliable(options);
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

/// How a save's capture is billed on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CaptureBilling {
    /// Charged from the save's start, before anything else.
    Lump,
    /// Inside every flow's chunk schedule: chunk `i` leaves once the
    /// capture has reached it (and the sender's link is free) — or, if no
    /// flow took the model, as a lump after the notification.
    InFlow,
}

/// Which thread delivers a saved update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Deliverer {
    /// The save thread, before `save_weights` returns: it waits until
    /// every flow is terminal — or, coalescing, admitted to its lane.
    SaveThread,
    /// The async worker, after `save_weights` returned at the end of the
    /// capture.
    Worker,
}

/// The decisions one save makes, from the delivery mode, the strategy and
/// the route the Transfer Selector chose — computed once, read by
/// `save_weights`, the async worker, `deliver` and the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SavePlan {
    pub(crate) capture: CaptureBilling,
    pub(crate) deliverer: Deliverer,
    /// Keep this version's checkpoint as a future delta base.
    pub(crate) retain_base: bool,
    /// The pipeline whose `viper_hw::pipeline_costs` stall the save
    /// reports: `(Sync, chunk_bytes)` when it waits for the wire (0: one
    /// chunk), `(Async, 0)` — the one-chunk capture alone — when it does
    /// not.
    pub(crate) stall: (CaptureMode, u64),
}

impl SavePlan {
    pub(crate) fn new(config: &ViperConfig, route: Route) -> Self {
        // The PFS route's write-through *is* the capture, and consumers
        // pull what it wrote: every save on it is synchronous and lump-billed.
        let memory = route != Route::PfsStaging;
        let (delta, coalesce) = match config.delivery {
            Delivery::BestEffort => (false, false),
            Delivery::Reliable(options) => (options.delta, options.coalesce),
        };
        let worker = memory && config.strategy.mode == CaptureMode::Async;
        // Neither an async save nor a coalescing one (its delivery is
        // admitted, not resolved, before it returns) waits for the wire.
        let waits = memory && !worker && !coalesce;
        SavePlan {
            // A delta may put far fewer bytes on the wire than the capture
            // snapshots, so billing the capture inside its flow would
            // undercharge it: it is a lump — while the stall stays the full
            // payload's pipeline (DESIGN.md, "Producer timeline").
            capture: if waits && !delta {
                CaptureBilling::InFlow
            } else {
                CaptureBilling::Lump
            },
            deliverer: if worker {
                Deliverer::Worker
            } else {
                Deliverer::SaveThread
            },
            retain_base: delta,
            stall: if waits {
                (CaptureMode::Sync, config.chunk_bytes)
            } else {
                (CaptureMode::Async, 0)
            },
        }
    }

    /// The stall this save reports for `bytes` over `ntensors` tensors on
    /// `route`: the producer-side stages of its priced pipeline.
    pub(crate) fn stall_price(
        &self,
        profile: &MachineProfile,
        route: Route,
        bytes: u64,
        ntensors: usize,
        metadata_factor: f64,
    ) -> Duration {
        let (mode, chunk_bytes) = self.stall;
        let strategy = TransferStrategy { route, mode };
        pipeline_costs(
            profile,
            strategy,
            bytes,
            ntensors,
            chunk_bytes,
            metadata_factor,
        )
        .stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reliable(delta: bool, coalesce: bool, relay_fanout: usize) -> Delivery {
        Delivery::Reliable(Reliable {
            delta,
            coalesce,
            relay_fanout: NonZeroUsize::new(relay_fanout),
        })
    }

    #[test]
    fn default_is_memory_first_async_push() {
        let c = ViperConfig::default();
        assert_eq!(c.strategy.route, Route::GpuToGpu);
        assert_eq!(c.strategy.mode, CaptureMode::Async);
        assert_eq!(c.format, FormatKind::Viper);
        assert!(c.flush_to_pfs);
        assert_eq!(c.discovery, DiscoveryMode::Push);
        assert_eq!(c.chunk_bytes, 0, "one-chunk delivery stays the default");
        assert!(c.fault_plan.is_none(), "no faults by default");
        assert_eq!(c.delivery, Delivery::BestEffort, "no reliability layer");
    }

    #[test]
    fn with_relay_tree_implies_reliability_and_clamps_fanout() {
        let c = ViperConfig::default().with_relay_tree(8);
        assert_eq!(c.delivery, reliable(false, false, 8));
        let c = ViperConfig::default().with_relay_tree(0);
        assert_eq!(c.delivery, reliable(false, false, 1), "clamped to 1");
    }

    #[test]
    fn with_coalescing_implies_reliability() {
        let c = ViperConfig::default().with_coalescing();
        assert_eq!(c.delivery, reliable(false, true, 0));
    }

    #[test]
    fn with_delta_implies_reliability() {
        let c = ViperConfig::default().with_delta();
        assert_eq!(c.delivery, reliable(true, false, 0));
    }

    #[test]
    fn with_faults_enables_reliability() {
        let plan = viper_net::FaultPlan::seeded(1).with_drop(0.2);
        let c = ViperConfig::default().with_faults(plan.clone());
        assert_eq!(c.delivery, reliable(false, false, 0));
        assert_eq!(c.fault_plan.as_ref().map(|p| p.seed), Some(1));
        let c = ViperConfig::default().with_reliable();
        assert_eq!(c.delivery, reliable(false, false, 0));
        assert!(c.fault_plan.is_none());
        // Chunking is geometry, not a delivery mode: it keeps reliability.
        let c = ViperConfig::default().with_faults(plan).with_chunked(1024);
        assert_eq!(c.delivery, reliable(false, false, 0));
        assert_eq!(c.chunk_bytes, 1024);
    }

    #[test]
    fn builder_enables_chunking() {
        let c = ViperConfig::default().with_chunked(8 * 1024 * 1024);
        assert_eq!(c.chunk_bytes, 8 * 1024 * 1024);
        assert_eq!(c.delivery, Delivery::BestEffort);
    }

    #[test]
    fn builder_chains_yield_their_documented_modes() {
        let d = ViperConfig::default;
        let chains = [
            (d().with_reliable().with_delta(), reliable(true, false, 0)),
            (d().with_delta().with_reliable(), reliable(true, false, 0)),
            (d().with_delta().with_coalescing(), reliable(true, true, 0)),
            (
                d().with_coalescing().with_relay_tree(3),
                reliable(false, true, 3),
            ),
            (
                d().with_relay_tree(2).with_delta().with_coalescing(),
                reliable(true, true, 2),
            ),
            (
                d().with_relay_tree(2).with_relay_tree(5),
                reliable(false, false, 5),
            ),
        ];
        for (config, mode) in chains {
            assert_eq!(config.delivery, mode);
        }
    }

    #[test]
    fn builders_commute() {
        let d = ViperConfig::default;
        assert_eq!(
            d().with_delta().with_relay_tree(2).delivery,
            d().with_relay_tree(2).with_delta().delivery
        );
        let plan = || viper_net::FaultPlan::seeded(3);
        assert_eq!(
            d().with_coalescing().with_faults(plan()).delivery,
            d().with_faults(plan()).with_coalescing().delivery
        );
        assert_eq!(
            d().with_chunked(64).with_delta().delivery,
            d().with_delta().with_chunked(64).delivery
        );
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

    fn plan(config: ViperConfig, route: Route) -> SavePlan {
        SavePlan::new(&config, route)
    }

    #[test]
    fn a_sync_save_to_memory_waits_for_the_wire() {
        let sync = || ViperConfig::default().with_strategy(Route::GpuToGpu, CaptureMode::Sync);
        let mono = plan(sync(), Route::GpuToGpu);
        assert_eq!(mono.capture, CaptureBilling::InFlow);
        assert_eq!(mono.deliverer, Deliverer::SaveThread);
        assert_eq!(mono.stall, (CaptureMode::Sync, 0));
        assert!(!mono.retain_base);
        let chunked = plan(sync().with_chunked(64).with_reliable(), Route::HostToHost);
        assert_eq!(chunked.capture, CaptureBilling::InFlow);
        assert_eq!(chunked.stall, (CaptureMode::Sync, 64));
    }

    /// The asymmetry DESIGN.md names: a delta + chunked + sync save bills
    /// its capture as a lump, yet reports the full payload's pipeline stall.
    #[test]
    fn a_chunked_sync_delta_save_bills_a_lump_but_prices_the_pipeline() {
        let config = ViperConfig::default()
            .with_strategy(Route::GpuToGpu, CaptureMode::Sync)
            .with_chunked(64)
            .with_delta();
        let delta = plan(config, Route::GpuToGpu);
        assert_eq!(delta.capture, CaptureBilling::Lump);
        assert_eq!(delta.stall, (CaptureMode::Sync, 64));
        assert!(delta.retain_base);
    }

    #[test]
    fn saves_that_do_not_wait_report_the_capture_alone() {
        let chunked = || ViperConfig::default().with_chunked(64);
        let sync = || chunked().with_strategy(Route::GpuToGpu, CaptureMode::Sync);
        let cases = [
            // Async: the worker delivers.
            (chunked().with_delta(), Route::GpuToGpu, Deliverer::Worker),
            // Coalescing: admitted, not resolved, before the save returns.
            (
                sync().with_coalescing(),
                Route::GpuToGpu,
                Deliverer::SaveThread,
            ),
            // The Transfer Selector degraded an async save to the PFS.
            (chunked(), Route::PfsStaging, Deliverer::SaveThread),
        ];
        for (config, route, deliverer) in cases {
            let p = plan(config, route);
            assert_eq!(p.stall, (CaptureMode::Async, 0));
            assert_eq!(p.capture, CaptureBilling::Lump);
            assert_eq!(p.deliverer, deliverer);
        }
    }
}
