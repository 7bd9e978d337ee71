//! Transfer-strategy cost composition.
//!
//! One model update = capture on the producer + delivery to the consumer +
//! apply into the live model (§4.4). One table of stages — each a
//! bandwidth, a per-chunk latency and a per-flow metadata cost — says what
//! every phase costs on each route, and [`pipeline_costs`] pushes an
//! update's chunks through the strategy's lineup of them, so that the
//! framework runtime, the planner, the discrete-event simulator and the
//! benchmarks all price updates identically:
//!
//! | strategy   | producer stall (blocks training) | post-stall delivery          |
//! |------------|----------------------------------|------------------------------|
//! | GPU sync   | capture + GPU-RDMA wire          | apply (D2D)                  |
//! | GPU async  | capture                          | staging copy + wire + apply  |
//! | Host sync  | D2H capture + IB wire            | apply (H2D + tensor update)  |
//! | Host async | D2H capture                      | staging copy + wire + apply  |
//! | PFS (any)  | PFS write                        | PFS read + apply (H2D)       |
//!
//! The engine's own charges are one-chunk lookups of the same table:
//! [`capture_time`] (a lump capture, or the PFS write),
//! [`staging_copy_time`] (the async worker's copy) and [`apply_time`] (the
//! consumer's install), and a sync save's in-flow capture is
//! [`capture_stage`] itself. Past one consumer, [`fanout_hop`] prices
//! each further member from the same table: one more flow on the sender's
//! link, and one more install tail per relay level.
//!
//! The *update latency* the paper measures end-to-end (Fig. 8) is
//! `stall + post + notify`; the *training overhead* per update (Fig. 9 /
//! Table 1) is just `stall`.

use crate::{MachineProfile, Tier};
use std::time::Duration;

/// Synchronous or asynchronous capture-and-send on the producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaptureMode {
    /// Training blocks until the model has left the producer.
    Sync,
    /// Training blocks only for the snapshot; a background thread delivers.
    Async,
}

/// Which route a model update takes from producer to consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// Direct GPU-to-GPU memory (GPUDirect RDMA / NVLink).
    GpuToGpu,
    /// Host-to-host memory over InfiniBand, staging through DRAM.
    HostToHost,
    /// Staging through the parallel file system (the traditional path).
    PfsStaging,
}

impl Route {
    /// The producer-side tier this route caches the checkpoint on.
    pub fn staging_tier(self) -> Tier {
        match self {
            Route::GpuToGpu => Tier::GpuMem,
            Route::HostToHost => Tier::HostMem,
            Route::PfsStaging => Tier::Pfs,
        }
    }
}

/// A complete transfer strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransferStrategy {
    /// Route taken by the checkpoint.
    pub route: Route,
    /// Capture mode on the producer.
    pub mode: CaptureMode,
}

impl TransferStrategy {
    /// All six strategies of Fig. 8, in the figure's order (PFS has no
    /// sync/async distinction there; it appears once).
    pub fn fig8_lineup() -> [TransferStrategy; 5] {
        [
            TransferStrategy {
                route: Route::PfsStaging,
                mode: CaptureMode::Sync,
            },
            TransferStrategy {
                route: Route::HostToHost,
                mode: CaptureMode::Sync,
            },
            TransferStrategy {
                route: Route::HostToHost,
                mode: CaptureMode::Async,
            },
            TransferStrategy {
                route: Route::GpuToGpu,
                mode: CaptureMode::Sync,
            },
            TransferStrategy {
                route: Route::GpuToGpu,
                mode: CaptureMode::Async,
            },
        ]
    }

    /// Short label matching the paper's figures.
    pub fn label(&self) -> String {
        match (self.route, self.mode) {
            (Route::PfsStaging, _) => "Viper-PFS".into(),
            (Route::HostToHost, CaptureMode::Sync) => "Viper-Sync (Host Memory)".into(),
            (Route::HostToHost, CaptureMode::Async) => "Viper-Async (Host Memory)".into(),
            (Route::GpuToGpu, CaptureMode::Sync) => "Viper-Sync (GPU Memory)".into(),
            (Route::GpuToGpu, CaptureMode::Async) => "Viper-Async (GPU Memory)".into(),
        }
    }
}

/// The priced phases of one model update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateCosts {
    /// Time the producer's training loop is blocked.
    pub stall: Duration,
    /// Remaining delivery time after the stall (overlaps training).
    pub post_stall: Duration,
    /// Consumer-side apply time (included in `post_stall`; broken out for
    /// reporting).
    pub apply: Duration,
    /// Notification latency until the consumer learns of the update.
    pub notify: Duration,
}

impl UpdateCosts {
    /// End-to-end model update latency (checkpoint start → consumer serving
    /// the new model) — the metric of Fig. 8.
    pub fn update_latency(&self) -> Duration {
        self.stall + self.post_stall + self.notify
    }
}

/// Producer-side capture time: the snapshot copy out of the live training
/// tensors, as one chunk through the route's capture stage. For the PFS
/// route this is the (blocking) PFS write itself; `metadata_factor` scales
/// its per-tensor metadata cost.
pub fn capture_time(
    profile: &MachineProfile,
    route: Route,
    bytes: u64,
    ntensors: usize,
    metadata_factor: f64,
) -> Duration {
    capture_stage(profile, route, ntensors, metadata_factor).time(bytes, true)
}

/// The route's capture stage: what the fabric's chunked send overlaps with
/// the wire when a sync save bills its capture inside the flow.
pub fn capture_stage(
    profile: &MachineProfile,
    route: Route,
    ntensors: usize,
    metadata_factor: f64,
) -> Stage {
    route_stages(profile, route, ntensors, metadata_factor).capture
}

/// The asynchronous producer's staging copy, made before it hands the
/// snapshot to the background delivery thread: one chunk through the
/// route's staging stage. Zero for the PFS route, which stages nothing
/// (its write is always blocking).
pub fn staging_copy_time(profile: &MachineProfile, route: Route, bytes: u64) -> Duration {
    route_stages(profile, route, 0, 1.0)
        .staging
        .map_or(Duration::ZERO, |stage| stage.time(bytes, true))
}

/// One read pass over `bytes` at the route's staging bandwidth, with no
/// fixed cost: the delta diff's compare pass, which is not a pipeline
/// stage. Zero for the PFS route.
pub fn stage_time(profile: &MachineProfile, route: Route, bytes: u64) -> Duration {
    route_stages(profile, route, 0, 1.0)
        .staging
        .map_or(Duration::ZERO, |stage| {
            Duration::from_secs_f64(bytes as f64 / stage.bw)
        })
}

/// Consumer-side apply time: copying the received buffer into the live
/// model's tensors, as one chunk through the route's apply stage.
pub fn apply_time(profile: &MachineProfile, route: Route, bytes: u64, ntensors: usize) -> Duration {
    route_stages(profile, route, ntensors, 1.0)
        .apply
        .time(bytes, true)
}

/// The fabric's chunk header: bytes every chunk carries ahead of its body.
pub const CHUNK_HEADER_BYTES: u64 = 40;

/// The consumer's slot swap after an apply: §4.2's "negligible" step.
pub const SWAP_NUDGE: Duration = Duration::from_nanos(100);

/// What one more member of a fan-out costs, read off the stage table: a
/// node's flows queue on its one link, and a member re-serves (as a relay)
/// only once it has installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FanoutHop {
    /// One flow's time on the sender's link: every chunk with its header,
    /// back to back through the route's transit stage.
    pub wire: Duration,
    /// From a flow's arrival to its receiver's swap: the notification, the
    /// apply and the swap nudge.
    pub tail: Duration,
}

/// The [`FanoutHop`] of a memory-route update of `bytes` across `ntensors`
/// tensors, sent as chunks of `chunk_bytes` (0: one chunk).
pub fn fanout_hop(
    profile: &MachineProfile,
    route: Route,
    bytes: u64,
    ntensors: usize,
    chunk_bytes: u64,
) -> FanoutHop {
    let transit = route_stages(profile, route, ntensors, 1.0).transit;
    let frames = chunk_layout(bytes, chunk_bytes).into_iter();
    FanoutHop {
        wire: frames
            .map(|chunk| transit.time(chunk + CHUNK_HEADER_BYTES, false))
            .sum(),
        tail: profile.notify_latency + apply_time(profile, route, bytes, ntensors) + SWAP_NUDGE,
    }
}

impl FanoutHop {
    /// When each of `n` members installs, from the instant the producer's
    /// link is free for member 0. With no `fanout` the producer serves every
    /// member in turn; with one, it serves the root of the relay tree's
    /// heap (member `i`'s parent is `(i - 1) / fanout`), and each relay
    /// serves its children in turn once it has installed: child `j`
    /// (1-based) of `p` at `install(p) + j·wire + tail`. Member `i`'s flow
    /// takes `slowdown(i)` times the healthy wire time.
    pub fn installs(
        &self,
        n: usize,
        fanout: Option<usize>,
        slowdown: impl Fn(usize) -> u32,
    ) -> Vec<Duration> {
        let mut installs: Vec<Duration> = Vec::with_capacity(n);
        // The sender serving member `i` (`None`: the producer) and the
        // instant its link frees. A heap's children are contiguous, so each
        // sender's turn is one run of members.
        let (mut sender, mut link) = (None, Duration::ZERO);
        for i in 0..n {
            let parent = fanout.filter(|_| i > 0).map(|f| (i - 1) / f);
            if parent != sender {
                sender = parent;
                link = parent.map_or(Duration::ZERO, |p| installs[p]);
            }
            link += self.wire * slowdown(i);
            installs.push(link + self.tail);
        }
        installs
    }
}

/// Virtual-time backoff before retransmission round `attempt` (1-based):
/// exponential growth from `base` (`base`, `2·base`, `4·base`, …), capped at
/// `cap`. This is the reliability layer's cost model — backoff is charged to
/// the virtual clock like any other hardware duration, so lost chunks show
/// up as measurable update-latency increases instead of free retries.
pub fn retry_backoff(base: Duration, attempt: u32, cap: Duration) -> Duration {
    if base.is_zero() || attempt == 0 {
        return Duration::ZERO;
    }
    // 2^(attempt-1), saturating well past any meaningful cap.
    let factor = 1u32 << (attempt - 1).min(30);
    base.saturating_mul(factor).min(cap)
}

/// One stage of the chunked transfer pipeline: a bandwidth, a fixed cost
/// paid per chunk, and a one-time cost paid once per flow (per-tensor
/// metadata, charged with the first chunk).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage {
    /// Bytes per second.
    pub bw: f64,
    /// Fixed cost every chunk pays (a tier or link latency).
    pub per_chunk: Duration,
    /// Fixed cost the flow's first chunk pays (per-tensor metadata).
    pub once: Duration,
}

impl Stage {
    /// Time this stage takes over one chunk of `chunk` bytes; `first`
    /// marks the flow's first chunk, which also pays `once`.
    pub fn time(&self, chunk: u64, first: bool) -> Duration {
        let once = if first { self.once } else { Duration::ZERO };
        self.per_chunk + once + Duration::from_secs_f64(chunk as f64 / self.bw)
    }
}

/// Split `bytes` into chunk sizes of at most `chunk_bytes` each (the last
/// chunk takes the remainder). Always yields at least one chunk, so empty
/// payloads still travel as a single (empty) chunk. A zero `chunk_bytes`
/// means "do not split". The one chunk geometry: the fabric's chunked send
/// splits payloads with this function (as `viper_net::chunk_sizes`).
pub fn chunk_layout(bytes: u64, chunk_bytes: u64) -> Vec<u64> {
    if bytes == 0 || chunk_bytes == 0 || chunk_bytes >= bytes {
        return vec![bytes];
    }
    let mut sizes = vec![chunk_bytes; (bytes / chunk_bytes) as usize];
    if !bytes.is_multiple_of(chunk_bytes) {
        sizes.push(bytes % chunk_bytes);
    }
    sizes
}

/// Every stage an update on a route can pass through, in pipeline order:
/// the one table of what a capture, a staging copy, a transit (the wire,
/// or the PFS read) and an apply cost.
struct RouteStages {
    capture: Stage,
    /// The async producer's staging copy (memory routes only).
    staging: Option<Stage>,
    transit: Stage,
    apply: Stage,
}

fn route_stages(
    profile: &MachineProfile,
    route: Route,
    ntensors: usize,
    metadata_factor: f64,
) -> RouteStages {
    let n = ntensors as f64;
    let host = profile.tier(Tier::HostMem);
    // The host-side apply: a contiguous H2D copy plus per-tensor setup.
    let h2d_apply = Stage {
        bw: profile.h2d_apply_bw,
        per_chunk: host.read_latency,
        once: Duration::from_millis(1).mul_f64(n),
    };
    match route {
        Route::GpuToGpu | Route::HostToHost => {
            let gpu = route == Route::GpuToGpu;
            let tier = profile.tier(route.staging_tier());
            let (capture_bw, stage_bw, wire_bw) = if gpu {
                (
                    profile.gpu_capture_bw,
                    profile.gpu_async_stage_bw,
                    profile.gpu_rdma_bw,
                )
            } else {
                (
                    profile.d2h_capture_bw,
                    profile.host_async_stage_bw,
                    profile.host_rdma_bw,
                )
            };
            RouteStages {
                capture: Stage {
                    bw: capture_bw,
                    per_chunk: tier.write_latency,
                    once: tier.per_tensor_write.mul_f64(n),
                },
                staging: Some(Stage {
                    bw: stage_bw,
                    per_chunk: tier.write_latency,
                    once: Duration::ZERO,
                }),
                transit: Stage {
                    bw: wire_bw,
                    per_chunk: profile.net_latency,
                    once: Duration::ZERO,
                },
                apply: if gpu {
                    // Device to device, at the capture's bandwidth.
                    Stage {
                        bw: capture_bw,
                        per_chunk: tier.read_latency,
                        once: tier.per_tensor_read.mul_f64(n),
                    }
                } else {
                    h2d_apply
                },
            }
        }
        Route::PfsStaging => {
            let pfs = profile.tier(Tier::Pfs);
            let meta_ops = (n * metadata_factor).ceil();
            RouteStages {
                capture: Stage {
                    bw: pfs.write_bw,
                    per_chunk: pfs.write_latency,
                    once: pfs.per_tensor_write.mul_f64(meta_ops),
                },
                staging: None,
                transit: Stage {
                    bw: pfs.read_bw,
                    per_chunk: pfs.read_latency,
                    once: pfs.per_tensor_read.mul_f64(meta_ops),
                },
                apply: h2d_apply,
            }
        }
    }
}

/// The pipeline's stage lineup for a strategy, plus how many leading stages
/// run on the producer (and therefore bound the training stall).
fn pipeline_stages(
    profile: &MachineProfile,
    strategy: TransferStrategy,
    ntensors: usize,
    metadata_factor: f64,
) -> (Vec<Stage>, usize) {
    let route = route_stages(profile, strategy.route, ntensors, metadata_factor);
    let staging = route
        .staging
        .filter(|_| strategy.mode == CaptureMode::Async);
    let stages: Vec<Stage> = [
        Some(route.capture),
        staging,
        Some(route.transit),
        Some(route.apply),
    ]
    .into_iter()
    .flatten()
    .collect();
    // Sync memory saves: training resumes once the last chunk clears the
    // wire. Async: only the capture blocks; staging onward is background.
    // The PFS write blocks training regardless of mode.
    let memory_sync = strategy.route != Route::PfsStaging && strategy.mode == CaptureMode::Sync;
    (stages, if memory_sync { 2 } else { 1 })
}

/// Completion time of each stage after pushing every chunk through the
/// pipeline: chunk `i` enters stage `s` once both stage `s-1` finished that
/// chunk and stage `s` finished chunk `i-1` (stages hold one chunk at a
/// time — same-link serialization).
fn stage_completions(chunks: &[u64], stages: &[Stage]) -> Vec<Duration> {
    let mut done = vec![Duration::ZERO; stages.len()];
    for (ci, &chunk) in chunks.iter().enumerate() {
        let mut upstream = Duration::ZERO;
        for (s, stage) in stages.iter().enumerate() {
            let start = upstream.max(done[s]);
            done[s] = start + stage.time(chunk, ci == 0);
            upstream = done[s];
        }
    }
    done
}

/// Price one model update of `bytes` across `ntensors` tensors under
/// `strategy`, sent as chunks of `chunk_bytes` (0: one chunk — the
/// monolithic update is this pipeline's degenerate case, not a second
/// model). `stall` is when the last chunk clears the producer-side stages
/// (capture alone for async, capture + wire for sync, the PFS write for the
/// PFS route), and `post_stall` is the remaining drain until the last chunk
/// is applied. `apply` reports the non-overlapped apply tail (with one
/// chunk, the whole apply stage). `metadata_factor` scales the per-tensor
/// metadata cost of the serialization format (1.0 for the lean Viper
/// format, >1 for h5py-style formats) and only affects the PFS route, where
/// metadata operations hit the file system.
pub fn pipeline_costs(
    profile: &MachineProfile,
    strategy: TransferStrategy,
    bytes: u64,
    ntensors: usize,
    chunk_bytes: u64,
    metadata_factor: f64,
) -> UpdateCosts {
    let (stages, producer_stages) = pipeline_stages(profile, strategy, ntensors, metadata_factor);
    let done = stage_completions(&chunk_layout(bytes, chunk_bytes), &stages);
    let total = *done.last().expect("pipeline has stages");
    let stall = done[producer_stages - 1];
    let apply = total.saturating_sub(done[done.len() - 2]);
    UpdateCosts {
        stall,
        post_stall: total.saturating_sub(stall),
        apply,
        notify: profile.notify_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TC1: u64 = 4_700_000_000;
    const TC1_TENSORS: usize = 20;

    fn costs(route: Route, mode: CaptureMode) -> UpdateCosts {
        pipeline_costs(
            &MachineProfile::polaris(),
            TransferStrategy { route, mode },
            TC1,
            TC1_TENSORS,
            0,
            1.0,
        )
    }

    #[test]
    fn gpu_sync_latency_near_paper() {
        let c = costs(Route::GpuToGpu, CaptureMode::Sync);
        let lat = c.update_latency().as_secs_f64();
        // Paper: 0.626 s.
        assert!((lat - 0.626).abs() / 0.626 < 0.15, "latency {lat}");
    }

    #[test]
    fn gpu_async_latency_near_paper() {
        let c = costs(Route::GpuToGpu, CaptureMode::Async);
        let lat = c.update_latency().as_secs_f64();
        // Paper: 0.856 s.
        assert!((lat - 0.856).abs() / 0.856 < 0.15, "latency {lat}");
    }

    #[test]
    fn host_sync_latency_near_paper() {
        let c = costs(Route::HostToHost, CaptureMode::Sync);
        let lat = c.update_latency().as_secs_f64();
        // Paper: 2.264 s.
        assert!((lat - 2.264).abs() / 2.264 < 0.15, "latency {lat}");
    }

    #[test]
    fn pfs_latency_near_paper() {
        let c = costs(Route::PfsStaging, CaptureMode::Sync);
        let lat = c.update_latency().as_secs_f64();
        // Paper (Viper-PFS): 6.977 s.
        assert!((lat - 6.977).abs() / 6.977 < 0.15, "latency {lat}");
    }

    #[test]
    fn async_stalls_less_but_lasts_longer() {
        for route in [Route::GpuToGpu, Route::HostToHost] {
            let sync = costs(route, CaptureMode::Sync);
            let async_ = costs(route, CaptureMode::Async);
            assert!(async_.stall < sync.stall, "{route:?}");
            assert!(async_.update_latency() > sync.update_latency(), "{route:?}");
        }
    }

    #[test]
    fn gpu_async_stall_matches_fig9() {
        // Fig. 9: 16 GPU-route checkpoints cost ≈1 s of training overhead.
        let c = costs(Route::GpuToGpu, CaptureMode::Async);
        let total = c.stall.as_secs_f64() * 16.0;
        assert!((total - 1.0).abs() < 0.5, "16 ckpts = {total} s");
    }

    #[test]
    fn host_stall_matches_fig9() {
        // Fig. 9: 16 host-route checkpoints ≈ 22 s of training overhead.
        let c = costs(Route::HostToHost, CaptureMode::Async);
        let total = c.stall.as_secs_f64() * 16.0;
        assert!((total - 22.0).abs() / 22.0 < 0.15, "16 ckpts = {total} s");
    }

    #[test]
    fn pfs_stall_matches_fig9() {
        // Fig. 9: 16 PFS checkpoints ≈ 60 s of training overhead.
        let c = costs(Route::PfsStaging, CaptureMode::Sync);
        let total = c.stall.as_secs_f64() * 16.0;
        assert!((total - 60.0).abs() / 60.0 < 0.20, "16 ckpts = {total} s");
    }

    #[test]
    fn strategy_ordering_matches_paper() {
        let gpu = costs(Route::GpuToGpu, CaptureMode::Sync).update_latency();
        let host = costs(Route::HostToHost, CaptureMode::Sync).update_latency();
        let pfs = costs(Route::PfsStaging, CaptureMode::Sync).update_latency();
        assert!(gpu < host && host < pfs);
    }

    #[test]
    fn metadata_factor_only_hits_pfs() {
        let p = MachineProfile::polaris();
        let s_gpu = TransferStrategy {
            route: Route::GpuToGpu,
            mode: CaptureMode::Sync,
        };
        let s_pfs = TransferStrategy {
            route: Route::PfsStaging,
            mode: CaptureMode::Sync,
        };
        let g1 = pipeline_costs(&p, s_gpu, TC1, TC1_TENSORS, 0, 1.0);
        let g4 = pipeline_costs(&p, s_gpu, TC1, TC1_TENSORS, 0, 4.0);
        assert_eq!(g1, g4);
        let p1 = pipeline_costs(&p, s_pfs, TC1, TC1_TENSORS, 0, 1.0);
        let p4 = pipeline_costs(&p, s_pfs, TC1, TC1_TENSORS, 0, 4.0);
        assert!(p4.update_latency() > p1.update_latency());
    }

    #[test]
    fn labels_and_lineup() {
        let lineup = TransferStrategy::fig8_lineup();
        assert_eq!(lineup.len(), 5);
        assert_eq!(lineup[0].label(), "Viper-PFS");
        assert_eq!(lineup[4].label(), "Viper-Async (GPU Memory)");
    }

    #[test]
    fn staging_tiers() {
        assert_eq!(Route::GpuToGpu.staging_tier(), Tier::GpuMem);
        assert_eq!(Route::HostToHost.staging_tier(), Tier::HostMem);
        assert_eq!(Route::PfsStaging.staging_tier(), Tier::Pfs);
    }

    /// One-chunk (monolithic) capture → delivery → apply, for comparison.
    fn monolithic(route: Route) -> f64 {
        pipelined(route, 0).as_secs_f64()
    }

    /// Overlapped makespan of a synchronous chunked TC1 update: fill,
    /// steady state at the bottleneck stage, drain.
    fn pipelined(route: Route, chunk_bytes: u64) -> Duration {
        let strategy = TransferStrategy {
            route,
            mode: CaptureMode::Sync,
        };
        let c = pipeline_costs(
            &MachineProfile::polaris(),
            strategy,
            TC1,
            TC1_TENSORS,
            chunk_bytes,
            1.0,
        );
        c.stall + c.post_stall
    }

    #[test]
    fn chunk_layout_covers_payload() {
        assert_eq!(chunk_layout(10, 3), vec![3, 3, 3, 1]);
        assert_eq!(chunk_layout(9, 3), vec![3, 3, 3]);
        assert_eq!(chunk_layout(2, 3), vec![2]);
        assert_eq!(chunk_layout(5, 0), vec![5]);
        assert_eq!(chunk_layout(0, 64), vec![0]);
    }

    #[test]
    fn single_chunk_matches_monolithic_within_fixed_costs() {
        // A chunk as large as the payload and `chunk_bytes = 0` are one
        // geometry, so they are one price, to the nanosecond.
        for route in [Route::GpuToGpu, Route::HostToHost, Route::PfsStaging] {
            assert_eq!(pipelined(route, TC1), pipelined(route, 0), "{route:?}");
        }
    }

    #[test]
    fn four_chunks_strictly_beat_monolithic_on_memory_routes() {
        for route in [Route::GpuToGpu, Route::HostToHost] {
            let pipe = pipelined(route, TC1 / 4).as_secs_f64();
            let mono = monolithic(route);
            assert!(
                pipe < mono,
                "{route:?}: pipelined {pipe} !< monolithic {mono}"
            );
        }
    }

    #[test]
    fn chunked_pfs_overlaps_write_and_read() {
        let pipe = pipelined(Route::PfsStaging, TC1 / 8).as_secs_f64();
        assert!(pipe < monolithic(Route::PfsStaging));
    }

    #[test]
    fn pipelined_route_ordering_preserved() {
        let chunk = 64 * 1024 * 1024;
        let gpu = pipelined(Route::GpuToGpu, chunk);
        let host = pipelined(Route::HostToHost, chunk);
        let pfs = pipelined(Route::PfsStaging, chunk);
        assert!(gpu < host, "{gpu:?} !< {host:?}");
        assert!(host < pfs, "{host:?} !< {pfs:?}");
    }

    #[test]
    fn tiny_chunks_pay_their_fixed_costs() {
        // Per-chunk costs (net latency, I/O setup) dominate at small chunk
        // sizes: 64 KiB chunks must be slower than 64 MiB chunks.
        for route in [Route::GpuToGpu, Route::HostToHost] {
            let tiny = pipelined(route, 64 * 1024);
            let good = pipelined(route, 64 * 1024 * 1024);
            assert!(tiny > good, "{route:?}: {tiny:?} !> {good:?}");
        }
    }

    #[test]
    fn pipelined_sync_stall_below_monolithic_stall() {
        let p = MachineProfile::polaris();
        for route in [Route::GpuToGpu, Route::HostToHost] {
            let strategy = TransferStrategy {
                route,
                mode: CaptureMode::Sync,
            };
            let mono = pipeline_costs(&p, strategy, TC1, TC1_TENSORS, 0, 1.0).stall;
            let pipe = pipeline_costs(&p, strategy, TC1, TC1_TENSORS, TC1 / 8, 1.0).stall;
            assert!(pipe < mono, "{route:?}: {pipe:?} !< {mono:?}");
        }
    }

    #[test]
    fn pipelined_async_stall_is_capture_bound() {
        let p = MachineProfile::polaris();
        let strategy = TransferStrategy {
            route: Route::GpuToGpu,
            mode: CaptureMode::Async,
        };
        let pipe = pipeline_costs(&p, strategy, TC1, TC1_TENSORS, TC1 / 8, 1.0);
        let capture = capture_time(&p, Route::GpuToGpu, TC1, TC1_TENSORS, 1.0);
        // Async blocks only for the capture stage (within per-chunk costs).
        let rel = (pipe.stall.as_secs_f64() - capture.as_secs_f64()) / capture.as_secs_f64();
        assert!(
            rel.abs() < 0.01,
            "stall {:?} vs capture {capture:?}",
            pipe.stall
        );
        assert!(pipe.post_stall > Duration::ZERO);
    }

    #[test]
    fn fanout_installs_queue_on_each_senders_link() {
        let hop = FanoutHop {
            wire: Duration::from_nanos(10),
            tail: Duration::from_nanos(3),
        };
        let ns = |installs: Vec<Duration>| -> Vec<u128> {
            installs.iter().map(Duration::as_nanos).collect()
        };
        // Direct: one flow after another on the producer's link.
        assert_eq!(ns(hop.installs(4, None, |_| 1)), [13, 23, 33, 43]);
        // A straggler's flow holds the link longer, delaying every later one.
        assert_eq!(ns(hop.installs(3, None, |i| [1, 4, 1][i])), [13, 53, 63]);
        // Fan-out 2: the root's children go out one after the other once
        // it installed (13), then each child's own children likewise.
        assert_eq!(
            ns(hop.installs(7, Some(2), |_| 1)),
            [13, 26, 36, 39, 49, 49, 59]
        );
        // Fan-out 1 is a chain: every hop pays the tail.
        assert_eq!(ns(hop.installs(3, Some(1), |_| 1)), [13, 26, 39]);
    }

    #[test]
    fn fanout_hop_is_the_wire_and_apply_stages() {
        let p = MachineProfile::polaris();
        let hop = fanout_hop(&p, Route::GpuToGpu, 10_000, 2, 4_000);
        let frames = [4_040, 4_040, 2_040].map(|b| p.gpu_transfer_time(b));
        assert_eq!(hop.wire, frames.iter().sum());
        let apply = apply_time(&p, Route::GpuToGpu, 10_000, 2);
        assert_eq!(hop.tail, p.notify_latency + apply + SWAP_NUDGE);
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let base = Duration::from_micros(10);
        let cap = Duration::from_micros(75);
        assert_eq!(retry_backoff(base, 0, cap), Duration::ZERO);
        assert_eq!(retry_backoff(Duration::ZERO, 5, cap), Duration::ZERO);
        assert_eq!(retry_backoff(base, 1, cap), Duration::from_micros(10));
        assert_eq!(retry_backoff(base, 2, cap), Duration::from_micros(20));
        assert_eq!(retry_backoff(base, 3, cap), Duration::from_micros(40));
        assert_eq!(retry_backoff(base, 4, cap), cap);
        // Huge attempt counts neither overflow nor exceed the cap.
        assert_eq!(retry_backoff(base, u32::MAX, cap), cap);
    }

    #[test]
    fn pipeline_latency_between_bottleneck_and_sum() {
        // Sanity bounds: the makespan cannot beat the slowest stage's total
        // work, and cannot exceed the unpipelined sum of all stages.
        let p = MachineProfile::polaris();
        for route in [Route::GpuToGpu, Route::HostToHost, Route::PfsStaging] {
            let chunk = 256 * 1024 * 1024;
            let pipe = pipelined(route, chunk).as_secs_f64();
            let wire = match route {
                Route::GpuToGpu => p.gpu_transfer_time(TC1),
                Route::HostToHost => p.host_transfer_time(TC1),
                Route::PfsStaging => p.tier(Tier::Pfs).read_time(TC1, TC1_TENSORS),
            }
            .as_secs_f64();
            assert!(pipe >= wire, "{route:?}: {pipe} < bottleneck {wire}");
            assert!(
                pipe <= monolithic(route) * 1.01,
                "{route:?}: {pipe} exceeds sum"
            );
        }
    }
}
