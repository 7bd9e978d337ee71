//! The six workloads: their engine configuration, their load, and the
//! seeded input generator. The engine only ever sees generated inputs;
//! nothing in it can tell which workload is running.

use std::time::Duration;
use viper::ViperConfig;
use viper_formats::Checkpoint;
use viper_hw::{CaptureMode, Route};
use viper_net::{FaultPlan, RetryPolicy};
use viper_telemetry::Telemetry;
use viper_tensor::Tensor;

pub const MODEL: &str = "bench";

const MIB: usize = 1024 * 1024;

/// Which delivery path a workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `ViperConfig::default()` strategy: async capture, one message.
    FullAsync,
    /// Sync capture, chunked, ACK-gated.
    ChunkedReliable,
    /// Sync capture, chunked, delta-encoded against the acknowledged base.
    DeltaSparse,
    /// Sync capture, chunked, relay tree of fan-out 2.
    FanoutRelay,
    /// Sync capture, one message, payload small enough that only fixed
    /// per-update costs remain.
    TinyStream,
    /// Sync capture, chunked, seeded drops and bit flips on the fabric.
    LossyChunked,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub path: Path,
    /// Checkpoint size in tensor bytes, split into `ntensors` equal f32
    /// tensors.
    pub tensor_bytes: usize,
    pub ntensors: usize,
    /// Chunk size of the chunked paths; 0 for the monolithic ones.
    pub chunk_bytes: u64,
    pub consumers: usize,
    /// Updates run before measuring; their time belongs to `setup_s`.
    pub warmup: u64,
    /// Consecutive updates per block of the measured loop: a third of a
    /// second to two seconds of work and at least five samples. A whole
    /// number of dense periods on the delta workload, so every block has
    /// the same sparse/dense mix; and enough updates on the lossy one that
    /// a block's median is the typical one-retransmit-round update
    /// whatever the seed's fault draws.
    pub block_updates: u64,
    /// Updates of the traced pass per 10 s of `--seconds`: a fixed count,
    /// so that every count metric repeats exactly.
    pub traced_updates: u64,
}

/// Every 16th update of the delta workload changes all tensors.
pub const DENSE_PERIOD: u64 = 16;
/// Tensors a sparse delta update changes.
pub const SPARSE_CHANGES: usize = 2;

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "full_async_64m",
        why: "Default async monolithic push of 64 MiB: formats encode+decode do the work, net carries one message",
        path: Path::FullAsync,
        tensor_bytes: 64 * MIB,
        ntensors: 64,
        chunk_bytes: 0,
        consumers: 1,
        warmup: 5,
        block_updates: 10,
        traced_updates: 40,
    },
    Spec {
        name: "chunked_reliable_128m",
        why: "128 MiB (far beyond LLC) over 4 MiB chunks with ACKs: net framing, verify, gather copy dominate",
        path: Path::ChunkedReliable,
        tensor_bytes: 128 * MIB,
        ntensors: 64,
        chunk_bytes: 4 * MIB as u64,
        consumers: 1,
        warmup: 2,
        block_updates: 5,
        traced_updates: 12,
    },
    Spec {
        name: "delta_sparse_64m",
        why: "64 MiB in 128 tensors, 2 change per update, every 16th changes all: diff+apply path, tiny wire",
        path: Path::DeltaSparse,
        tensor_bytes: 64 * MIB,
        ntensors: 128,
        chunk_bytes: 4 * MIB as u64,
        consumers: 1,
        warmup: 5,
        block_updates: DENSE_PERIOD,
        traced_updates: 48,
    },
    Spec {
        name: "fanout_relay_x6_32m",
        why: "32 MiB to 6 consumers through a fan-out-2 relay tree: lanes, re-serve, group ACKs, one reactor thread",
        path: Path::FanoutRelay,
        tensor_bytes: 32 * MIB,
        ntensors: 64,
        chunk_bytes: 4 * MIB as u64,
        consumers: 6,
        warmup: 2,
        block_updates: 5,
        traced_updates: 10,
    },
    Spec {
        name: "tiny_stream_256k",
        why: "256 KiB in 256 tensors: byte costs vanish, per-update fixed costs and thread hand-offs are everything",
        path: Path::TinyStream,
        tensor_bytes: 256 * 1024,
        ntensors: 256,
        chunk_bytes: 0,
        consumers: 1,
        warmup: 5,
        block_updates: 1000,
        traced_updates: 5000,
    },
    Spec {
        name: "lossy_chunked_32m",
        why: "32 MiB over 1 MiB chunks with 5% drop and 1% corruption: the only workload that retransmits",
        path: Path::LossyChunked,
        tensor_bytes: 32 * MIB,
        ntensors: 64,
        chunk_bytes: MIB as u64,
        consumers: 1,
        warmup: 5,
        block_updates: 32,
        traced_updates: 60,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Spec {
    /// The same workload at `1/divisor` of its size (payload and chunks
    /// alike, so the chunk count is unchanged) — the smoke test's shape.
    #[cfg(test)]
    pub fn scaled(mut self, divisor: usize) -> Spec {
        self.tensor_bytes /= divisor;
        self.chunk_bytes /= divisor as u64;
        self
    }

    /// Updates after which the workload's mix of update kinds repeats.
    pub fn dense_period(&self) -> u64 {
        if self.path == Path::DeltaSparse {
            DENSE_PERIOD
        } else {
            1
        }
    }

    pub fn elems_per_tensor(&self) -> usize {
        self.tensor_bytes / self.ntensors / std::mem::size_of::<f32>()
    }

    /// The deployment configuration. All workloads turn the PFS flush off
    /// and keep two versions (see the README for why the shipping default
    /// is excluded).
    pub fn config(&self, seed: u64, telemetry: Telemetry) -> ViperConfig {
        // Timers no fault-free run can fire, as tests/delta_transfer.rs.
        let patient = RetryPolicy {
            ack_timeout: Duration::from_secs(120),
            nack_after: Duration::from_secs(120),
            ..RetryPolicy::default()
        };
        let sync = || ViperConfig::default().with_strategy(Route::GpuToGpu, CaptureMode::Sync);
        let mut config = match self.path {
            Path::FullAsync => ViperConfig::default().with_retry(patient),
            Path::ChunkedReliable => sync()
                .with_chunked(self.chunk_bytes)
                .with_reliable()
                .with_retry(patient),
            Path::DeltaSparse => sync()
                .with_chunked(self.chunk_bytes)
                .with_delta()
                .with_retry(patient),
            Path::FanoutRelay => sync()
                .with_chunked(self.chunk_bytes)
                .with_relay_tree(2)
                .with_retry(patient),
            Path::TinyStream => sync().with_retry(patient),
            // Default (virtual) retry timers: this is the workload where
            // NACK, Round, retransmit and the timer wheel run.
            Path::LossyChunked => sync().with_chunked(self.chunk_bytes).with_faults(
                FaultPlan::seeded(SplitMix64::new(seed ^ 0xFA17).next_u64())
                    .with_drop(0.05)
                    .with_corrupt(0.01),
            ),
        };
        config.flush_to_pfs = false;
        config.keep_versions = 2;
        config.with_telemetry(telemetry)
    }
}

/// SplitMix64: small, fast, and good enough to make tensor contents that
/// neither compress nor repeat.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Weight-like finite values in [-0.5, 0.5), 24 random bits each.
    fn fill(&mut self, out: &mut [f32]) {
        const SCALE: f32 = 1.0 / (1 << 24) as f32;
        let unit = |bits: u64| (bits & 0xFF_FFFF) as f32 * SCALE - 0.5;
        let mut pairs = out.chunks_exact_mut(2);
        for pair in &mut pairs {
            let r = self.next_u64();
            pair[0] = unit(r);
            pair[1] = unit(r >> 32);
        }
        if let [last] = pairs.into_remainder() {
            *last = unit(self.next_u64());
        }
    }
}

/// The training loop's side of the benchmark: two full sets of weights
/// that differ in every tensor, handed out as successive checkpoints.
pub struct Inputs {
    rng: SplitMix64,
    sets: [Checkpoint; 2],
    current: usize,
    delta: bool,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let elems = spec.elems_per_tensor();
        let mut set = || {
            let tensors = (0..spec.ntensors)
                .map(|i| {
                    let mut data = vec![0.0f32; elems];
                    rng.fill(&mut data);
                    let tensor = Tensor::from_vec(data, &[elems]).expect("1-d shape matches len");
                    (format!("layer{i:03}/kernel"), tensor)
                })
                .collect();
            Checkpoint::new(MODEL, 0, tensors)
        };
        let sets = [set(), set()];
        Inputs {
            rng,
            sets,
            current: 0,
            delta: spec.path == Path::DeltaSparse,
        }
    }

    /// The checkpoint of training iteration `iteration` (1-based). Full
    /// workloads alternate between the two sets; the delta workload
    /// rewrites [`SPARSE_CHANGES`] seeded-random tensors in place, and
    /// switches sets (every tensor changes) each [`DENSE_PERIOD`]th update.
    pub fn next(&mut self, iteration: u64) -> &Checkpoint {
        if !self.delta || iteration.is_multiple_of(DENSE_PERIOD) {
            self.current ^= 1;
        } else {
            let ntensors = self.sets[self.current].tensors.len();
            for _ in 0..SPARSE_CHANGES {
                let pick = self.rng.below(ntensors);
                let (_, tensor) = &mut self.sets[self.current].tensors[pick];
                self.rng.fill(tensor.as_mut_slice());
            }
        }
        let ckpt = &mut self.sets[self.current];
        ckpt.iteration = iteration;
        ckpt
    }

    /// The checkpoint [`Inputs::next`] returned last.
    pub fn current(&self) -> &Checkpoint {
        &self.sets[self.current]
    }
}

/// Bit-identity of an installed model against the checkpoint that was
/// saved: names, shapes and raw tensor bytes.
pub fn bit_identical(saved: &Checkpoint, installed: &Checkpoint) -> bool {
    saved.model_name == installed.model_name
        && saved.iteration == installed.iteration
        && saved.tensors.len() == installed.tensors.len()
        && saved
            .tensors
            .iter()
            .zip(&installed.tensors)
            .all(|((name, t), (iname, it))| {
                name == iname && t.dims() == it.dims() && t.as_bytes() == it.as_bytes()
            })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let spec = find("delta_sparse_64m").expect("known workload").scaled(64);
        let run = |seed| {
            let mut inputs = Inputs::generate(&spec, seed);
            (1..=20).map(|i| inputs.next(i).clone()).collect::<Vec<_>>()
        };
        let (a, b, c) = (run(3), run(3), run(4));
        assert!(a.iter().zip(&b).all(|(x, y)| bit_identical(x, y)));
        assert!(!bit_identical(&a[0], &c[0]));
    }

    #[test]
    fn delta_updates_are_sparse_except_every_sixteenth() {
        let spec = find("delta_sparse_64m").expect("known workload").scaled(64);
        let mut inputs = Inputs::generate(&spec, 1);
        let mut prev = inputs.next(1).clone();
        for iteration in 2..=33 {
            let next = inputs.next(iteration).clone();
            let changed = prev
                .tensors
                .iter()
                .zip(&next.tensors)
                .filter(|((_, a), (_, b))| a.as_bytes() != b.as_bytes())
                .count();
            if iteration.is_multiple_of(DENSE_PERIOD) {
                assert_eq!(changed, spec.ntensors, "update {iteration} is dense");
            } else {
                assert!(
                    (1..=SPARSE_CHANGES).contains(&changed),
                    "update {iteration}"
                );
            }
            prev = next;
        }
    }

    #[test]
    fn full_workloads_change_every_tensor_every_update() {
        let spec = find("tiny_stream_256k").expect("known workload");
        let mut inputs = Inputs::generate(&spec, 1);
        let first = inputs.next(1).clone();
        let second = inputs.next(2).clone();
        assert_eq!(first.payload_bytes(), spec.tensor_bytes as u64);
        assert!(first
            .tensors
            .iter()
            .zip(&second.tensors)
            .all(|((_, a), (_, b))| a.as_bytes() != b.as_bytes()));
    }

    #[test]
    fn values_are_finite_weights() {
        let mut data = vec![0.0f32; 1001];
        SplitMix64::new(9).fill(&mut data);
        assert!(data.iter().all(|v| (-0.5..0.5).contains(v)));
        assert!(data.iter().any(|v| *v != data[0]));
    }

    #[test]
    fn names_are_unique_and_within_the_manifest_limits() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.name.len() <= 64 && w.why.len() <= 200, "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(w.tensor_bytes % (w.ntensors * 4), 0);
        }
    }
}
