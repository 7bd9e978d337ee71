//! # viper-hw
//!
//! Simulated multi-tier HPC storage hardware for the Viper reproduction.
//!
//! The paper evaluates Viper on ALCF Polaris: A100 GPUs (HBM + NVLink),
//! 512 GB DDR4 host memory, a Slingshot-10 interconnect, and a Lustre PFS.
//! None of that hardware is available here, so this crate models each tier
//! with a calibrated cost model — fixed per-operation latency, per-tensor
//! metadata overhead, and bandwidth with a contention term — and keeps a
//! *virtual clock* so experiments at paper scale (multi-GB checkpoints)
//! run in milliseconds of wall time.
//!
//! Calibration targets are the paper's own measurements (Fig. 8): a 4.7 GB
//! TC1 checkpoint takes ≈8 s end-to-end through the PFS baseline, ≈2.3 s
//! host-to-host, and ≈0.6-0.9 s GPU-to-GPU.
//!
//! ## Example
//!
//! ```
//! use viper_hw::{MachineProfile, Tier};
//!
//! let polaris = MachineProfile::polaris();
//! let spec = polaris.tier(Tier::GpuMem);
//! // Writing 4.7 GB into GPU memory is fast.
//! let t = spec.write_time(4_700_000_000, 1);
//! assert!(t.as_secs_f64() < 0.1);
//! ```

#![warn(missing_docs)]

mod clock;
mod profile;
mod storage;
mod tier;
mod xfer;

pub use clock::{SimClock, SimInstant};
pub use profile::MachineProfile;
pub use storage::{StorageError, StorageTier, StoredObject};
pub use tier::{Tier, TierSpec};
pub use xfer::{
    apply_time, capture_stage, capture_time, chunk_layout, fanout_hop, pipeline_costs,
    retry_backoff, stage_time, staging_copy_time, CaptureMode, FanoutHop, Route, Stage,
    TransferStrategy, UpdateCosts, CHUNK_HEADER_BYTES, SWAP_NUDGE,
};
