//! # viper-des
//!
//! A simulator for paper-scale producer/consumer timelines.
//!
//! The paper's schedule experiments (Fig. 9, Fig. 10, Table 1) run
//! multi-gigabyte models for tens of thousands of inferences on two Polaris
//! nodes. This crate replays those workflows on a virtual timeline: a
//! producer process trains iteration by iteration and stalls at scheduled
//! checkpoints; deliveries complete after the strategy's modeled transfer
//! time; a consumer process issues inferences at a fixed rate, each served
//! by the newest model version it has *discovered* (via push notification
//! or polling). The simulator reports ground-truth cumulative inference
//! loss (CIL), training overhead, and per-update latencies — the quantities
//! the paper's predictor (viper-predictor) only estimates.
//!
//! The timeline has a closed form, so no event queue runs it: [`simulate`]
//! (one producer, one consumer) and [`simulate_multi`] (sharded ranks, many
//! consumers) are two entry points into the same three passes — producer
//! iterations, then each checkpoint's discovery and swap, then the
//! inference stream. Instants are running sums (`t += t_train`,
//! `t += stall`, `now += t_infer`) rather than products, because the two
//! round differently and a poll tick can fall between them; the running
//! sums are the timeline the figures are generated on.
//!
//! ## Example
//!
//! ```
//! use viper_des::{Discovery, SimConfig, simulate};
//! use viper_hw::{pipeline_costs, CaptureMode, MachineProfile, Route, TransferStrategy};
//!
//! let profile = MachineProfile::polaris();
//! let strategy = TransferStrategy { route: Route::GpuToGpu, mode: CaptureMode::Async };
//! let costs = pipeline_costs(&profile, strategy, 600_000_000, 16, 0, 1.0);
//!
//! let cfg = SimConfig {
//!     t_train: 0.05,
//!     t_infer: 0.005,
//!     costs,
//!     s_iter: 216,
//!     e_iter: 216 * 4,
//!     schedule: vec![432, 648, 864],
//!     total_infers: 10_000,
//!     discovery: Discovery::Push,
//! };
//! let result = simulate(&cfg, &|iter| 2.0 * (-0.005 * iter as f64).exp() + 0.3);
//! assert_eq!(result.num_updates, 3);
//! assert!(result.cil > 0.0);
//! ```

#![warn(missing_docs)]

mod timeline;
mod workflow;

pub mod fanout;
pub mod multi;

pub use fanout::{simulate_fanout, FanoutConfig, FanoutResult, FanoutRound};
pub use multi::{simulate_multi, ConsumerSpec, MultiSimConfig, MultiSimResult};
pub use workflow::{simulate, Discovery, ModelUpdate, SimConfig, SimResult};
