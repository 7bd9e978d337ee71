//! # viper
//!
//! The Viper I/O framework: transparently update, store, and transfer DNN
//! models between a training *producer* and an inference *consumer*
//! (Ye et al., ICPP 2024).
//!
//! Viper couples four components (§4.2):
//!
//! * a [`CheckpointCallback`] attached to the training loop that tracks
//!   per-iteration losses and triggers model updates on a schedule;
//! * an **Inference Performance Predictor** (re-exported from
//!   [`viper_predictor`] via [`planner`]) that turns warm-up losses into a
//!   near-optimal checkpoint schedule;
//! * a [`Producer`] ("Model Weights Handler") that captures checkpoints,
//!   caches them memory-first, and pushes them to the consumer over the
//!   fastest available route, synchronously or asynchronously;
//! * a [`Consumer`] that receives push notifications, loads new versions
//!   into a double-buffered [`ModelSlot`], and swaps atomically so serving
//!   never pauses.
//!
//! The paper's two-line API (Fig. 4) maps to [`Producer::save_weights`]
//! and [`Consumer::load_weights`].
//!
//! ## Example
//!
//! ```
//! use std::time::Duration;
//! use viper::{Consumer, Producer, Viper, ViperConfig};
//! use viper_formats::Checkpoint;
//! use viper_hw::{CaptureMode, Route, TransferStrategy};
//! use viper_tensor::Tensor;
//!
//! let viper = Viper::new(ViperConfig::default());
//! let producer = viper.producer("train-node");
//! let consumer = viper.consumer("infer-node", "demo");
//!
//! let ckpt = Checkpoint::new("demo", 1, vec![("w".into(), Tensor::ones(&[4]))]);
//! producer.save_weights(&ckpt).unwrap();
//!
//! let loaded = consumer.load_weights(Duration::from_secs(5)).unwrap();
//! assert_eq!(loaded.iteration, 1);
//! ```

#![warn(missing_docs)]
#![warn(clippy::struct_excessive_bools, clippy::fn_params_excessive_bools)]

mod callback;
mod codec;
mod config;
mod consumer;
mod context;
mod delivery;
mod distribute;
mod error;
mod producer;
mod relay_role;
mod slot;

pub mod planner;

pub use callback::{CheckpointCallback, SchedulePolicy};
pub use config::{Delivery, DiscoveryMode, FormatKind, Reliable, ViperConfig};
pub use consumer::Consumer;
pub use context::Viper;
pub use error::{Result, ViperError};
pub use producer::{Producer, SaveReceipt};
pub use slot::ModelSlot;
pub use viper_telemetry as telemetry;

/// Topic on which model-update notifications are published.
pub const UPDATE_TOPIC: &str = "viper/model-updates";
