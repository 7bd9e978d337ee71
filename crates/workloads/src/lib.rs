//! # viper-workloads
//!
//! The paper's three applications, reproduced at two fidelities:
//!
//! * **Trainable miniatures** — real (small) architectures with synthetic
//!   datasets that exercise the full training/inference/checkpoint code
//!   path through `viper-dnn`: [`nt3`], [`tc1`], [`ptychonn`].
//! * **Paper-scale profiles** — nominal checkpoint sizes (NT3.A 600 MB,
//!   NT3.B 1.7 GB, TC1 4.7 GB, PtychoNN 4.5 GB), per-iteration timings
//!   (constant, per Fig. 6), epoch geometry, and ground-truth loss curves
//!   used by the discrete-event simulator and the benchmark harness:
//!   [`WorkloadProfile`].
//!
//! The CANDLE Pilot1 datasets (RNA-seq profiles) and the APS ptychography
//! scans are not redistributable, so the miniatures train on synthetic data
//! with the same *shape*: 1-D profiles with class-dependent structure for
//! NT3/TC1, and an intensity-to-(amplitude, phase) inversion for PtychoNN.

#![warn(missing_docs)]

pub mod nt3;
pub mod profiles;
pub mod ptychonn;
pub mod synth;

/// TC1 lives in its own module for parity with the paper's three apps.
pub mod tc1;

pub use profiles::WorkloadProfile;
