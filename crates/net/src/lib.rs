//! # viper-net
//!
//! Simulated interconnect fabric between compute nodes.
//!
//! The paper's transfer engine moves checkpoints with MPI point-to-point
//! primitives over two direct channels: GPU-to-GPU (GPUDirect RDMA /
//! NVLink) and host-to-host (InfiniBand verbs), §4.4. This crate provides
//! the equivalent message-passing substrate: named nodes register
//! endpoints on a [`Fabric`]; a send transfers real bytes through a
//! `std::sync::mpsc` channel while charging the *modeled* wire time (from the
//! [`viper_hw::MachineProfile`] link characteristics) to the shared
//! virtual clock. Every payload travels as a chunked flow — a monolithic
//! one as a flow of one chunk — that a [`FlowAssembler`] verifies and
//! reassembles.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use viper_hw::{MachineProfile, SimClock};
//! use viper_net::{ChunkHeader, ChunkedSend, Fabric, FlowAssembler, FlowStatus, LinkKind};
//!
//! let fabric = Fabric::new(MachineProfile::polaris(), SimClock::new());
//! let producer = fabric.register("producer");
//! let consumer = fabric.register("consumer");
//!
//! let one_chunk = ChunkedSend::new(0);
//! let payload = Arc::new(vec![0u8; 1024]);
//! producer.send_chunked("consumer", "model-v1", payload, LinkKind::GpuDirect, &one_chunk).unwrap();
//! let msg = consumer.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
//! assert_eq!(msg.tag, "model-v1");
//! assert_eq!(msg.payload.len(), ChunkHeader::WIRE_SIZE + 1024);
//! let FlowStatus::Complete(flow) = FlowAssembler::new().accept(msg) else {
//!     panic!("one chunk completes its flow");
//! };
//! assert_eq!(flow.payload.len(), 1024);
//! ```

#![warn(missing_docs)]

mod chunk;
mod fabric;
mod fault;
mod reactor;
mod relay;
mod reliability;
mod sender;
mod wirebuf;

pub use chunk::{
    chunk_body_crc, chunk_sizes, payload_chunk_crcs, AssembledFlow, ChunkHeader, ChunkedSend,
    FlowAssembler, FlowReport, FlowStatus, CHUNK_MAGIC,
};
pub use fabric::{Endpoint, Fabric, LinkKind, Message, MessageKind, NetError, Waker};
pub use fault::{FaultPlan, FaultRng, LinkFaults};
pub use reactor::{Reactor, ReactorTask, TaskCtx};
pub use relay::{Topology, TopologyError};
pub use reliability::{
    deterministic_jitter, CoalesceQueue, Control, FlowError, RetryPolicy, CONTROL_MAGIC,
};
pub use sender::{FlowSender, Outbound, Outcome, OutcomeKind, SenderCounters};
pub use viper_formats::Payload;
pub use wirebuf::{WireBuf, HEAD_BYTES};
