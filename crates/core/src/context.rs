//! The shared deployment context: clock, fabric, metadata DB, pub/sub
//! broker, and the (shared) PFS tier.

use crate::distribute::Distribution;
use crate::{Consumer, Producer, ViperConfig};
use std::sync::{Arc, RwLock};
use viper_hw::{SimClock, StorageTier, Tier};
use viper_metastore::{MetadataDb, ModelRecord, PubSub};
use viper_net::{Fabric, Reactor};

/// Everything shared between the producer and consumer nodes.
pub(crate) struct Shared {
    pub config: ViperConfig,
    pub clock: SimClock,
    pub fabric: Fabric,
    pub db: MetadataDb,
    pub bus: PubSub<ModelRecord>,
    /// The parallel file system, visible from every node.
    pub pfs: StorageTier,
    /// Node names of attached consumers (direct-push destinations).
    pub consumers: RwLock<Vec<String>>,
    /// Relay-tree distribution state (the deployment's current
    /// [`viper_net::Topology`] over the attached consumers), consulted by
    /// the producer's delivery reactor for grouping and by relay
    /// consumers for their child lists.
    pub distribution: Distribution,
    /// The delivery reactor: one scheduler thread driving every attached
    /// node's event-handling task (producer reliable flows, consumer
    /// reassembly/reaping), woken by the fabric on enqueue.
    pub reactor: Reactor,
}

/// A Viper deployment: construct one, then attach producers and consumers.
#[derive(Clone)]
pub struct Viper {
    pub(crate) shared: Arc<Shared>,
}

impl Viper {
    /// Build a deployment from a configuration. Panics if `pfs_dir` is set
    /// but unusable (unwritable path) — a deployment without its durable
    /// tier is misconfigured.
    pub fn new(config: ViperConfig) -> Self {
        let clock = SimClock::new();
        config.telemetry.bind_virtual_clock(clock.clone());
        let fabric = Fabric::new(config.profile.clone(), clock.clone());
        fabric.set_telemetry(config.telemetry.clone());
        if let Some(plan) = &config.fault_plan {
            fabric.set_fault_plan(Some(plan.clone()));
        }
        let pfs = match &config.pfs_dir {
            Some(dir) => {
                StorageTier::with_disk(*config.profile.tier(Tier::Pfs), clock.clone(), dir)
                    .expect("pfs_dir must be creatable and writable")
            }
            None => StorageTier::new(*config.profile.tier(Tier::Pfs), clock.clone()),
        };
        let bus = PubSub::new();
        bus.set_telemetry(config.telemetry.clone());
        let reactor = Reactor::new(1, config.telemetry.clone());
        fabric.set_waker(Some(reactor.waker()));
        Viper {
            shared: Arc::new(Shared {
                config,
                clock,
                fabric,
                db: MetadataDb::new(),
                bus,
                pfs,
                consumers: RwLock::new(Vec::new()),
                distribution: Distribution::default(),
                reactor,
            }),
        }
    }

    /// Attach a producer on the node named `node`.
    pub fn producer(&self, node: &str) -> Producer {
        Producer::attach(self.clone(), node)
    }

    /// Attach a consumer on the node named `node`, serving `model_name`.
    pub fn consumer(&self, node: &str, model_name: &str) -> Consumer {
        Consumer::attach(self.clone(), node, model_name)
    }

    /// The deployment's configuration.
    pub fn config(&self) -> &ViperConfig {
        &self.shared.config
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.shared.clock
    }

    /// The shared metadata database.
    pub fn metadata(&self) -> &MetadataDb {
        &self.shared.db
    }

    /// The deployment's fabric. Registering an endpoint of one's own puts a
    /// raw sender beside the attached producers — how tests stage a peer
    /// that frames its chunks correctly and lies inside them.
    pub fn fabric(&self) -> &Fabric {
        &self.shared.fabric
    }

    /// The shared parallel file system tier.
    pub fn pfs(&self) -> &StorageTier {
        &self.shared.pfs
    }

    /// Replace the fabric's fault plan while the deployment runs (`None`
    /// heals every link). [`ViperConfig::with_faults`] installs the plan a
    /// deployment starts with; this is the knob for scenarios that change
    /// link health mid-run, e.g. a straggler that recovers.
    pub fn set_fault_plan(&self, plan: Option<viper_net::FaultPlan>) {
        self.shared.fabric.set_fault_plan(plan);
    }

    /// The deployment-wide telemetry handle (bound to the virtual clock).
    pub fn telemetry(&self) -> &viper_telemetry::Telemetry {
        &self.shared.config.telemetry
    }

    /// Rebuild the metadata catalog from the durable PFS objects — the
    /// cold-start path after a full restart with a disk-backed PFS
    /// (`ViperConfig::pfs_dir`). Every object that decodes as a checkpoint
    /// in the configured format is re-registered (in iteration order per
    /// model); undecodable objects are skipped. Returns how many records
    /// were registered.
    pub fn recover_catalog(&self) -> usize {
        let format = self.shared.config.format.build();
        let mut found: Vec<(String, u64, String, u64, usize)> = Vec::new();
        for key in self.shared.pfs.keys() {
            let Ok(payload) = self.shared.pfs.get_uncharged(&key) else {
                continue;
            };
            let Ok(ckpt) = format.decode(&payload) else {
                continue;
            };
            found.push((
                ckpt.model_name.clone(),
                ckpt.iteration,
                key,
                payload.len() as u64,
                ckpt.ntensors(),
            ));
        }
        // Register oldest-first per model so version order mirrors
        // training order.
        found.sort();
        let count = found.len();
        for (name, iteration, path, bytes, ntensors) in found {
            self.shared.db.put(
                ModelRecord::new(name, bytes, ntensors, Tier::Pfs.name(), &path)
                    .at_iteration(iteration),
            );
        }
        count
    }

    /// Publish a model-update notification for an externally registered
    /// record (e.g. a model placed on the PFS by a tool outside the
    /// producer path). Returns how many consumers were notified.
    pub fn announce(&self, record: ModelRecord) -> usize {
        let notified = self.shared.bus.publish(crate::UPDATE_TOPIC, record);
        // Consumers process their subscriptions on the reactor: nudge them.
        self.shared.reactor.wake_all();
        notified
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_shares_state() {
        let v = Viper::new(ViperConfig::default());
        let v2 = v.clone();
        v.metadata()
            .put(viper_metastore::ModelRecord::new("m", 1, 1, "PFS", "p"));
        assert!(v2.metadata().latest("m").is_some());
    }

    #[test]
    fn pfs_is_shared_tier() {
        let v = Viper::new(ViperConfig::default());
        assert_eq!(v.pfs().tier(), Tier::Pfs);
    }
}
