//! The live-engine loop: one deployment, one training loop, one update in
//! flight. The harness saves, then blocks in `load_weights` (a condvar
//! wait, never a spin: a spinning waiter would take one of this host's two
//! cores from the reactor) until every consumer serves the saved version.

use crate::procfs::ProcSnapshot;
use crate::spans::SpanLog;
use crate::workload::{bit_identical, Inputs, Spec, MODEL};
use std::time::{Duration, Instant};
use viper::{Consumer, Producer, Viper};
use viper_telemetry::Telemetry;

/// An update not installed everywhere within this long is a failure, not
/// a hang.
const INSTALL_TIMEOUT: Duration = Duration::from_secs(60);

/// A loop that has failed this often is broken, not slow: stop rather than
/// wait out one install timeout per remaining update.
pub const MAX_FAILURES: u64 = 3;

/// One update as the harness saw it.
#[derive(Debug, Clone, Copy)]
pub struct UpdateSample {
    /// `save_weights` call start until the last consumer returned the
    /// version from `load_weights`.
    pub wall: Duration,
    /// Time the caller was blocked inside `save_weights`.
    pub stall: Duration,
    /// Modelled (virtual-clock) save start to last slot swap.
    pub virtual_update: Duration,
    /// Modelled training stall.
    pub virtual_stall: Duration,
    /// Saved, installed on every consumer in time, and bit-identical.
    pub ok: bool,
}

/// Fields drop in declaration order: consumers detach first, then the
/// producer drains, then the deployment goes — the order the repository's
/// own tests tear down in.
pub struct Deployment {
    pub consumers: Vec<Consumer>,
    pub producer: Producer,
    pub viper: Viper,
    pub inputs: Inputs,
    next_iteration: u64,
    /// Warm-up updates that failed (they are not samples, but they are
    /// not ignored either).
    pub warmup_failures: u64,
}

impl Deployment {
    /// Everything `setup_s` covers: input generation, deployment
    /// construction, attach, and the warm-up updates that fill arenas,
    /// caches and the delta base.
    pub fn setup(spec: Spec, seed: u64, telemetry: Telemetry) -> Self {
        let inputs = Inputs::generate(&spec, seed);
        let viper = Viper::new(spec.config(seed, telemetry));
        let producer = viper.producer("train-0");
        let consumers = (0..spec.consumers)
            .map(|i| viper.consumer(&format!("serve-{i}"), MODEL))
            .collect();
        let mut deployment = Deployment {
            viper,
            producer,
            consumers,
            inputs,
            next_iteration: 1,
            warmup_failures: 0,
        };
        for _ in 0..spec.warmup {
            if !deployment.update(None).ok {
                deployment.warmup_failures += 1;
            }
        }
        deployment
    }

    /// Run one closed-loop update. Input generation before, and the
    /// bit-identity check after, are outside both timed regions.
    pub fn update(&mut self, spans: Option<&mut SpanLog>) -> UpdateSample {
        let iteration = self.next_iteration;
        self.next_iteration += 1;
        let ckpt = self.inputs.next(iteration);

        let t_save = Instant::now();
        let receipt = self.producer.save_weights(ckpt);
        let t_saved = Instant::now();
        let deadline = t_save + INSTALL_TIMEOUT;
        let mut installed = Vec::with_capacity(self.consumers.len());
        let mut swapped_at = None;
        if receipt.is_ok() {
            for consumer in &self.consumers {
                // `load_weights` steps through versions; in a closed loop
                // the first one it returns is the one just saved.
                let got = loop {
                    let left = deadline.saturating_duration_since(Instant::now());
                    match consumer.load_weights(left) {
                        Ok(got) if got.iteration < iteration => continue,
                        Ok(got) => break Some(got),
                        Err(_) => break None,
                    }
                };
                let Some(got) = got else { break };
                installed.push(got);
                swapped_at = swapped_at.max(consumer.last_update().map(|u| u.swapped_at));
            }
        }
        let t_installed = Instant::now();

        if let Some(log) = spans {
            let root = log.open("bench.update", t_save, iteration);
            log.close(root, t_installed);
            log.record("bench.save_weights", t_save, t_saved, Some(root), iteration);
            log.record(
                "bench.await_install",
                t_saved,
                t_installed,
                Some(root),
                iteration,
            );
        }

        let ok = installed.len() == self.consumers.len()
            && installed.iter().all(|got| bit_identical(ckpt, got));
        // The installed Arcs die here, before the next save, so the check
        // pins no buffer the engine would otherwise recycle.
        drop(installed);
        let (virtual_update, virtual_stall) = match (&receipt, swapped_at) {
            (Ok(r), Some(swapped)) => (swapped.since(r.started_at), r.stall),
            _ => (Duration::ZERO, Duration::ZERO),
        };
        UpdateSample {
            wall: t_installed - t_save,
            stall: t_saved - t_save,
            virtual_update,
            virtual_stall,
            ok,
        }
    }

    /// Delivery errors the consumers' reactor tasks have recorded.
    pub fn delivery_errors(&self) -> u64 {
        self.consumers
            .iter()
            .map(|c| c.delivery_errors().len() as u64)
            .sum()
    }
}

/// A run of consecutive updates, and the process counters either side of
/// it (the harness's own checking between updates included).
pub struct Block {
    pub samples: Vec<UpdateSample>,
    pub before: ProcSnapshot,
    pub after: ProcSnapshot,
}

impl Block {
    pub fn updates(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    pub fn cpu_ms(&self) -> f64 {
        self.after.cpu_ms() - self.before.cpu_ms()
    }

    /// Seconds inside timed updates (input generation and checking
    /// excluded).
    pub fn timed_seconds(&self) -> f64 {
        self.samples.iter().map(|s| s.wall.as_secs_f64()).sum()
    }

    pub fn series_ms(&self, f: impl Fn(&UpdateSample) -> Duration) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| f(s).as_secs_f64() * 1e3)
            .collect()
    }
}

/// Run `updates` consecutive updates (fewer if the loop is failing).
pub fn run_block(
    deployment: &mut Deployment,
    updates: u64,
    mut spans: Option<&mut SpanLog>,
) -> Block {
    let before = ProcSnapshot::now();
    let mut samples = Vec::with_capacity(updates as usize);
    let mut failed = 0;
    while (samples.len() as u64) < updates && failed < MAX_FAILURES {
        let sample = deployment.update(spans.as_deref_mut());
        failed += u64::from(!sample.ok);
        samples.push(sample);
    }
    Block {
        samples,
        before,
        after: ProcSnapshot::now(),
    }
}
