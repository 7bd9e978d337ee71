//! A runtime storage tier: actually stores blobs, accounts modeled time.
//!
//! `StorageTier` is what the Viper engine writes checkpoints into. It keeps
//! real bytes (so round-trips are verified end-to-end), enforces capacity,
//! and charges every operation's modeled duration to the shared
//! [`SimClock`]. Each operation is priced as one stream: contention is a
//! property of the scenario, priced by callers through
//! [`TierSpec::write_time_loaded`] and [`TierSpec::read_time_loaded`],
//! never measured from how threads happen to overlap in wall time.

use crate::{SimClock, Tier, TierSpec};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;
use viper_formats::Payload;

/// Errors from tier storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Writing would exceed the tier's capacity.
    CapacityExceeded {
        /// Tier that rejected the write.
        tier: Tier,
        /// Bytes requested.
        requested: u64,
        /// Bytes still available.
        available: u64,
    },
    /// No object with the given key exists on this tier.
    NotFound(String),
    /// The key holds a reservation: its bytes count against the tier's
    /// capacity, but the tier holds no encoding to read.
    Reserved(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::CapacityExceeded {
                tier,
                requested,
                available,
            } => write!(
                f,
                "capacity exceeded on {tier}: requested {requested} bytes, {available} available"
            ),
            StorageError::NotFound(key) => write!(f, "object not found: {key}"),
            StorageError::Reserved(key) => write!(f, "reserved, not stored: {key}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// A blob stored on a tier, together with its logical tensor count (which
/// drives the small-I/O cost model on reads).
#[derive(Debug, Clone)]
pub struct StoredObject {
    /// Serialized payload (a shared view; storing never copies the bytes).
    pub bytes: Payload,
    /// Number of tensors in the payload.
    pub ntensors: usize,
    /// Virtual time at which the write completed.
    pub written_at: crate::SimInstant,
}

/// What a key holds: an object, or a reservation of `len` bytes for one
/// whose encoding lives elsewhere (or does not exist yet).
#[derive(Debug, Clone)]
enum Slot {
    Object(StoredObject),
    Reserved(u64),
}

impl Slot {
    /// Bytes the slot counts against the tier's capacity.
    fn len(&self) -> u64 {
        match self {
            Slot::Object(o) => o.bytes.len() as u64,
            Slot::Reserved(len) => *len,
        }
    }
}

/// A storage tier instance on a simulated node.
#[derive(Debug)]
pub struct StorageTier {
    spec: TierSpec,
    clock: SimClock,
    objects: Mutex<HashMap<String, Slot>>,
    used: Mutex<u64>,
    /// When set, payloads are additionally persisted as files under this
    /// directory (durable across process restarts, like a real PFS).
    disk_dir: Option<std::path::PathBuf>,
}

impl StorageTier {
    /// Create a tier backed by `spec`, charging time to `clock`.
    pub fn new(spec: TierSpec, clock: SimClock) -> Self {
        StorageTier {
            spec,
            clock,
            objects: Mutex::new(HashMap::new()),
            used: Mutex::new(0),
            disk_dir: None,
        }
    }

    /// Create a tier that also persists every object as a file under `dir`
    /// (created if absent). Objects already present in `dir` from a
    /// previous run are re-indexed on startup, so a "restarted" deployment
    /// can recover durable checkpoints.
    pub fn with_disk(
        spec: TierSpec,
        clock: SimClock,
        dir: impl Into<std::path::PathBuf>,
    ) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let tier = StorageTier {
            spec,
            clock,
            objects: Mutex::new(HashMap::new()),
            used: Mutex::new(0),
            disk_dir: Some(dir.clone()),
        };
        // Re-index surviving files.
        {
            let mut objects = tier.objects.lock().unwrap();
            let mut used = tier.used.lock().unwrap();
            for entry in std::fs::read_dir(&dir)? {
                let entry = entry?;
                if !entry.file_type()?.is_file() {
                    continue;
                }
                let Some(key) = entry.file_name().to_str().map(Self::decode_key) else {
                    continue;
                };
                let bytes = std::fs::read(entry.path())?;
                *used += bytes.len() as u64;
                objects.insert(
                    key,
                    Slot::Object(StoredObject {
                        bytes: Payload::from(bytes),
                        ntensors: 0,
                        written_at: tier.clock.now(),
                    }),
                );
            }
        }
        Ok(tier)
    }

    /// Whether this tier persists objects to disk.
    pub fn is_disk_backed(&self) -> bool {
        self.disk_dir.is_some()
    }

    fn encode_key(key: &str) -> String {
        key.replace('%', "%25").replace('/', "%2F")
    }

    fn decode_key(file: &str) -> String {
        file.replace("%2F", "/").replace("%25", "%")
    }

    fn persist(&self, key: &str, bytes: &[u8]) {
        if let Some(dir) = &self.disk_dir {
            // Best effort: the in-memory copy stays authoritative within
            // this process; the file is the durable replica.
            let _ = std::fs::write(dir.join(Self::encode_key(key)), bytes);
        }
    }

    fn unpersist(&self, key: &str) {
        if let Some(dir) = &self.disk_dir {
            let _ = std::fs::remove_file(dir.join(Self::encode_key(key)));
        }
    }

    /// This tier's identity.
    pub fn tier(&self) -> Tier {
        self.spec.tier
    }

    /// This tier's cost model.
    pub fn spec(&self) -> &TierSpec {
        &self.spec
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        *self.used.lock().unwrap()
    }

    /// Number of stored objects and reservations.
    pub fn object_count(&self) -> usize {
        self.objects.lock().unwrap().len()
    }

    /// Store `bytes` under `key`, replacing any previous object. Returns the
    /// modeled duration, which has also been charged to the clock.
    pub fn write(
        &self,
        key: &str,
        bytes: impl Into<Payload>,
        ntensors: usize,
    ) -> Result<Duration, StorageError> {
        let bytes = bytes.into();
        let new_len = bytes.len() as u64;
        self.admit(key, new_len)?;
        let dur = self.spec.write_time(new_len, ntensors);
        let done = self.clock.now().add(dur);
        self.clock.advance_to(done);
        self.persist(key, &bytes);
        self.objects.lock().unwrap().insert(
            key.to_string(),
            Slot::Object(StoredObject {
                bytes,
                ntensors,
                written_at: done,
            }),
        );
        Ok(dur)
    }

    /// Count `new_len` bytes under `key` against the capacity, replacing
    /// whatever `key` held, or fail without changing anything.
    fn admit(&self, key: &str, new_len: u64) -> Result<(), StorageError> {
        let mut used = self.used.lock().unwrap();
        let existing = self.objects.lock().unwrap().get(key).map_or(0, Slot::len);
        let projected = *used - existing + new_len;
        if projected > self.spec.capacity {
            return Err(StorageError::CapacityExceeded {
                tier: self.spec.tier,
                requested: new_len,
                available: self.spec.capacity.saturating_sub(*used - existing),
            });
        }
        *used = projected;
        Ok(())
    }

    /// Whether `additional` more bytes would fit right now (advisory: a
    /// concurrent writer can still win the race; writes remain checked).
    pub fn has_capacity_for(&self, additional: u64) -> bool {
        *self.used.lock().unwrap() + additional <= self.spec.capacity
    }

    /// Store `bytes` under `key` WITHOUT charging modeled time — for
    /// payloads whose placement cost was already accounted elsewhere (e.g.
    /// a PFS-route save, whose charged capture was the write) and that
    /// someone reads back. Capacity is still enforced. A memory staging
    /// tier no one reads reserves instead
    /// ([`reserve_uncharged`](StorageTier::reserve_uncharged)).
    pub fn put_uncharged(
        &self,
        key: &str,
        bytes: impl Into<Payload>,
        ntensors: usize,
    ) -> Result<(), StorageError> {
        let bytes = bytes.into();
        self.admit(key, bytes.len() as u64)?;
        self.persist(key, &bytes);
        self.objects.lock().unwrap().insert(
            key.to_string(),
            Slot::Object(StoredObject {
                bytes,
                ntensors,
                written_at: self.clock.now(),
            }),
        );
        Ok(())
    }

    /// Count `bytes` bytes under `key` against the capacity WITHOUT
    /// storing an encoding or charging modeled time: for a version whose
    /// placement was priced elsewhere and whose bytes the caller holds
    /// (or can make) itself. This makes the tier a capacity ledger — how
    /// a producer's memory staging tiers hold every save — so the bytes
    /// are pinned only by whoever really uses them, while capacity checks
    /// and `used_bytes` read as if they were stored. The key lists, and
    /// [`remove`] frees it, like an object; reading it fails with
    /// [`StorageError::Reserved`]. Never persisted to disk.
    ///
    /// [`remove`]: StorageTier::remove
    pub fn reserve_uncharged(&self, key: &str, bytes: u64) -> Result<(), StorageError> {
        self.admit(key, bytes)?;
        self.unpersist(key);
        self.objects
            .lock()
            .unwrap()
            .insert(key.to_string(), Slot::Reserved(bytes));
        Ok(())
    }

    /// The object under `key`, if it holds one.
    fn object(&self, key: &str) -> Result<StoredObject, StorageError> {
        match self.objects.lock().unwrap().get(key) {
            Some(Slot::Object(obj)) => Ok(obj.clone()),
            Some(Slot::Reserved(_)) => Err(StorageError::Reserved(key.to_string())),
            None => Err(StorageError::NotFound(key.to_string())),
        }
    }

    /// Fetch the object under `key` WITHOUT charging modeled time — the
    /// counterpart of [`StorageTier::put_uncharged`] for reads whose cost
    /// is priced elsewhere.
    pub fn get_uncharged(&self, key: &str) -> Result<Payload, StorageError> {
        self.object(key).map(|o| o.bytes)
    }

    /// Fetch the object under `key`. Returns the payload and the modeled
    /// read duration (also charged to the clock).
    pub fn read(&self, key: &str) -> Result<(Payload, Duration), StorageError> {
        let obj = self.object(key)?;
        let dur = self.spec.read_time(obj.bytes.len() as u64, obj.ntensors);
        self.clock.advance_to(self.clock.now().add(dur));
        Ok((obj.bytes, dur))
    }

    /// Remove the object under `key`, freeing its capacity. Returns whether
    /// an object was removed. Deletion is a metadata operation; it costs the
    /// tier's fixed write latency.
    pub fn remove(&self, key: &str) -> bool {
        let removed = self.objects.lock().unwrap().remove(key);
        if let Some(slot) = &removed {
            *self.used.lock().unwrap() -= slot.len();
            self.unpersist(key);
            self.clock
                .advance_to(self.clock.now().add(self.spec.write_latency));
        }
        removed.is_some()
    }

    /// Whether an object or a reservation exists under `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.objects.lock().unwrap().contains_key(key)
    }

    /// Keys currently stored (sorted, for deterministic iteration).
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.objects.lock().unwrap().keys().cloned().collect();
        keys.sort();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineProfile;
    use std::sync::Arc;

    fn host_tier() -> StorageTier {
        let p = MachineProfile::polaris();
        StorageTier::new(*p.tier(Tier::HostMem), SimClock::new())
    }

    fn tiny_tier(capacity: u64) -> StorageTier {
        let p = MachineProfile::polaris();
        let mut spec = *p.tier(Tier::HostMem);
        spec.capacity = capacity;
        StorageTier::new(spec, SimClock::new())
    }

    #[test]
    fn write_read_roundtrip() {
        let t = host_tier();
        let payload = Arc::new(vec![7u8; 1024]);
        t.write("m/v1", payload.clone(), 4).unwrap();
        let (got, dur) = t.read("m/v1").unwrap();
        assert_eq!(got, *payload);
        assert!(dur > Duration::ZERO);
    }

    #[test]
    fn read_missing_key_errors() {
        let t = host_tier();
        assert!(matches!(t.read("nope"), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn overwrite_replaces_and_accounts_capacity() {
        let t = host_tier();
        t.write("k", Arc::new(vec![0u8; 100]), 1).unwrap();
        assert_eq!(t.used_bytes(), 100);
        t.write("k", Arc::new(vec![0u8; 50]), 1).unwrap();
        assert_eq!(t.used_bytes(), 50);
        assert_eq!(t.object_count(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let t = tiny_tier(100);
        assert!(t.write("a", Arc::new(vec![0u8; 80]), 1).is_ok());
        let err = t.write("b", Arc::new(vec![0u8; 30]), 1).unwrap_err();
        assert!(matches!(
            err,
            StorageError::CapacityExceeded { available: 20, .. }
        ));
        // Overwriting the existing object within capacity is fine.
        assert!(t.write("a", Arc::new(vec![0u8; 100]), 1).is_ok());
    }

    #[test]
    fn remove_frees_capacity() {
        let t = tiny_tier(100);
        t.write("a", Arc::new(vec![0u8; 100]), 1).unwrap();
        assert!(t.remove("a"));
        assert!(!t.remove("a"));
        assert_eq!(t.used_bytes(), 0);
        assert!(t.write("b", Arc::new(vec![0u8; 100]), 1).is_ok());
    }

    #[test]
    fn clock_advances_by_modeled_time() {
        let p = MachineProfile::polaris();
        let clock = SimClock::new();
        let t = StorageTier::new(*p.tier(Tier::Pfs), clock.clone());
        let dur = t.write("k", Arc::new(vec![0u8; 1_500_000_000]), 0).unwrap();
        // 1.5 GB at 1.5 GB/s + 120 ms latency ≈ 1.12 s.
        assert!((dur.as_secs_f64() - 1.12).abs() < 0.01, "{dur:?}");
        assert!((clock.now().as_secs_f64() - dur.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn keys_sorted() {
        let t = host_tier();
        t.write("b", Arc::new(vec![1]), 1).unwrap();
        t.write("a", Arc::new(vec![1]), 1).unwrap();
        assert_eq!(t.keys(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn uncharged_ops_do_not_advance_clock() {
        let p = MachineProfile::polaris();
        let clock = SimClock::new();
        let t = StorageTier::new(*p.tier(Tier::Pfs), clock.clone());
        t.put_uncharged("k", Arc::new(vec![0u8; 1_000_000_000]), 5)
            .unwrap();
        assert_eq!(clock.now(), crate::SimInstant::ZERO);
        let got = t.get_uncharged("k").unwrap();
        assert_eq!(got.len(), 1_000_000_000);
        assert_eq!(clock.now(), crate::SimInstant::ZERO);
        assert!(t.get_uncharged("missing").is_err());
    }

    #[test]
    fn uncharged_put_still_enforces_capacity() {
        let t = tiny_tier(100);
        assert!(t.put_uncharged("a", Arc::new(vec![0u8; 101]), 1).is_err());
        assert!(t.put_uncharged("a", Arc::new(vec![0u8; 100]), 1).is_ok());
    }

    #[test]
    fn a_reservation_counts_against_capacity() {
        let t = tiny_tier(100);
        t.reserve_uncharged("a", 80).unwrap();
        assert_eq!((t.used_bytes(), t.object_count()), (80, 1));
        let err = t.reserve_uncharged("b", 30).unwrap_err();
        assert!(matches!(
            err,
            StorageError::CapacityExceeded {
                requested: 30,
                available: 20,
                ..
            }
        ));
        assert!(t.put_uncharged("b", Arc::new(vec![0u8; 30]), 1).is_err());
        // Replacing the reservation counts the new size alone.
        t.reserve_uncharged("a", 100).unwrap();
        assert_eq!(t.used_bytes(), 100);
        assert!(!t.has_capacity_for(1));
    }

    #[test]
    fn removing_a_reservation_frees_its_bytes() {
        let t = tiny_tier(100);
        t.reserve_uncharged("a", 100).unwrap();
        assert!(t.contains("a"));
        assert!(t.remove("a"));
        assert!(!t.remove("a"));
        assert_eq!((t.used_bytes(), t.object_count()), (0, 0));
        assert!(t.put_uncharged("b", Arc::new(vec![0u8; 100]), 1).is_ok());
    }

    #[test]
    fn a_reservation_cannot_be_read() {
        let clock = SimClock::new();
        let t = StorageTier::new(
            *MachineProfile::polaris().tier(Tier::HostMem),
            clock.clone(),
        );
        t.reserve_uncharged("a", 64).unwrap();
        let reserved = Err(StorageError::Reserved("a".into()));
        assert_eq!(t.get_uncharged("a"), reserved);
        assert_eq!(t.read("a").map(|(bytes, _)| bytes), reserved);
        assert_eq!(
            clock.now(),
            crate::SimInstant::ZERO,
            "a failed read is free"
        );
        // An object written over the reservation reads as usual.
        t.put_uncharged("a", Arc::new(vec![3u8; 64]), 1).unwrap();
        assert_eq!(t.get_uncharged("a").unwrap(), vec![3u8; 64]);
        assert_eq!(t.used_bytes(), 64);
    }

    #[test]
    fn disk_backed_tier_survives_reindex() {
        let p = MachineProfile::polaris();
        let dir = std::env::temp_dir().join(format!("viper-pfs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let t = StorageTier::with_disk(*p.tier(Tier::Pfs), SimClock::new(), &dir).unwrap();
            assert!(t.is_disk_backed());
            t.write("model/node/i5", Arc::new(vec![7u8; 256]), 3)
                .unwrap();
            t.put_uncharged("model/node/i6", Arc::new(vec![8u8; 128]), 3)
                .unwrap();
        }
        // "Restart": a fresh tier over the same directory sees the objects.
        let t2 = StorageTier::with_disk(*p.tier(Tier::Pfs), SimClock::new(), &dir).unwrap();
        assert_eq!(t2.object_count(), 2);
        let (bytes, _) = t2.read("model/node/i5").unwrap();
        assert_eq!(bytes, vec![7u8; 256]);
        assert!(t2.contains("model/node/i6"));
        // Removal deletes the file too.
        t2.remove("model/node/i5");
        let t3 = StorageTier::with_disk(*p.tier(Tier::Pfs), SimClock::new(), &dir).unwrap();
        assert_eq!(t3.object_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_encoding_roundtrips() {
        for key in ["a/b/c", "plain", "with%percent", "a%2Fb"] {
            assert_eq!(StorageTier::decode_key(&StorageTier::encode_key(key)), key);
        }
    }

    #[test]
    fn concurrent_writers_contend() {
        // Writers racing on one tier all land, and each is priced as one
        // stream however the threads overlap: the charge is a function of
        // the scenario, not of the interleaving.
        let t = Arc::new(host_tier());
        let alone = t.spec().write_time(10_000, 2);
        std::thread::scope(|s| {
            for i in 0..8 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let dur = t
                        .write(&format!("k{i}"), Arc::new(vec![0u8; 10_000]), 2)
                        .unwrap();
                    assert_eq!(dur, alone);
                });
            }
        });
        assert_eq!(t.object_count(), 8);
    }
}
