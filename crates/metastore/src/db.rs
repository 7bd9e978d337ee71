//! The versioned model-metadata database.

use std::collections::HashMap;
use std::sync::RwLock;

/// Metadata describing one stored model checkpoint — the record the paper's
/// Metadata Manager keeps per DNN model (name, version, size, location,
/// saving path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelRecord {
    /// Model name (e.g. `"tc1"`).
    pub name: String,
    /// Monotonic version assigned by the DB at `put` time (1-based).
    pub version: u64,
    /// Serialized checkpoint size in bytes.
    pub size_bytes: u64,
    /// Number of tensors in the checkpoint.
    pub ntensors: usize,
    /// Storage location (tier name, e.g. `"GPU Memory"` or `"PFS"`).
    pub location: String,
    /// Path/key of the checkpoint at that location.
    pub path: String,
    /// Training iteration the checkpoint was taken at (0 if unknown).
    pub iteration: u64,
}

impl ModelRecord {
    /// Build a record; the version is assigned by [`MetadataDb::put`].
    pub fn new(
        name: impl Into<String>,
        size_bytes: u64,
        ntensors: usize,
        location: impl Into<String>,
        path: impl Into<String>,
    ) -> Self {
        ModelRecord {
            name: name.into(),
            version: 0,
            size_bytes,
            ntensors,
            location: location.into(),
            path: path.into(),
            iteration: 0,
        }
    }

    /// Set the training iteration (builder-style).
    pub fn at_iteration(mut self, iteration: u64) -> Self {
        self.iteration = iteration;
        self
    }
}

/// Thread-safe, versioned metadata store.
///
/// Each `put` for a model name appends a new version; readers can fetch the
/// latest version or any historical one. History is retained (bounded by
/// [`MetadataDb::prune`]) because Viper flushes historical checkpoints to
/// the PFS for fault tolerance. Version numbers are never recycled, even
/// if the whole history is pruned — consumers cache version numbers and a
/// reused one would read as "no news".
#[derive(Debug, Default)]
pub struct MetadataDb {
    models: RwLock<HashMap<String, ModelEntry>>,
}

#[derive(Debug, Default)]
struct ModelEntry {
    history: Vec<ModelRecord>,
    next_version: u64,
}

impl MetadataDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a new version of `record.name`; returns the assigned version.
    pub fn put(&self, mut record: ModelRecord) -> u64 {
        let mut models = self.models.write().unwrap();
        let entry = models.entry(record.name.clone()).or_default();
        entry.next_version += 1;
        record.version = entry.next_version;
        entry.history.push(record);
        entry.next_version
    }

    /// Latest version of a model, if any.
    pub fn latest(&self, name: &str) -> Option<ModelRecord> {
        self.models
            .read()
            .unwrap()
            .get(name)
            .and_then(|e| e.history.last().cloned())
    }

    /// A specific version of a model.
    pub fn get(&self, name: &str, version: u64) -> Option<ModelRecord> {
        self.models
            .read()
            .unwrap()
            .get(name)
            .and_then(|e| e.history.iter().find(|r| r.version == version).cloned())
    }

    /// Full version history of a model (oldest first).
    pub fn history(&self, name: &str) -> Vec<ModelRecord> {
        self.models
            .read()
            .unwrap()
            .get(name)
            .map(|e| e.history.clone())
            .unwrap_or_default()
    }

    /// Update the stored location/path of an existing version (used when the
    /// background flusher moves a checkpoint from memory to the PFS).
    /// Returns whether the version existed.
    pub fn relocate(&self, name: &str, version: u64, location: &str, path: &str) -> bool {
        let mut models = self.models.write().unwrap();
        if let Some(e) = models.get_mut(name) {
            if let Some(r) = e.history.iter_mut().find(|r| r.version == version) {
                r.location = location.to_string();
                r.path = path.to_string();
                return true;
            }
        }
        false
    }

    /// Keep only the newest `keep` versions of `name`; returns the pruned
    /// records (oldest first). Version numbering continues from the
    /// historical maximum regardless.
    pub fn prune(&self, name: &str, keep: usize) -> Vec<ModelRecord> {
        let mut models = self.models.write().unwrap();
        match models.get_mut(name) {
            Some(e) if e.history.len() > keep => {
                let cut = e.history.len() - keep;
                e.history.drain(..cut).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Names of all known models (sorted).
    pub fn model_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.models.read().unwrap().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn rec(name: &str) -> ModelRecord {
        ModelRecord::new(name, 100, 2, "Host Memory", "host://x")
    }

    #[test]
    fn versions_are_monotonic_from_one() {
        let db = MetadataDb::new();
        assert_eq!(db.put(rec("m")), 1);
        assert_eq!(db.put(rec("m")), 2);
        assert_eq!(db.put(rec("other")), 1);
        assert_eq!(db.latest("m").unwrap().version, 2);
    }

    #[test]
    fn get_specific_version() {
        let db = MetadataDb::new();
        db.put(rec("m").at_iteration(10));
        db.put(rec("m").at_iteration(20));
        assert_eq!(db.get("m", 1).unwrap().iteration, 10);
        assert_eq!(db.get("m", 2).unwrap().iteration, 20);
        assert!(db.get("m", 3).is_none());
        assert!(db.get("ghost", 1).is_none());
    }

    #[test]
    fn history_is_oldest_first() {
        let db = MetadataDb::new();
        db.put(rec("m"));
        db.put(rec("m"));
        db.put(rec("m"));
        let h = db.history("m");
        assert_eq!(
            h.iter().map(|r| r.version).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(db.history("ghost").is_empty());
    }

    #[test]
    fn relocate_updates_location() {
        let db = MetadataDb::new();
        db.put(rec("m"));
        assert!(db.relocate("m", 1, "PFS", "/lus/ckpt/m-1"));
        let r = db.get("m", 1).unwrap();
        assert_eq!(r.location, "PFS");
        assert_eq!(r.path, "/lus/ckpt/m-1");
        assert!(!db.relocate("m", 9, "PFS", "x"));
        assert!(!db.relocate("ghost", 1, "PFS", "x"));
    }

    #[test]
    fn prune_keeps_newest() {
        let db = MetadataDb::new();
        for _ in 0..5 {
            db.put(rec("m"));
        }
        let pruned = db.prune("m", 2);
        assert_eq!(
            pruned.iter().map(|r| r.version).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(db.history("m").len(), 2);
        assert_eq!(db.latest("m").unwrap().version, 5);
        assert!(db.prune("m", 10).is_empty());
    }

    #[test]
    fn concurrent_puts_assign_unique_versions() {
        let db = Arc::new(MetadataDb::new());
        let mut versions = std::thread::scope(|s| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    let db = Arc::clone(&db);
                    s.spawn(move || db.put(rec("m")))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        versions.sort();
        assert_eq!(versions, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn model_names_sorted() {
        let db = MetadataDb::new();
        db.put(rec("zeta"));
        db.put(rec("alpha"));
        assert_eq!(
            db.model_names(),
            vec!["alpha".to_string(), "zeta".to_string()]
        );
    }
}
