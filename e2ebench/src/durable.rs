//! The durable store behind `Server::start_durable`: seeding it the way
//! `mst-serve --store` does, recovering it, and measuring it on disk.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mst_exec::IngestOp;
use mst_index::Rtree3D;
use mst_trajectory::{Trajectory, TrajectoryId};
use mst_wal::{DurableDatabase, FileStore, WalConfig};

pub type Durable = DurableDatabase<Rtree3D, FileStore>;

/// Creates a store in `dir`, inserts `fleet` as one group-committed
/// batch and folds it into a snapshot — `mst-serve --store` on an empty
/// directory.
pub fn seed(
    dir: &Path,
    shards: usize,
    fleet: &[(TrajectoryId, Trajectory)],
) -> Result<Durable, String> {
    let store = FileStore::open(dir).map_err(|e| format!("open store: {e}"))?;
    let mut durable =
        Durable::create(store, WalConfig::default(), shards).map_err(|e| format!("create: {e}"))?;
    let ops: Vec<IngestOp> = fleet
        .iter()
        .map(|(id, t)| IngestOp::Insert {
            id: *id,
            trajectory: t.clone(),
        })
        .collect();
    durable
        .apply(&ops)
        .map_err(|e| format!("seed apply: {e}"))?;
    durable
        .checkpoint()
        .map_err(|e| format!("seed checkpoint: {e}"))?;
    Ok(durable)
}

/// Recovers the store in `dir`; returns it with the seconds it took.
pub fn recover(dir: &Path) -> Result<(Durable, f64), String> {
    let start = Instant::now();
    let store = FileStore::open(dir).map_err(|e| format!("open store: {e}"))?;
    let durable =
        Durable::open(store, WalConfig::default()).map_err(|e| format!("recover: {e}"))?;
    Ok((durable, start.elapsed().as_secs_f64()))
}

/// Bytes on disk in the store: every WAL segment plus the snapshot.
/// Returns `(wal_bytes, snapshot_bytes)`.
pub fn store_bytes(dir: &Path) -> Result<(u64, u64), String> {
    let mut wal = 0;
    let mut snapshot = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("list store: {e}"))? {
        let entry = entry.map_err(|e| format!("list store: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let len = entry.metadata().map_err(|e| format!("stat: {e}"))?.len();
        if name.starts_with("wal-") {
            wal += len;
        } else if name == "snapshot.img" {
            snapshot += len;
        }
    }
    Ok((wal, snapshot))
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A fresh subdirectory path (not created).
    pub fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory is harmless.
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
