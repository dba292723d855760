//! Umbrella crate re-exporting the MST reproduction workspace.
//!
//! See the member crates for the substance:
//! [`trajectory`](mst_trajectory), [`index`](mst_index),
//! [`search`](mst_search), [`exec`](mst_exec), [`serve`](mst_serve),
//! [`baselines`](mst_baselines), [`datagen`](mst_datagen).
//!
//! Cross-layer code that wants one error type to match on can use
//! [`Error`]: every layer's error converts into it via `From`, so `?`
//! works across trajectory → index → search → exec → serve boundaries.
#![forbid(unsafe_code)]
#![deny(missing_docs)]
pub use mst_baselines as baselines;
pub use mst_datagen as datagen;
pub use mst_exec as exec;
pub use mst_index as index;
pub use mst_search as search;
pub use mst_serve as serve;
pub use mst_trajectory as trajectory;

/// The workspace-wide error: every layer's error enum converts into it,
/// so application code holds a single `Result<T, mst::Error>` instead of
/// one alias per crate.
#[derive(Debug)]
pub enum Error {
    /// A trajectory-model operation failed (construction, validation).
    Trajectory(mst_trajectory::TrajectoryError),
    /// An index operation failed (structure, persistence, poisoning).
    Index(mst_index::IndexError),
    /// A search failed (query/period mismatch, missing store entries,
    /// misconfigured builder).
    Search(mst_search::SearchError),
    /// Batch or pooled execution failed (configuration, lost workers).
    Exec(mst_exec::ExecError),
    /// A submission was refused by admission control (overload or
    /// shutdown) — typed backpressure, not a fault.
    Submit(mst_exec::SubmitError),
    /// The wire protocol failed (truncation, oversized frames, transport
    /// I/O).
    Wire(mst_serve::WireError),
    /// The server failed to start or serve.
    Serve(mst_serve::ServeError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Trajectory(e) => write!(f, "trajectory: {e}"),
            Error::Index(e) => write!(f, "index: {e}"),
            Error::Search(e) => write!(f, "search: {e}"),
            Error::Exec(e) => write!(f, "exec: {e}"),
            Error::Submit(e) => write!(f, "submit: {e}"),
            Error::Wire(e) => write!(f, "wire: {e}"),
            Error::Serve(e) => write!(f, "serve: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Trajectory(e) => Some(e),
            Error::Index(e) => Some(e),
            Error::Search(e) => Some(e),
            Error::Exec(e) => Some(e),
            Error::Submit(e) => Some(e),
            Error::Wire(e) => Some(e),
            Error::Serve(e) => Some(e),
        }
    }
}

impl From<mst_trajectory::TrajectoryError> for Error {
    fn from(e: mst_trajectory::TrajectoryError) -> Self {
        Error::Trajectory(e)
    }
}

impl From<mst_index::IndexError> for Error {
    fn from(e: mst_index::IndexError) -> Self {
        Error::Index(e)
    }
}

impl From<mst_search::SearchError> for Error {
    fn from(e: mst_search::SearchError) -> Self {
        Error::Search(e)
    }
}

impl From<mst_exec::ExecError> for Error {
    fn from(e: mst_exec::ExecError) -> Self {
        Error::Exec(e)
    }
}

impl From<mst_exec::SubmitError> for Error {
    fn from(e: mst_exec::SubmitError) -> Self {
        Error::Submit(e)
    }
}

impl From<mst_serve::WireError> for Error {
    fn from(e: mst_serve::WireError) -> Self {
        Error::Wire(e)
    }
}

impl From<mst_serve::ServeError> for Error {
    fn from(e: mst_serve::ServeError) -> Self {
        Error::Serve(e)
    }
}

/// Result alias over the workspace-wide [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Everything a typical user needs, in one import:
/// `use mst::prelude::*;`
pub mod prelude {
    pub use crate::{Error, Result};
    pub use mst_datagen::{td_tr, td_tr_fraction, GstdConfig, TrucksConfig};
    pub use mst_exec::{
        BatchExecutor, BatchQuery, ExecHandle, QueryAnswer, ShardedDatabase, SubmitError, Ticket,
    };
    pub use mst_index::{
        check_invariants, knn_segments, Rtree3D, StrTree, TbTree, TrajectoryIndex,
        TrajectoryIndexWrite,
    };
    pub use mst_search::{
        bfmst_search, nearest_trajectories, scan_kmst, time_relaxed_kmst, Integration, MetricsSink,
        MovingObjectDatabase, MstConfig, MstMatch, NoShare, NoopSink, PruningBound, Query,
        QueryMetrics, QueryOptions, QueryProfile, TimeRelaxedConfig, TrajectoryStore,
    };
    pub use mst_serve::{
        Request, Response, ServeClient, Server, ServerConfig, ServerHandle, StatsReport, WireError,
    };
    pub use mst_trajectory::{
        Mbb, Point, SamplePoint, Segment, TimeInterval, Trajectory, TrajectoryBuilder, TrajectoryId,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_error_converts_into_the_unified_enum() {
        fn trip(which: usize) -> Result<()> {
            match which {
                0 => Err(mst_search::SearchError::MisconfiguredQuery("k is zero"))?,
                1 => Err(mst_exec::ExecError::Config("no workers"))?,
                2 => Err(mst_exec::SubmitError::ShuttingDown)?,
                3 => Err(mst_serve::WireError::Truncated)?,
                4 => Err(mst_serve::ServeError::Exec(mst_exec::ExecError::Config(
                    "no workers",
                )))?,
                _ => Ok(()),
            }
        }
        assert!(matches!(trip(0), Err(Error::Search(_))));
        assert!(matches!(trip(1), Err(Error::Exec(_))));
        assert!(matches!(trip(2), Err(Error::Submit(_))));
        assert!(matches!(trip(3), Err(Error::Wire(_))));
        assert!(matches!(trip(4), Err(Error::Serve(_))));
        assert!(trip(5).is_ok());
    }

    #[test]
    fn unified_errors_render_with_a_layer_prefix_and_expose_a_source() {
        let e = Error::from(mst_exec::SubmitError::Overloaded {
            queued: 4,
            capacity: 4,
        });
        let text = e.to_string();
        assert!(text.starts_with("submit: "), "{text}");
        assert!(std::error::Error::source(&e).is_some());
    }
}
