//! Concurrent inference engine (scheduler + prefix cache), served
//! through one handle: the [`Router`], a pool of N ≥ 1 replicas.
//!
//! A replica is the router's own business — there is no public
//! single-engine handle to build beside it:
//!
//! ```compile_fail
//! use lmql_engine::Engine;
//! ```

pub mod router;
pub mod sched;

mod run;

pub use lmql_lm::{RadixCache, RadixCacheConfig, RadixStats};
pub use router::{
    is_busy, prompt_prefix, Permit, ReplicaStats, Router, RouterConfig, RouterObs, RouterStats,
};
pub use run::{EngineConfig, QueryStream};
pub use sched::{BatchPolicy, BatchedLm, SchedMetrics, Scheduler, SchedulerObs};
