//! Concurrent inference engine (scheduler + prefix cache).

pub mod radix;
pub mod router;
pub mod sched;

mod run;

pub use radix::{RadixCache, RadixCacheConfig, RadixStats};
pub use router::{
    is_busy, prompt_prefix, Permit, ReplicaStats, Router, RouterConfig, RouterObs, RouterStats,
};
pub use run::{Engine, EngineConfig, EngineObs, EngineStats, QueryStream};
pub use sched::{BatchPolicy, BatchedLm, SchedMetrics, Scheduler, SchedulerObs};
