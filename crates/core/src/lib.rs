//! # refsim-core
//!
//! The co-design itself: system composition (cores ⇄ caches ⇄ memory
//! controller ⇄ OS), Table 1 configuration presets, run metrics, and the
//! experiment harness that regenerates every figure of *"Hardware-
//! Software Co-design to Mitigate DRAM Refresh Overheads"* (ASPLOS'17).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod codec;
pub mod config;
pub mod diffval;
pub mod error;
pub mod executor;
pub mod experiment;
pub mod fastmap;
pub mod faults;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod runcache;
pub mod sanitize;
pub mod sweep;
pub mod system;
pub mod vfs;

/// Commonly used types.
pub mod prelude {
    pub use crate::config::SystemConfig;
    pub use crate::error::{RefsimError, SystemSnapshot};
    pub use crate::executor::{default_threads, ExecutorStats};
    pub use crate::experiment::{ExpOptions, Job, Scheme};
    pub use crate::faults::FaultPlan;
    pub use crate::metrics::{gmean, gmean_finite, RunMetrics, TaskMetrics};
    pub use crate::report::Table;
    pub use crate::runcache::{job_fingerprint, RunCache};
    pub use crate::sanitize::{AuditLevel, ViolationReport};
    pub use crate::system::System;
    pub use crate::vfs::{FaultSchedule, FaultVfs, StdVfs, Vfs, VfsError, VfsErrorKind};
}
