//! Typed simulation errors.
//!
//! Every failure a [`crate::system::System`] can hit — invalid
//! configuration, an empty workload, memory exhaustion, a memory-
//! substrate fault, or loss of forward progress — is represented here so
//! experiment sweeps can record the failure and keep going instead of
//! tearing down the whole harness. Diagnostic variants carry a
//! [`SystemSnapshot`] of the machine state at the instant of failure.

use std::fmt;

use refsim_dram::error::{ControllerSnapshot, DramError};
use refsim_dram::time::Ps;

/// A digest of system state at the instant of a failure: simulation
/// clock, scheduler counters (including the refresh-aware `η`
/// fallbacks), in-flight memory traffic, and the channel-0 controller's
/// own [`ControllerSnapshot`] (queue depths, refresh cursors).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSnapshot {
    /// Simulation clock when the snapshot was taken.
    pub clock: Ps,
    /// Scheduler `pick_next` invocations so far.
    pub picks: u64,
    /// Refresh-aware picks that fell back to plain fairness (`η`).
    pub eta_fallbacks: u64,
    /// Read fills currently in flight between cores and memory.
    pub inflight_fills: usize,
    /// Channel-0 memory-controller state.
    pub controller: ControllerSnapshot,
}

impl fmt::Display for SystemSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={} picks={} eta_fallbacks={} inflight={} mc: {}",
            self.clock, self.picks, self.eta_fallbacks, self.inflight_fills, self.controller
        )
    }
}

/// Any error a simulation run can produce.
///
/// Experiment builders treat these as data: a failed run becomes an
/// error row in the results table while the rest of the sweep completes
/// (see [`crate::experiment::run_many_checked`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RefsimError {
    /// The configuration failed [`crate::config::SystemConfig::validate`].
    InvalidConfig(String),
    /// The workload mix has no tasks.
    EmptyWorkload,
    /// The bank-aware allocator exhausted physical memory.
    OutOfMemory {
        /// Task whose demand fault could not be served.
        task: u32,
        /// Faulting virtual address.
        vaddr: u64,
    },
    /// The memory substrate reported a fault (time regression or
    /// controller livelock).
    Dram(DramError),
    /// The top-level simulation loop exceeded its forward-progress
    /// budget — a livelock diagnostic rather than a silent hang.
    NoProgress {
        /// Simulation clock when the watchdog fired.
        at: Ps,
        /// Steps executed within the offending `run_until` span.
        steps: u64,
        /// Machine state at the failure.
        snapshot: Box<SystemSnapshot>,
    },
    /// A simulation worker panicked; the payload message is preserved
    /// when it was a string.
    Panicked(String),
    /// A checkpoint image could not be written, read, or imported.
    Checkpoint(String),
    /// A persistence surface hit a classified filesystem failure (see
    /// [`crate::vfs::VfsError`]): which operation, on which path,
    /// failed how. Transient ([`crate::vfs::VfsErrorKind::Interrupted`])
    /// failures are retryable; ENOSPC and crash-point failures are not.
    Io(crate::vfs::VfsError),
    /// The runtime invariant sanitizer found at least one error-severity
    /// violation (see [`crate::sanitize`]). The run's numbers are not
    /// trustworthy, but the simulation itself did not crash.
    InvariantViolation(Box<crate::sanitize::ViolationReport>),
    /// The primary and shadow memory backends disagreed beyond the
    /// calibrated tolerances on the same workload (see
    /// [`crate::diffval`]). The report carries every checked metric with
    /// both values, the divergence class, and — when the triage pass
    /// could attribute it — the first divergent quantum.
    BackendDivergence(Box<crate::diffval::DivergenceReport>),
}

impl fmt::Display for RefsimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefsimError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            RefsimError::EmptyWorkload => write!(f, "workload mix has no tasks"),
            RefsimError::OutOfMemory { task, vaddr } => {
                write!(f, "out of memory faulting {vaddr:#x} for task {task}")
            }
            RefsimError::Dram(e) => write!(f, "memory substrate fault: {e}"),
            RefsimError::NoProgress {
                at,
                steps,
                snapshot,
            } => write!(
                f,
                "no forward progress after {steps} steps at {at} [{snapshot}]"
            ),
            RefsimError::Panicked(msg) => write!(f, "simulation panicked: {msg}"),
            RefsimError::Checkpoint(why) => write!(f, "checkpoint error: {why}"),
            RefsimError::Io(e) => write!(f, "filesystem i/o: {e}"),
            RefsimError::InvariantViolation(report) => {
                write!(f, "invariant violation: {report}")
            }
            RefsimError::BackendDivergence(report) => {
                write!(f, "backend divergence: {report}")
            }
        }
    }
}

impl std::error::Error for RefsimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RefsimError::Dram(e) => Some(e),
            RefsimError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DramError> for RefsimError {
    fn from(e: DramError) -> Self {
        RefsimError::Dram(e)
    }
}

impl From<crate::vfs::VfsError> for RefsimError {
    fn from(e: crate::vfs::VfsError) -> Self {
        RefsimError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refsim_dram::refresh::RefreshPolicyKind;

    fn snap() -> SystemSnapshot {
        SystemSnapshot {
            clock: Ps::from_us(3),
            picks: 12,
            eta_fallbacks: 2,
            inflight_fills: 5,
            controller: ControllerSnapshot {
                cursor: Ps::from_us(3),
                read_q: 4,
                write_q: 1,
                draining: false,
                pending_refresh_due: None,
                next_refresh_due: Some(Ps::from_us(8)),
                policy: RefreshPolicyKind::AllBank,
                refreshes_issued: 7,
                retention_violations: 0,
            },
        }
    }

    #[test]
    fn display_carries_diagnostics() {
        let e = RefsimError::NoProgress {
            at: Ps::from_us(3),
            steps: 999,
            snapshot: Box::new(snap()),
        };
        let s = e.to_string();
        assert!(s.contains("999 steps"), "{s}");
        assert!(s.contains("eta_fallbacks=2"), "{s}");
        assert!(s.contains("rq=4"), "{s}");
    }

    #[test]
    fn dram_errors_convert_and_chain() {
        let inner = DramError::TimeRegression {
            cursor: Ps::from_us(2),
            target: Ps::from_us(1),
            snapshot: Box::new(snap().controller),
        };
        let e: RefsimError = inner.clone().into();
        assert_eq!(e, RefsimError::Dram(inner));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("time went backwards"));
    }

    #[test]
    fn simple_variants_format() {
        assert_eq!(
            RefsimError::EmptyWorkload.to_string(),
            "workload mix has no tasks"
        );
        let e = RefsimError::OutOfMemory {
            task: 3,
            vaddr: 0x1000,
        };
        assert!(e.to_string().contains("0x1000"));
        assert!(RefsimError::InvalidConfig("n_cores".into())
            .to_string()
            .contains("n_cores"));
    }
}
