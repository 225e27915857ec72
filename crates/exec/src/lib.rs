//! # crew-exec
//!
//! Shared execution semantics for every CREW control architecture: step
//! programs and their registry, deterministic failure/perturbation
//! injection, per-instance execution history, the step executor, the
//! opportunistic compensation and re-execution (OCR) decision procedure of
//! the paper's Figure 5, the per-instance failure-handling core
//! ([`InstanceCore`]) and the mutual-exclusion manager queue
//! ([`MutexQueue`]).
//!
//! The centralized engine, the parallel engines and the distributed agents
//! all build on this crate, so OCR behaves identically across
//! architectures and the performance comparison of §6 measures the
//! architectures, not divergent recovery semantics.

#![warn(missing_docs)]

pub mod deploy;
pub mod executor;
pub mod failure;
pub mod hash;
pub mod history;
pub mod instance;
pub mod mutex;
pub mod ocr;
pub mod program;
pub mod weight;

pub use deploy::{Deployment, RelOrderLinks};
pub use executor::{ExecError, StepExecutor, StepOutcome};
pub use failure::FailurePlan;
pub use hash::designated_agent;
pub use history::{InstanceHistory, StepRecord, StepState};
pub use instance::{nested_child, FailureResponse, InstanceCore};
pub use mutex::{Acquire, MutexQueue};
pub use ocr::{decide as ocr_decide, OcrDecision, INCREMENTAL_FRACTION};
pub use program::{FnProgram, Program, ProgramCtx, ProgramRegistry, StepFailure};
pub use weight::Weight;
