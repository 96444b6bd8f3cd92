//! The scheduler's error type.
//!
//! Every public entry point — [`Scheduler::schedule`](crate::Scheduler::schedule),
//! [`Scheduler::schedule_with`](crate::Scheduler::schedule_with),
//! [`Scheduler::schedule_batch_outcomes`](crate::Scheduler::schedule_batch_outcomes)
//! and [`network::schedule_chain`](crate::network::schedule_chain) —
//! reports failures through [`ScheduleError`]. The enum is `#[non_exhaustive]`: new failure modes
//! may be added without a breaking release, so downstream matches need a
//! wildcard arm.

use std::error::Error;
use std::fmt;

use sunstone_arch::{ArchError, BindingError};

/// Errors from the scheduling entry points.
///
/// The type is `Clone` so batch results can replay one deduped shape's
/// error onto every layer that shares the shape (see
/// [`BatchOutcome`](crate::BatchOutcome)).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ScheduleError {
    /// The architecture failed validation.
    Arch(ArchError),
    /// Tensors could not be bound to buffers.
    Binding(BindingError),
    /// No valid mapping was found: candidates were enumerated but every
    /// completed mapping failed validation.
    NoValidMapping,
    /// A search stage produced no candidates at all — typically a tensor's
    /// minimal tile exceeds every buffer of the memory decided at `stage`
    /// (stage 0 is the innermost memory).
    InfeasibleLevel {
        /// The stage (memory level, innermost first) that admitted no
        /// candidate.
        stage: usize,
    },
    /// The configuration is invalid (zero beam width, zero enumeration
    /// caps, out-of-range utilization, …).
    InvalidConfig {
        /// Human-readable description of the offending field.
        reason: String,
    },
    /// The mapping constraints are invalid for this workload/architecture
    /// pair — unknown names, contradictory pins, pins that cannot divide
    /// the problem, or restrictions on levels that admit none.
    InvalidConstraints {
        /// Human-readable description of the offending constraint.
        reason: String,
    },
    /// A caller-supplied mapping is invalid for this workload/architecture
    /// pair — wrong level structure, factors that do not cover the
    /// dimension sizes, or capacity/fabric violations. Returned by
    /// [`Scheduler::prime_mapping`](crate::Scheduler::prime_mapping) when
    /// a stored or externally produced mapping fails re-validation.
    InvalidMapping {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// The call was cancelled through its
    /// [`CancelToken`](crate::CancelToken).
    Cancelled,
    /// The wall-clock `time_budget` ran out before any valid mapping was
    /// found. When the budget expires *after* at least one stage produced
    /// a valid mapping, the call instead returns
    /// [`ScheduleOutcome::BestSoFar`](crate::ScheduleOutcome::BestSoFar).
    BudgetExhausted,
    /// An internal invariant was violated (a bug, not a property of the
    /// input): the panic-isolation boundary at every public entry point
    /// caught a panic and converted it into this error instead of
    /// unwinding through the API. Everything a search writes while it
    /// runs is its own and unwinds with it, and the session memoizes only
    /// results of searches that returned, so a follow-up call on the same
    /// session returns results bit-identical to a fresh session's.
    Internal {
        /// The pipeline stage the fault surfaced in (e.g. `"setup"`,
        /// `"search: level 2"`, `"rank"`, `"batch"`).
        stage: String,
        /// The workload name, when the fault occurred inside a per-layer
        /// search.
        layer: Option<String>,
        /// The caught panic message (best effort; non-string payloads are
        /// summarized).
        message: String,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Arch(e) => write!(f, "invalid architecture: {e}"),
            ScheduleError::Binding(e) => write!(f, "binding failed: {e}"),
            ScheduleError::NoValidMapping => write!(f, "no valid mapping found"),
            ScheduleError::InfeasibleLevel { stage } => {
                write!(f, "no feasible candidate at memory level {stage}")
            }
            ScheduleError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            ScheduleError::InvalidConstraints { reason } => {
                write!(f, "invalid mapping constraints: {reason}")
            }
            ScheduleError::InvalidMapping { reason } => {
                write!(f, "invalid mapping: {reason}")
            }
            ScheduleError::Cancelled => write!(f, "scheduling cancelled"),
            ScheduleError::BudgetExhausted => {
                write!(f, "time budget exhausted before a valid mapping was found")
            }
            ScheduleError::Internal { stage, layer, message } => {
                write!(f, "internal scheduler fault during {stage}")?;
                if let Some(layer) = layer {
                    write!(f, " (layer {layer:?})")?;
                }
                write!(f, ": {message}")
            }
        }
    }
}

impl Error for ScheduleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScheduleError::Arch(e) => Some(e),
            ScheduleError::Binding(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArchError> for ScheduleError {
    fn from(e: ArchError) -> Self {
        ScheduleError::Arch(e)
    }
}

impl From<BindingError> for ScheduleError {
    fn from(e: BindingError) -> Self {
        ScheduleError::Binding(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_specific() {
        assert_eq!(ScheduleError::NoValidMapping.to_string(), "no valid mapping found");
        assert_eq!(
            ScheduleError::InfeasibleLevel { stage: 2 }.to_string(),
            "no feasible candidate at memory level 2"
        );
        assert_eq!(
            ScheduleError::InvalidConfig { reason: "beam width must be positive".into() }
                .to_string(),
            "invalid configuration: beam width must be positive"
        );
        assert_eq!(
            ScheduleError::InvalidConstraints { reason: "unknown level `L9`".into() }.to_string(),
            "invalid mapping constraints: unknown level `L9`"
        );
        assert_eq!(
            ScheduleError::InvalidMapping { reason: "levels do not match".into() }.to_string(),
            "invalid mapping: levels do not match"
        );
        assert_eq!(ScheduleError::Cancelled.to_string(), "scheduling cancelled");
        assert_eq!(
            ScheduleError::BudgetExhausted.to_string(),
            "time budget exhausted before a valid mapping was found"
        );
        assert_eq!(
            ScheduleError::Internal {
                stage: "search: level 1".into(),
                layer: Some("conv3".into()),
                message: "boom".into(),
            }
            .to_string(),
            "internal scheduler fault during search: level 1 (layer \"conv3\"): boom"
        );
        assert_eq!(
            ScheduleError::Internal { stage: "setup".into(), layer: None, message: "x".into() }
                .to_string(),
            "internal scheduler fault during setup: x"
        );
    }

    #[test]
    fn errors_are_cloneable_for_batch_replay() {
        let e = ScheduleError::Internal {
            stage: "batch".into(),
            layer: Some("l".into()),
            message: "m".into(),
        };
        assert_eq!(e.to_string(), e.clone().to_string());
    }

    #[test]
    fn arch_and_binding_errors_carry_a_source() {
        let e = ScheduleError::from(ArchError::NoMemory);
        assert!(e.source().is_some());
        assert!(e.to_string().starts_with("invalid architecture:"));
        assert!(ScheduleError::Cancelled.source().is_none());
    }

    #[test]
    fn implements_std_error_object_safely() {
        let boxed: Box<dyn Error> = Box::new(ScheduleError::BudgetExhausted);
        assert!(!boxed.to_string().is_empty());
    }
}
