//! VM identity and run-state machine.

use serde::{Deserialize, Serialize};

use crate::DomainId;

/// Run state of a domain during migration.
///
/// Downtime, the paper's headline metric, is precisely the interval a
/// domain spends in [`VmRunState::Suspended`]: from the suspend on the
/// source to the resume on the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VmRunState {
    /// Executing normally.
    Running,
    /// Paused for freeze-and-copy; no guest progress, no I/O.
    Suspended,
    /// Destroyed on this host after a completed migration away.
    Retired,
}

/// Errors from invalid lifecycle transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainError {
    /// The requested transition is not legal from the current state.
    InvalidTransition {
        /// State the domain was in.
        from: VmRunState,
        /// Operation that was attempted.
        attempted: &'static str,
    },
}

impl std::fmt::Display for DomainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidTransition { from, attempted } => {
                write!(f, "cannot {attempted} a domain in state {from:?}")
            }
        }
    }
}

impl std::error::Error for DomainError {}

/// A guest VM's identity and run state. Its memory and CPU context are
/// the migration engine's to hold.
#[derive(Debug, Clone)]
pub struct Domain {
    id: DomainId,
    name: String,
    state: VmRunState,
}

impl Domain {
    /// Create a running domain.
    pub fn new(id: DomainId, name: impl Into<String>) -> Self {
        Self {
            id,
            name: name.into(),
            state: VmRunState::Running,
        }
    }

    /// Domain identifier.
    pub fn id(&self) -> DomainId {
        self.id
    }

    /// Domain name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current run state.
    pub fn state(&self) -> VmRunState {
        self.state
    }

    /// Suspend for freeze-and-copy.
    pub fn suspend(&mut self) -> Result<(), DomainError> {
        match self.state {
            VmRunState::Running => {
                self.state = VmRunState::Suspended;
                Ok(())
            }
            from => Err(DomainError::InvalidTransition {
                from,
                attempted: "suspend",
            }),
        }
    }

    /// Resume execution (on the destination, in a migration).
    pub fn resume(&mut self) -> Result<(), DomainError> {
        match self.state {
            VmRunState::Suspended => {
                self.state = VmRunState::Running;
                Ok(())
            }
            from => Err(DomainError::InvalidTransition {
                from,
                attempted: "resume",
            }),
        }
    }

    /// Retire the source-side instance once migration completes.
    pub fn retire(&mut self) -> Result<(), DomainError> {
        match self.state {
            VmRunState::Suspended | VmRunState::Running => {
                self.state = VmRunState::Retired;
                Ok(())
            }
            from => Err(DomainError::InvalidTransition {
                from,
                attempted: "retire",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guest() -> Domain {
        Domain::new(DomainId(1), "test-vm")
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut d = guest();
        assert_eq!(d.state(), VmRunState::Running);
        d.suspend().unwrap();
        assert_eq!(d.state(), VmRunState::Suspended);
        d.resume().unwrap();
        assert_eq!(d.state(), VmRunState::Running);
        d.suspend().unwrap();
        d.retire().unwrap();
        assert_eq!(d.state(), VmRunState::Retired);
    }

    #[test]
    fn invalid_transitions_rejected() {
        let mut d = guest();
        assert!(d.resume().is_err()); // running -> resume
        d.suspend().unwrap();
        assert!(d.suspend().is_err()); // suspended -> suspend
        d.retire().unwrap();
        assert!(d.resume().is_err()); // retired -> resume
        assert!(d.retire().is_err()); // retired -> retire
        let err = d.suspend().unwrap_err();
        assert!(err.to_string().contains("suspend"));
    }

    #[test]
    fn identity() {
        let d = Domain::new(DomainId(1), "vm");
        assert_eq!(d.name(), "vm");
        assert_eq!(d.id(), DomainId(1));
    }
}
