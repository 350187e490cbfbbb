//! The paper's I/O request model *R⟨O, N, VM⟩*.

use serde::{Deserialize, Serialize};

/// Identifier of the domain (VM) that submitted a request. `DomainId(0)`
/// is the privileged Domain0, matching Xen's numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DomainId(pub u32);

impl DomainId {
    /// The privileged control domain.
    pub const DOM0: DomainId = DomainId(0);
}

impl std::fmt::Display for DomainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Domain{}", self.0)
    }
}

/// Operation kind: the paper's *O ∈ {READ, WRITE}*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoOp {
    /// Read one block.
    Read,
    /// Overwrite one block.
    Write,
}

/// One block-granular I/O request: the paper's *R⟨O, N, VM⟩* where `O` is
/// the operation, `N` the block number, and `VM` the submitting domain.
///
/// Multi-block guest requests are split into per-block requests before they
/// reach the tracked disk, mirroring `blkback` splitting "the requested
/// area into 4K blocks".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IoRequest {
    /// Operation kind.
    pub op: IoOp,
    /// Block number `N`.
    pub block: usize,
    /// Submitting domain `VM`.
    pub domain: DomainId,
}

impl IoRequest {
    /// Convenience constructor for a read.
    pub fn read(block: usize, domain: DomainId) -> Self {
        Self {
            op: IoOp::Read,
            block,
            domain,
        }
    }

    /// Convenience constructor for a write.
    pub fn write(block: usize, domain: DomainId) -> Self {
        Self {
            op: IoOp::Write,
            block,
            domain,
        }
    }

    /// `true` when the request is a write.
    pub fn is_write(self) -> bool {
        self.op == IoOp::Write
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let r = IoRequest::read(5, DomainId(3));
        assert_eq!(r.op, IoOp::Read);
        assert!(!r.is_write());
        let w = IoRequest::write(9, DomainId::DOM0);
        assert!(w.is_write());
        assert_eq!(w.domain, DomainId::DOM0);
        assert_eq!(w.block, 9);
    }

    #[test]
    fn display_matches_xen_convention() {
        assert_eq!(DomainId::DOM0.to_string(), "Domain0");
        assert_eq!(DomainId(7).to_string(), "Domain7");
    }
}
