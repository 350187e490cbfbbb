//! Diagnostics: what the lock-order check found, where, and why it
//! matters.

/// One violation, pointing at a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the specific finding.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [lock-order] {}",
            self.path, self.line, self.message
        )
    }
}
