//! Experiment scale selection.

use migrate::MigrationConfig;

/// How big to run the simulated experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's full testbed: 40 GB disk, 512 MB guest. Runs in well
    /// under a second of wall time per migration.
    Paper,
    /// Reduced scale for CI smoke runs (1 GiB disk, 64 MiB guest).
    Ci,
}

impl Scale {
    /// Parse from a CLI flag value.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "paper" => Some(Scale::Paper),
            "ci" => Some(Scale::Ci),
            _ => None,
        }
    }

    /// The migration configuration at this scale.
    pub fn config(self) -> MigrationConfig {
        match self {
            Scale::Paper => MigrationConfig::paper_testbed(),
            Scale::Ci => MigrationConfig {
                disk_blocks: 262_144, // 1 GiB
                mem_pages: 16_384,    // 64 MiB
                ..MigrationConfig::paper_testbed()
            },
        }
    }

    /// Label used in report headers.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper scale (40 GB disk, 512 MB guest)",
            Scale::Ci => "CI scale (1 GiB disk, 64 MiB guest)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_config() {
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("ci"), Some(Scale::Ci));
        assert_eq!(Scale::parse("bogus"), None);
        assert_eq!(Scale::parse("small"), None);
        assert_eq!(Scale::Paper.config().disk_blocks, 9_765_625);
        assert_eq!(Scale::Ci.config().disk_blocks, 262_144);
        Scale::Ci.config().validate();
    }
}
