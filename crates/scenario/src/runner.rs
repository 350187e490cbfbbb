//! Running a scenario: spec → fleet config → orchestrated chaos run.

use std::sync::Arc;

use orchestrator::{ClusterConfig, Orchestrator, Policy, Scenario};
use telemetry::Recorder;

use crate::dynamics::ScenarioDynamics;
use crate::timeline::ScenarioSpec;
use crate::ScenarioError;

/// A finished scenario run: the fleet report plus the orchestrator
/// (for end-state inspection — kept images, VM placement, disks).
pub struct ScenarioRun {
    /// The fleet report.
    pub report: orchestrator::ClusterReport,
    /// The orchestrator after the run.
    pub orchestrator: Orchestrator,
}

/// The fleet configuration a spec resolves to: paper-calibrated
/// defaults with the spec's geometry and overrides applied.
pub fn config_for(spec: &ScenarioSpec) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(spec.hosts, spec.vms);
    if let Some(blocks) = spec.disk_blocks {
        cfg.disk_blocks = blocks;
    }
    if let Some(seed) = spec.seed {
        cfg.seed = seed;
    }
    cfg
}

/// Run a scenario under its own policy (default IM-aware), journaling
/// through `recorder`.
pub fn run(spec: &ScenarioSpec, recorder: Arc<Recorder>) -> Result<ScenarioRun, ScenarioError> {
    run_with_policy(spec, spec.policy.unwrap_or(Policy::ImAware), recorder)
}

/// Run a scenario under an explicit policy override — how E15 compares
/// cycle-aware against cycle-blind scheduling on one spec.
pub fn run_with_policy(
    spec: &ScenarioSpec,
    policy: Policy,
    recorder: Arc<Recorder>,
) -> Result<ScenarioRun, ScenarioError> {
    spec.validate()?;
    let mut orchestrator = Orchestrator::new(config_for(spec), policy, recorder)
        .map_err(|e| ScenarioError::spec(e.to_string()))?;
    let mut dynamics = ScenarioDynamics::new(spec);
    let scenario = Scenario {
        requests: spec.requests.clone(),
    };
    let report = orchestrator.run_with_dynamics(&scenario, &mut dynamics);
    Ok(ScenarioRun {
        report,
        orchestrator,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    #[test]
    fn a_parsed_scenario_runs_to_completion() {
        let spec = parse(
            "fleet hosts=3 vms=3 blocks=8192 seed=11\n\
             migrate vm0 at=0s\n",
        )
        .expect("parses");
        let run = run(&spec, Recorder::off()).expect("runs");
        assert_eq!(run.report.records.len(), 1);
        assert!(run.report.records[0].completed);
        assert!(run.report.records[0].consistent);
    }

    #[test]
    fn spec_overrides_reach_the_config() {
        let spec = parse("fleet hosts=4 vms=8 blocks=16384 seed=42\n").expect("parses");
        let cfg = config_for(&spec);
        assert_eq!(cfg.hosts, 4);
        assert_eq!(cfg.vms, 8);
        assert_eq!(cfg.disk_blocks, 16384);
        assert_eq!(cfg.seed, 42);
    }
}
