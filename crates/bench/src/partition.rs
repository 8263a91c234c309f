//! Extension experiment (§5 future work): multi-variable agents.
//!
//! "Our discussion was made on one specific class of distributed CSPs,
//! where each agent has one variable. Although all distributed CSPs can
//! be converted into this class in principle, such conversion is
//! sometimes unreasonable in real-life problems." This sweep quantifies
//! the other direction: the *same* benchmark instance is re-partitioned
//! over fewer physical agents (contiguous variable blocks); co-located
//! variables exchange messages for free inside their host, so remote
//! traffic and cycles both shrink as the partition coarsens — down to
//! one agent, where the run is effectively centralized.

use discsp_awc::{AwcConfig, MultiAwcSolver};
use discsp_core::{AgentId, Aggregate, DistributedCsp};
use discsp_runtime::SyncSimulator;
use serde::{Deserialize, Serialize};

use crate::config::{Family, Protocol};
use crate::trial::{jobs, run_trials};

/// Rebuilds `problem` with the same variables and nogoods but ownership
/// redistributed into `agents` contiguous blocks.
///
/// # Panics
///
/// Panics when `agents` is zero or exceeds the variable count.
pub fn repartition(problem: &DistributedCsp, agents: u32) -> DistributedCsp {
    let n = problem.num_vars() as u32;
    assert!(agents >= 1 && agents <= n, "1..=n agents required");
    let mut b = DistributedCsp::builder();
    for var in problem.vars() {
        let owner = (var.raw() * agents / n).min(agents - 1);
        b.variable_owned_by(problem.domain(var), AgentId::new(owner));
    }
    for ng in problem.nogoods() {
        b.nogood(ng.clone()).expect("source problem was valid");
    }
    b.build().expect("source problem was nonempty")
}

/// One point of the partition sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionPoint {
    /// Number of physical agents the instance was distributed over.
    pub agents: u32,
    /// Aggregated AWC+Rslv measurements.
    pub agg: Aggregate,
}

/// The partition sweep for one `(family, n)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionSweep {
    /// Family key.
    pub family: &'static str,
    /// Problem size (variables).
    pub n: u32,
    /// Points by decreasing agent count.
    pub points: Vec<PartitionPoint>,
}

/// Runs the sweep: the same instances and initial values, re-owned over
/// each agent count in `agent_counts`.
pub fn partition_sweep(family: Family, n: u32, scale: f64, agent_counts: &[u32]) -> PartitionSweep {
    let protocol = Protocol::scaled(family, scale);
    let solver = MultiAwcSolver::new(AwcConfig::resolvent());
    let points = agent_counts
        .iter()
        .map(|&agents| {
            // The trials are the flat instance's: `random_assignment`
            // reads only domains, which repartitioning keeps.
            let metrics = run_trials(family, n, &protocol, jobs(), |flat, init| {
                let problem = repartition(flat, agents);
                let population = solver
                    .build_agents(&problem, init)
                    .expect("any partition fits the multi solver");
                let mut sim = SyncSimulator::new(population);
                sim.cycle_limit(protocol.cycle_limit);
                sim.run(&problem).expect("dense agent ids").outcome.metrics
            });
            PartitionPoint {
                agents,
                agg: Aggregate::from_metrics(metrics.iter()),
            }
        })
        .collect();
    PartitionSweep {
        family: family.key(),
        n,
        points,
    }
}

/// Renders the sweep as text.
pub fn render_partition_sweep(sweep: &PartitionSweep) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== partition sweep on {} n={} (AWC+Rslv, contiguous blocks) ==",
        sweep.family, sweep.n
    );
    let _ = writeln!(
        out,
        "{:>7} {:>10} {:>14} {:>8}",
        "agents", "cycle", "remote msgs", "%"
    );
    for p in &sweep.points {
        let _ = writeln!(
            out,
            "{:>7} {:>10.1} {:>14.1} {:>7.0}%",
            p.agents, p.agg.mean_cycles, p.agg.mean_messages, p.agg.percent_solved
        );
    }
    out
}

/// Renders the sweep as CSV.
pub fn partition_sweep_csv(sweep: &PartitionSweep) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("agents,cycle,remote_messages,percent_solved\n");
    for p in &sweep.points {
        let _ = writeln!(
            out,
            "{},{:.3},{:.3},{:.3}",
            p.agents, p.agg.mean_cycles, p.agg.mean_messages, p.agg.percent_solved
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repartition_preserves_structure() {
        let flat = Family::Coloring.problem(12, 0, 7);
        let coarse = repartition(&flat, 3);
        assert_eq!(coarse.num_vars(), 12);
        assert_eq!(coarse.num_agents(), 3);
        assert_eq!(coarse.nogoods(), flat.nogoods());
        // Block ownership: first third to agent 0, etc.
        assert_eq!(
            coarse.vars_of_agent(AgentId::new(0)).len()
                + coarse.vars_of_agent(AgentId::new(1)).len()
                + coarse.vars_of_agent(AgentId::new(2)).len(),
            12
        );
    }

    #[test]
    #[should_panic(expected = "1..=n agents")]
    fn zero_agents_rejected() {
        let flat = Family::Coloring.problem(12, 0, 7);
        let _ = repartition(&flat, 0);
    }

    #[test]
    fn sweep_shows_traffic_decline() {
        let sweep = partition_sweep(Family::Coloring, 12, 0.02, &[12, 3, 1]);
        assert_eq!(sweep.points.len(), 3);
        // Fewer agents → no more remote messages than fully distributed.
        let flat = sweep.points[0].agg.mean_messages;
        let single = sweep.points[2].agg.mean_messages;
        assert!(single <= flat);
        assert_eq!(single, 0.0, "a single agent sends nothing remotely");
        let text = render_partition_sweep(&sweep);
        assert!(text.contains("partition sweep"));
        let csv = partition_sweep_csv(&sweep);
        assert_eq!(csv.lines().count(), 4);
    }
}
