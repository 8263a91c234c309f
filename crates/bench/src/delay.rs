//! Extension experiment (§5 future work): performance under unreliable
//! timing — "we should analyze the performance of our algorithm on other
//! types of distributed systems."
//!
//! The synchronous simulator's delay model delivers each message after
//! `1 + U(0..=d)` cycles: `SyncSimulator::message_delay` puts every link
//! under `LinkPolicy::delayed(0, d)`, and each link draws its delays from
//! its own stream, derived from the delay seed and the link's ends.
//! Sweeping `d` shows how gracefully each algorithm degrades as the
//! system drifts away from lockstep: the AWC tolerates stale views by
//! design (it re-evaluates on every update), while DB's wave
//! synchronization stretches proportionally to the slowest link.

use discsp_awc::{AwcConfig, AwcSolver};
use discsp_core::Aggregate;
use discsp_dba::DbaSolver;
use discsp_runtime::{Solver, SyncSimulator};
use serde::{Deserialize, Serialize};

use crate::config::{Family, Protocol};
use crate::trial::{jobs, run_trials};

/// One sampled point of the delay sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayPoint {
    /// Maximum extra delivery delay in cycles (0 = the paper's setting).
    pub max_extra_delay: u64,
    /// AWC+Rslv aggregate at this delay.
    pub awc: Aggregate,
    /// DB aggregate at this delay.
    pub db: Aggregate,
}

/// The delay sweep for one `(family, n)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelaySweep {
    /// Family key.
    pub family: &'static str,
    /// Problem size.
    pub n: u32,
    /// Sampled points by increasing delay.
    pub points: Vec<DelayPoint>,
}

/// `solver`'s aggregate over the protocol's trials with every message
/// taking `1 + U(0..=max_extra)` cycles.
fn delay_cell<S: Solver + Sync>(
    family: Family,
    n: u32,
    protocol: &Protocol,
    solver: &S,
    max_extra: u64,
) -> Aggregate {
    let metrics = run_trials(family, n, protocol, jobs(), |problem, init| {
        let mut sim = SyncSimulator::new(solver.agents(problem, init).expect("fits"));
        sim.cycle_limit(protocol.cycle_limit)
            .message_delay(max_extra, 17);
        sim.run(problem).expect("fits").outcome.metrics
    });
    Aggregate::from_metrics(metrics.iter())
}

/// Runs the sweep over `delays` for `(family, n)` at the given protocol
/// scale.
pub fn delay_sweep(family: Family, n: u32, scale: f64, delays: &[u64]) -> DelaySweep {
    let protocol = Protocol::scaled(family, scale);
    let awc = AwcSolver::new(AwcConfig::resolvent());
    let db = DbaSolver::new();
    let points = delays
        .iter()
        .map(|&d| DelayPoint {
            max_extra_delay: d,
            awc: delay_cell(family, n, &protocol, &awc, d),
            db: delay_cell(family, n, &protocol, &db, d),
        })
        .collect();
    DelaySweep {
        family: family.key(),
        n,
        points,
    }
}

/// Renders the sweep as text.
pub fn render_delay_sweep(sweep: &DelaySweep) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== delay sweep on {} n={} (message delay 1 + U(0..=d) cycles) ==",
        sweep.family, sweep.n
    );
    let _ = writeln!(
        out,
        "{:>4} {:>12} {:>8} {:>12} {:>8}",
        "d", "AWC cycle", "AWC %", "DB cycle", "DB %"
    );
    for p in &sweep.points {
        let _ = writeln!(
            out,
            "{:>4} {:>12.1} {:>7.0}% {:>12.1} {:>7.0}%",
            p.max_extra_delay,
            p.awc.mean_cycles,
            p.awc.percent_solved,
            p.db.mean_cycles,
            p.db.percent_solved
        );
    }
    out
}

/// Renders the sweep as CSV.
pub fn delay_sweep_csv(sweep: &DelaySweep) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("max_extra_delay,awc_cycle,awc_percent,db_cycle,db_percent\n");
    for p in &sweep.points {
        let _ = writeln!(
            out,
            "{},{:.3},{:.3},{:.3},{:.3}",
            p.max_extra_delay,
            p.awc.mean_cycles,
            p.awc.percent_solved,
            p.db.mean_cycles,
            p.db.percent_solved
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_and_degrades_monotonically_in_spirit() {
        let sweep = delay_sweep(Family::Coloring, 15, 0.05, &[0, 6]);
        assert_eq!(sweep.points.len(), 2);
        // Both algorithms must still solve at this tiny size.
        for p in &sweep.points {
            assert_eq!(p.awc.percent_solved, 100.0);
            assert_eq!(p.db.percent_solved, 100.0);
        }
        // Extra delay cannot make the run faster on average.
        assert!(sweep.points[1].awc.mean_cycles >= sweep.points[0].awc.mean_cycles);
    }

    #[test]
    fn rendering_contains_rows() {
        let sweep = delay_sweep(Family::Coloring, 12, 0.02, &[0]);
        let text = render_delay_sweep(&sweep);
        assert!(text.contains("delay sweep"));
        let csv = delay_sweep_csv(&sweep);
        assert!(csv.starts_with("max_extra_delay"));
        assert_eq!(csv.lines().count(), 2);
    }
}
