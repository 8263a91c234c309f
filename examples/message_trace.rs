//! Message trace: watch an AWC negotiation unfold event by event.
//!
//! Runs the AWC on a frustrated little instance with trace recording on
//! and prints every message delivery and variable change, grouped by
//! cycle — useful for understanding (and debugging) the protocol.
//!
//! ```text
//! cargo run --example message_trace
//! ```

use discsp::prelude::*;
use discsp::runtime::render_trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-cycle with a chord: the uniform start forces real negotiation.
    let mut b = DistributedCsp::builder();
    let nodes: Vec<_> = (0..4).map(|_| b.variable(Domain::new(3))).collect();
    for i in 0..4 {
        b.not_equal(nodes[i], nodes[(i + 1) % 4])?;
    }
    b.not_equal(nodes[0], nodes[2])?;
    let problem = b.build()?;

    let init = Assignment::total(vec![Value::new(0); 4]);
    let solver = AwcSolver::new(AwcConfig::resolvent());
    let agents = solver.build_agents(&problem, &init)?;
    let mut sim = SyncSimulator::new(agents);
    sim.record_trace(true);
    let run = sim.run(&problem)?;
    assert!(problem.is_solution(run.outcome.solution.as_ref().expect("solved")));

    println!(
        "solved in {} cycles; full event trace:\n",
        run.outcome.metrics.cycles
    );
    print!("{}", render_trace(&run.trace));

    println!("\nlearned nogoods still held by each agent:");
    for agent in sim.agents() {
        let learned: Vec<String> = agent
            .store()
            .iter()
            .filter(|ng| !problem.nogoods().iter().any(|init| ng == init))
            .map(|ng| ng.to_string())
            .collect();
        println!(
            "  {}: {}",
            agent.var(),
            if learned.is_empty() {
                "(none)".to_string()
            } else {
                learned.join("  ")
            }
        );
    }
    Ok(())
}
