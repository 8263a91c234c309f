//! Quickstart: the paper's Figure 1 neighborhood, solved end to end.
//!
//! Five agents color a small graph; agent 5's node is adjacent to all
//! four others. We run the AWC with resolvent-based learning on the
//! synchronous simulator and print the negotiation summary.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use discsp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build the distributed problem: one agent per node.
    let mut b = DistributedCsp::builder();
    let nodes: Vec<_> = (0..5).map(|_| b.variable(Domain::new(3))).collect();
    // x5 (index 4 here) is adjacent to x1..x4; x1-x2 and x3-x4 arcs make
    // the instance less trivial.
    for &other in &nodes[..4] {
        b.not_equal(other, nodes[4])?;
    }
    b.not_equal(nodes[0], nodes[1])?;
    b.not_equal(nodes[2], nodes[3])?;
    let problem = b.build()?;
    println!("problem: {problem}");

    // Worst-case start: every agent picks red.
    let init = Assignment::total(vec![Value::new(0); 5]);

    // The paper's simulator, with the per-cycle history switched on.
    let agents = AwcSolver::new(AwcConfig::resolvent()).agents(&problem, &init)?;
    let run = SyncSimulator::new(agents)
        .record_history(true)
        .run(&problem)?;
    let metrics = &run.outcome.metrics;

    println!("terminated: {}", metrics.termination);
    println!("cycles:     {}", metrics.cycles);
    println!("maxcck:     {}", metrics.maxcck);
    println!(
        "messages:   {} ok? / {} nogood",
        metrics.ok_messages, metrics.nogood_messages
    );

    let solution = run.outcome.solution.expect("solved");
    let colors = ValueLabels::colors3();
    for (i, node) in nodes.iter().enumerate() {
        let value = solution.get(*node).expect("total solution");
        println!("  agent {i}: node x{i} → {}", colors.label(value));
    }
    assert!(problem.is_solution(&solution));

    println!("\nper-cycle violations:");
    for record in &run.history {
        println!(
            "  cycle {:>2}: {} violated, {} messages",
            record.cycle, record.violations, record.messages
        );
    }
    Ok(())
}
