//! Learning-method comparison on a single instance — a miniature of the
//! paper's Tables 1–3. A release build takes about 70 seconds on two
//! vCPUs.
//!
//! Generates one distributed 3-coloring instance and one unique-solution
//! 3SAT instance, then runs the AWC under every learning configuration
//! (plus ABT and DB) over a handful of random initial assignments.
//!
//! ```text
//! cargo run --release --example learning_comparison
//! ```

use discsp::core::Aggregate;
use discsp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `solver`'s aggregate over one run from each initial assignment.
fn batch<S: Solver>(solver: &S, problem: &DistributedCsp, inits: &[Assignment]) -> Aggregate {
    let metrics: Vec<_> = inits
        .iter()
        .map(|init| {
            solver
                .solve_sync(problem, init)
                .expect("one variable per agent")
                .outcome
                .metrics
        })
        .collect();
    Aggregate::from_metrics(metrics.iter())
}

fn report(problem: &DistributedCsp, name: &str, trials: usize) {
    println!("--- {name} ({problem}, {trials} random starts) ---");
    let mut rng = StdRng::seed_from_u64(17);
    let inits: Vec<Assignment> = (0..trials)
        .map(|_| random_assignment(problem, &mut rng))
        .collect();

    for config in [
        AwcConfig::resolvent(),
        AwcConfig::mcs(),
        AwcConfig::kth_resolvent(3),
        AwcConfig::kth_resolvent(4),
        AwcConfig::no_learning(),
    ] {
        println!(
            "  AWC+{:<9} {}",
            config.label(),
            batch(&AwcSolver::new(config), problem, &inits)
        );
    }

    // Baselines: ABT (the AWC's ancestor) and distributed breakout.
    println!(
        "  {:<13} {}",
        "ABT",
        batch(&AbtSolver::new(), problem, &inits)
    );
    println!(
        "  {:<13} {}",
        "DB",
        batch(&DbaSolver::new(), problem, &inits)
    );
    println!();
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let coloring = coloring_to_discsp(&paper_coloring(45, 3))?;
    report(&coloring, "distributed 3-coloring, n = 45", 6);

    let onesat = cnf_to_discsp(&paper_one_sat3(40, 3).cnf)?;
    report(&onesat, "unique-solution distributed 3SAT, n = 40", 6);

    println!("reading the rows: learning slashes cycles (communication);");
    println!("size bounds trim maxcck (computation); DB spends the fewest");
    println!("checks but by far the most cycles — the paper's Figure 2");
    println!("trade-off. Regenerate the real tables with:");
    println!("  cargo run -p discsp-bench --bin repro --release -- all");
    Ok(())
}
