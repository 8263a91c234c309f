//! Networked solving: one coordinator plus one TCP endpoint per agent.
//!
//! `solve_net` runs the same AWC/DBA agents as the in-process runtimes,
//! but every message crosses a real socket: the coordinator ships each
//! agent its slice of the problem over a length-prefixed binary
//! protocol, relays all traffic through the deterministic fault lottery,
//! and aggregates every agent's statistics back into one `RunMetrics`.
//! This example launches the endpoints as threads (each still speaking
//! the full wire protocol) and cross-checks the networked run against
//! `solve_virtual` with the same `(seed, policy)`: the fault counters
//! must agree bit-for-bit.
//!
//! ```text
//! cargo run --example net_solve
//! ```
//!
//! To watch real agent *processes* instead, use the bundled binary:
//! `cargo run -p discsp-net -- demo --agents 6 --launch processes`.

use discsp::prelude::*;

fn ring(n: usize) -> Result<DistributedCsp, Box<dyn std::error::Error>> {
    let mut b = DistributedCsp::builder();
    let vars: Vec<_> = (0..n).map(|_| b.variable(Domain::new(3))).collect();
    for i in 0..n {
        b.not_equal(vars[i], vars[(i + 1) % n])?;
    }
    Ok(b.build()?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 8;
    let problem = ring(n)?;
    let init = Assignment::total(vec![Value::new(0); n]);
    let awc = AwcSolver::new(AwcConfig::resolvent());

    println!("== perfect links ==");
    let config = NetConfig {
        base: VirtualConfig {
            seed: 7,
            ..VirtualConfig::default()
        },
        ..NetConfig::default()
    };
    let report = awc.solve_net(&problem, &init, &config, &AgentLaunch::Threads)?;
    let m = &report.outcome.metrics;
    println!(
        "{n}-agent ring over TCP: {:?} in {} cycles, {} messages, {} checks (maxcck {})",
        m.termination,
        m.cycles,
        m.total_messages(),
        m.total_checks,
        m.maxcck,
    );

    println!("\n== lossy links: 15% drop, seeded ==");
    let lossy = NetConfig {
        base: VirtualConfig {
            seed: 7,
            link: LinkPolicy::lossy(PPM * 15 / 100),
            ..VirtualConfig::default()
        },
        ..NetConfig::default()
    };
    let net = awc.solve_net(&problem, &init, &lossy, &AgentLaunch::Threads)?;
    let nm = &net.outcome.metrics;
    println!(
        "over TCP:     {:?}, sent {}, dropped {}, retransmitted {}",
        nm.termination, nm.messages_sent, nm.messages_dropped, nm.messages_retransmitted
    );

    // The coordinator's relay path consumes the same per-link fault
    // streams as the virtual executor: same (seed, policy), same fate
    // for the k-th message on every link.
    let virt = awc.solve_virtual(&problem, &init, &lossy.base)?;
    let vm = &virt.outcome.metrics;
    println!(
        "in-process:   {:?}, sent {}, dropped {}, retransmitted {}",
        vm.termination, vm.messages_sent, vm.messages_dropped, vm.messages_retransmitted
    );
    assert_eq!(nm.messages_dropped, vm.messages_dropped);
    assert_eq!(nm.messages_retransmitted, vm.messages_retransmitted);
    assert_eq!(nm.total_messages(), vm.total_messages());
    println!("fault schedules agree bit-for-bit");
    Ok(())
}
