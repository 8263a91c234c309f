//! Distributed meeting scheduling — the kind of multi-agent resource
//! allocation task the paper's introduction motivates.
//!
//! Each department owns one meeting and must pick a time slot. Shared
//! attendees forbid overlapping slots, and some departments cannot meet
//! in certain slots (unary constraints). No department reveals anything
//! beyond slot announcements and learned nogoods — the privacy argument
//! for solving this as a *distributed* CSP rather than shipping all
//! calendars to a central scheduler (§2.2).
//!
//! ```text
//! cargo run --example meeting_scheduling
//! ```

use discsp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const SLOTS: u16 = 4; // 9:00, 10:00, 11:00, 13:00
    let slot_names = ValueLabels::new(["9:00", "10:00", "11:00", "13:00"]);
    let departments = [
        "engineering",
        "design",
        "sales",
        "legal",
        "finance",
        "support",
    ];

    let mut b = DistributedCsp::builder();
    let meetings: Vec<_> = departments
        .iter()
        .map(|_| b.variable(Domain::new(SLOTS)))
        .collect();

    // Shared attendees: the CTO sits in engineering+design+support, the
    // CFO in sales+legal+finance, the CEO in engineering+sales.
    let conflicting_pairs = [
        (0, 1), // CTO
        (0, 5),
        (1, 5),
        (2, 3), // CFO
        (2, 4),
        (3, 4),
        (0, 2), // CEO
    ];
    for (a, c) in conflicting_pairs {
        b.not_equal(meetings[a], meetings[c])?;
    }
    // Legal can't meet before 11:00; support staffs the morning desk and
    // can only meet at 9:00 or 13:00.
    for slot in [0, 1] {
        b.nogood(Nogood::of([(meetings[3], Value::new(slot))]))?;
    }
    for slot in [1, 2] {
        b.nogood(Nogood::of([(meetings[5], Value::new(slot))]))?;
    }
    let problem = b.build()?;
    println!("problem: {problem}");

    // Everyone optimistically opens at 9:00.
    let init = Assignment::total(vec![Value::new(0); departments.len()]);
    let run = AwcSolver::new(AwcConfig::resolvent()).solve_sync(&problem, &init)?;

    println!(
        "negotiated in {} cycles ({} ok? messages, {} nogoods learned)",
        run.outcome.metrics.cycles,
        run.outcome.metrics.ok_messages,
        run.outcome.metrics.nogoods_generated
    );
    let schedule = run.outcome.solution.expect("the calendar is satisfiable");
    assert!(problem.is_solution(&schedule));
    for (dept, meeting) in departments.iter().zip(&meetings) {
        let slot = schedule.get(*meeting).expect("total");
        println!("  {dept:<12} meets at {}", slot_names.label(slot));
    }

    // An impossible week: the CTO must now also attend sales + legal,
    // pinning five mutually conflicting meetings into four slots.
    let mut b = DistributedCsp::builder();
    let meetings: Vec<_> = (0..5).map(|_| b.variable(Domain::new(SLOTS))).collect();
    for a in 0..5 {
        for c in (a + 1)..5 {
            b.not_equal(meetings[a], meetings[c])?;
        }
    }
    b.nogood(Nogood::of([(meetings[4], Value::new(0))]))?;
    let overbooked = b.build()?;
    let init = Assignment::total(vec![Value::new(0); 5]);
    let agents = AwcSolver::new(AwcConfig::resolvent()).agents(&overbooked, &init)?;
    let run = SyncSimulator::new(agents)
        .cycle_limit(5_000)
        .run(&overbooked)?;
    println!(
        "\noverbooked week: {} (the empty nogood was derived — a proof, not a timeout)",
        run.outcome.metrics.termination
    );
    assert_eq!(run.outcome.metrics.termination, Termination::Insoluble);
    Ok(())
}
