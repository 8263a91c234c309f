//! Golden metric-fidelity tests.
//!
//! The paper's reproduced outputs are check counts (`maxcck`), cycle
//! counts, and message counts. Performance work on the nogood store is
//! only admissible if it leaves these *bit-identical*: the store may
//! evaluate incrementally in wall-clock terms, but it must charge
//! exactly the checks the paper's naive scanning algorithm would
//! perform. The values below were recorded from the naive full-scan
//! implementation (pre-index, pre-cache) and pin that contract down —
//! if any of these tests fails after a store or hot-loop change, the
//! change altered the reproduction, not just its speed.

use discsp_awc::{AwcConfig, AwcSolver};
use discsp_bench::trial::run_cell;
use discsp_bench::{Algorithm, Family, Protocol};
use discsp_core::{IncrementalEval, RunMetrics, Termination};
use discsp_cspsolve::random_assignment;
use discsp_dba::WeightMode;
use discsp_runtime::{derive_seed, SyncSimulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One trial's pinned metrics:
/// (cycles, maxcck, total_checks, ok, nogood, other, nogoods_generated).
type Golden = (u64, u64, u64, u64, u64, u64, u64);

fn protocol() -> Protocol {
    Protocol {
        instances: 2,
        inits: 2,
        cycle_limit: 2_000,
        master_seed: 7,
    }
}

fn observed(family: Family, n: u32, algorithm: Algorithm) -> Vec<Golden> {
    run_cell(family, n, algorithm, &protocol())
        .iter()
        .map(|m: &RunMetrics| {
            (
                m.cycles,
                m.maxcck,
                m.total_checks,
                m.ok_messages,
                m.nogood_messages,
                m.other_messages,
                m.nogoods_generated,
            )
        })
        .collect()
}

fn check(family: Family, n: u32, algorithm: Algorithm, golden: &[Golden]) {
    let observed = observed(family, n, algorithm);
    assert_eq!(
        observed,
        golden,
        "metric drift on {family:?} n={n} {}: the reproduction changed, \
         not just its wall-clock speed",
        algorithm.label()
    );
}

#[test]
fn coloring_awc_resolvent() {
    check(
        Family::Coloring,
        15,
        Algorithm::Awc(AwcConfig::resolvent()),
        &[
            (10, 949, 3649, 437, 47, 50, 16),
            (7, 660, 2518, 287, 48, 52, 16),
            (7, 566, 2351, 286, 33, 20, 11),
            (9, 1011, 4259, 493, 72, 54, 24),
        ],
    );
}

#[test]
fn coloring_awc_mcs() {
    check(
        Family::Coloring,
        15,
        Algorithm::Awc(AwcConfig::mcs()),
        &[
            (10, 2218, 6469, 437, 47, 50, 16),
            (7, 1749, 5263, 287, 48, 52, 16),
            (7, 1259, 4160, 286, 33, 20, 11),
            (9, 2682, 8789, 491, 70, 52, 24),
        ],
    );
}

#[test]
fn coloring_db() {
    check(
        Family::Coloring,
        15,
        Algorithm::Db(WeightMode::PerNogood),
        &[
            (29, 1008, 10332, 1230, 0, 1148, 0),
            (17, 576, 5904, 738, 0, 656, 0),
            (13, 432, 4428, 574, 0, 492, 0),
            (33, 1152, 11808, 1394, 0, 1312, 0),
        ],
    );
}

#[test]
fn sat_awc_resolvent() {
    check(
        Family::Sat,
        12,
        Algorithm::Awc(AwcConfig::resolvent()),
        &[
            (25, 1523, 3748, 698, 113, 4, 32),
            (11, 566, 1593, 429, 62, 4, 17),
            (24, 1485, 3519, 685, 113, 6, 33),
            (4, 105, 318, 174, 8, 2, 2),
        ],
    );
}

#[test]
fn sat_awc_mcs() {
    check(
        Family::Sat,
        12,
        Algorithm::Awc(AwcConfig::mcs()),
        &[
            (25, 4927, 8383, 698, 107, 4, 32),
            (11, 1824, 3933, 417, 52, 4, 16),
            (24, 5549, 8861, 685, 109, 6, 33),
            (4, 211, 534, 174, 8, 2, 2),
        ],
    );
}

#[test]
fn sat_db() {
    check(
        Family::Sat,
        12,
        Algorithm::Db(WeightMode::PerNogood),
        &[
            (13, 252, 1872, 854, 0, 732, 0),
            (5, 84, 624, 366, 0, 244, 0),
            (9, 136, 1248, 600, 0, 480, 0),
            (17, 272, 2496, 1080, 0, 960, 0),
        ],
    );
}

/// The n = 15 and n = 12 cells above never grow a store past
/// `IncrementalEval::SMALL_STORE_LIMIT` slots, so they do not guard the
/// large-store path. This trial does: `run_cell`'s instance 0, init 0 of
/// 3SAT n = 60 under master seed 20 000 419, AWC Rslv, where three
/// agents' stores pass the limit (the largest holds 421 slots).
#[test]
fn sat_awc_resolvent_large_store() {
    let (family, n, master_seed) = (Family::Sat, 60, 20_000_419);
    let problem = family.problem(n, 0, master_seed);
    // The seed derivation `run_cell` uses for instance 0's inits.
    let init_seed = derive_seed(
        master_seed ^ 0xA5A5_5A5A,
        family as u64 * 1000 + n as u64,
        0,
    );
    let init = random_assignment(&problem, &mut StdRng::seed_from_u64(init_seed));
    let agents = AwcSolver::new(AwcConfig::resolvent())
        .build_agents(&problem, &init)
        .expect("one variable per agent");
    let mut sim = SyncSimulator::new(agents);
    let run = sim.run(&problem).expect("runs");
    let m = &run.outcome.metrics;
    assert_eq!(m.termination, Termination::Solved);
    assert_eq!(
        (
            m.cycles,
            m.maxcck,
            m.total_checks,
            m.ok_messages,
            m.nogood_messages,
            m.other_messages,
            m.nogoods_generated,
        ),
        (188, 73_029, 709_765, 142_790, 9_382, 2_274, 2_137),
        "metric drift on a large-store trial: the reproduction changed"
    );
    let slots: Vec<usize> = sim
        .agents()
        .iter()
        .map(|a| a.store().slot_count())
        .collect();
    let large = slots
        .iter()
        .filter(|&&s| s > IncrementalEval::SMALL_STORE_LIMIT)
        .count();
    assert_eq!(large, 3, "stores past the limit");
    assert_eq!(slots.iter().max(), Some(&421));
}
