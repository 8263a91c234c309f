//! `service_mix`: a closed loop of clients on an in-process
//! `SolveService`, running `discsp-load`'s four-way mix (AWC resolvent,
//! AWC mcs, DBA, and AWC resolvent on 2%-lossy links) over 20-variable
//! planted colorings.
//!
//! More clients than active slots keep the FIFO admission queue
//! non-empty, so thousands of tiny sessions weigh on the sweep fan-out,
//! admission and reaping, per-session `Router` setup, and the lossy
//! retransmit/nudge path; nogood stores stay tiny. Correctness: every
//! session solves with a satisfying solution, and completed + failed
//! equals submitted.

use std::collections::BTreeMap;
use std::time::Instant;

use discsp_awc::{AwcAgent, AwcConfig, AwcSolver};
use discsp_core::{Assignment, DistributedCsp, Termination, Value};
use discsp_dba::{DbaSolver, WeightMode};
use discsp_net::AlgoSpec;
use discsp_probgen::{coloring_to_discsp, paper_coloring};
use discsp_runtime::{derive_seed, run_virtual, DistributedAgent, LinkPolicy, VirtualConfig};
use discsp_service::{ServiceConfig, SessionResult, SessionSpec, SolveService};

use crate::stats::{median, quantile, quantile_u64, ratio};
use crate::traced::{self, Spans, Traced};
use crate::{alloc, Metrics, Run, Tally};

/// Sessions per round.
const SESSIONS: u64 = 1000;
/// Variables (agents) per session.
const VARS: u32 = 20;
/// Sessions polled concurrently.
const MAX_ACTIVE: usize = 32;
/// Closed-loop clients, each with one session outstanding.
const CLIENTS: usize = 48;

/// The four-way mix by session index.
fn mix_of(index: u64) -> (AlgoSpec, LinkPolicy) {
    match index % 4 {
        0 => (AlgoSpec::Awc(AwcConfig::resolvent()), LinkPolicy::perfect()),
        1 => (AlgoSpec::Awc(AwcConfig::mcs()), LinkPolicy::perfect()),
        2 => (AlgoSpec::Dba(WeightMode::PerNogood), LinkPolicy::perfect()),
        _ => (
            AlgoSpec::Awc(AwcConfig::resolvent()),
            LinkPolicy::lossy(20_000),
        ),
    }
}

fn spec(seed: u64, index: u64) -> Result<SessionSpec, String> {
    let (algo, link) = mix_of(index);
    let coloring = paper_coloring(VARS, derive_seed(seed, 0x5E55, index));
    let problem = coloring_to_discsp(&coloring).map_err(|e| e.to_string())?;
    let init = Assignment::total((0..VARS).map(|_| Value::new(0)));
    Ok(SessionSpec {
        problem,
        init,
        algo,
        config: VirtualConfig {
            seed: derive_seed(seed, 0x5E55, index ^ u64::MAX),
            link,
            ..VirtualConfig::default()
        },
    })
}

fn generate(seed: u64) -> Result<Vec<SessionSpec>, String> {
    (0..SESSIONS).map(|index| spec(seed, index)).collect()
}

fn check(problem: &DistributedCsp, result: &SessionResult) -> Result<(), String> {
    let outcome = &result.report.outcome;
    if outcome.metrics.termination != Termination::Solved {
        return Err(format!(
            "session ended {:?} at tick {}",
            outcome.metrics.termination, result.report.ticks
        ));
    }
    match &outcome.solution {
        Some(s) if problem.is_solution(s) => Ok(()),
        _ => Err("session reported a wrong solution".to_string()),
    }
}

/// What one closed-loop round observed.
#[derive(Default)]
struct Round {
    /// First submit to last reap.
    loop_s: f64,
    /// Submit-to-reap wall time per session, in milliseconds.
    latency_ms: Vec<f64>,
    checks: u64,
    activations: u64,
    /// Per-sweep wall time, active sessions polled, and sessions left
    /// waiting for a slot (traced rounds only).
    sweep_ms: Vec<f64>,
    polls: Vec<u64>,
    pending: Vec<u64>,
    submit_s: f64,
    /// Sessions the service accepted.
    submitted: u64,
    sent: u64,
    retransmitted: u64,
    /// Completed sessions in id order, with their specs.
    results: Vec<(SessionSpec, SessionResult)>,
}

/// One closed-loop round: `CLIENTS` clients each keep one session
/// outstanding until `SESSIONS` have been submitted. Sweeps are stamped
/// from outside; with `trace` each sweep is timed and the results are
/// kept for the mirror check.
fn round(
    run: &Run,
    specs: Vec<SessionSpec>,
    trace: bool,
    tally: &mut Tally,
) -> Result<Round, String> {
    let mut specs = specs.into_iter().enumerate();
    let mut r = Round::default();
    let mut service = SolveService::new(ServiceConfig {
        max_active: MAX_ACTIVE,
        max_pending: CLIENTS,
        session_budget: u64::MAX,
        workers: run.workers,
    });
    let mut outstanding: BTreeMap<u64, (Instant, SessionSpec)> = BTreeMap::new();
    let mut failed_seen = 0;
    let mut submit = |service: &mut SolveService,
                      outstanding: &mut BTreeMap<u64, (Instant, SessionSpec)>,
                      r: &mut Round,
                      tally: &mut Tally| {
        let Some((index, spec)) = specs.next() else {
            return;
        };
        tally.attempted += 1;
        let id = index as u64 + 1;
        let kept = spec.clone();
        let start = Instant::now();
        match service.submit(id, spec) {
            Ok(()) => {
                r.submitted += 1;
                outstanding.insert(id, (start, kept));
            }
            Err(e) => {
                eprintln!("perfbench: session {id} refused: {e}");
                tally.failed += 1;
            }
        }
        r.submit_s += start.elapsed().as_secs_f64();
    };

    let loop_start = Instant::now();
    for _ in 0..CLIENTS {
        submit(&mut service, &mut outstanding, &mut r, tally);
    }
    while !outstanding.is_empty() {
        if trace {
            let waiting = (service.active_sessions() + service.pending_sessions()) as u64;
            let polls = waiting.min(MAX_ACTIVE as u64);
            r.polls.push(polls);
            r.pending.push(waiting - polls);
            let start = Instant::now();
            service.sweep();
            r.sweep_ms.push(start.elapsed().as_secs_f64() * 1e3);
        } else {
            service.sweep();
        }
        let now = Instant::now();
        let finished = service.take_completed();
        let failed_now = service.failed().len();
        for (id, error) in service.failed().iter().skip(failed_seen) {
            eprintln!("perfbench: session {id} failed: {error}");
            outstanding.remove(id);
            tally.failed += 1;
        }
        for _ in failed_seen..failed_now {
            submit(&mut service, &mut outstanding, &mut r, tally);
        }
        failed_seen = failed_now;
        for (id, result) in finished {
            let Some((submitted, spec)) = outstanding.remove(&id) else {
                return Err(format!("session {id} completed but was never submitted"));
            };
            r.latency_ms.push((now - submitted).as_secs_f64() * 1e3);
            if let Err(e) = check(&spec.problem, &result) {
                tally.failed += 1;
                eprintln!("perfbench: session {id}: {e}");
            }
            let metrics = &result.report.outcome.metrics;
            r.checks += metrics.total_checks;
            r.activations += result.report.activations;
            r.sent += metrics.messages_sent;
            r.retransmitted += metrics.messages_retransmitted;
            if trace {
                r.results.push((spec, result));
            }
            submit(&mut service, &mut outstanding, &mut r, tally);
        }
    }
    r.loop_s = loop_start.elapsed().as_secs_f64();
    let done = r.latency_ms.len() as u64 + failed_seen as u64;
    if done != r.submitted {
        return Err(format!(
            "lost sessions: {} submitted, {} completed, {failed_seen} failed",
            r.submitted,
            r.latency_ms.len()
        ));
    }
    Ok(r)
}

/// End-to-end run: closed-loop rounds until `run.seconds` has passed.
pub fn end_to_end(run: &Run) -> Result<(Metrics, Tally), String> {
    let deadline = Instant::now() + run.budget();
    let mut tally = Tally::default();
    let (mut walls, mut setups, mut check_rates, mut activation_rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut rates, mut p50, mut p99, mut bytes) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while walls.is_empty() || Instant::now() < deadline {
        let start = Instant::now();
        let specs = generate(run.seed)?;
        let generate_s = start.elapsed().as_secs_f64();
        let base = alloc::live();
        alloc::reset_peak();
        let r = round(run, specs, false, &mut tally)?;
        walls.push(start.elapsed().as_secs_f64());
        bytes.push((alloc::peak() - base) as f64 / (CLIENTS as f64 * f64::from(VARS)));
        setups.push(generate_s + r.submit_s);
        check_rates.push(r.checks as f64 / r.loop_s);
        activation_rates.push(r.activations as f64 / r.loop_s);
        rates.push(r.latency_ms.len() as f64 / r.loop_s);
        p50.push(quantile(&r.latency_ms, 0.5));
        p99.push(quantile(&r.latency_ms, 0.99));
        tally.samples += r.latency_ms.len() as u64;
    }
    tally.repetitions = walls.len() as u64;
    let mut m = Metrics::new();
    m.insert("wall_s", median(&walls));
    m.insert("setup_s", median(&setups));
    m.insert("checks_per_s", median(&check_rates));
    m.insert("activations_per_s", median(&activation_rates));
    m.insert("peak_bytes_per_agent", median(&bytes));
    m.insert("sessions_per_s", median(&rates));
    m.insert("session_ms_p50", median(&p50));
    m.insert("session_ms_p99", median(&p99));
    Ok((m, tally))
}

/// Re-runs one session's spec untraced (`run_virtual`) and through the
/// traced loop; returns both timings and the traced outcome.
fn mirror(spec: &SessionSpec) -> Result<(f64, Traced, Vec<AwcAgent>), String> {
    fn both<A: DistributedAgent>(
        build: impl Fn() -> Result<Vec<A>, String>,
        problem: &DistributedCsp,
        config: &VirtualConfig,
    ) -> Result<(f64, Traced, Vec<A>), String> {
        let agents = build()?;
        let start = Instant::now();
        run_virtual(agents, problem, config).map_err(|e| e.to_string())?;
        let untraced_s = start.elapsed().as_secs_f64();
        let mut agents = build()?;
        let traced =
            traced::run_virtual(&mut agents, problem, config).map_err(|e| e.to_string())?;
        Ok((untraced_s, traced, agents))
    }
    match spec.algo {
        AlgoSpec::Awc(config) => both(
            || {
                AwcSolver::new(config)
                    .build_agents(&spec.problem, &spec.init)
                    .map_err(|e| e.to_string())
            },
            &spec.problem,
            &spec.config,
        ),
        AlgoSpec::Dba(mode) => {
            let mut config = spec.config.clone();
            config.stop_on_first_solution = true;
            let build = || {
                DbaSolver::new()
                    .weight_mode(mode)
                    .build_agents(&spec.problem, &spec.init)
                    .map_err(|e| e.to_string())
            };
            let (secs, traced, _) = both(build, &spec.problem, &config)?;
            Ok((secs, traced, Vec::new()))
        }
    }
}

/// Traced run: one closed-loop round with every sweep and submit timed,
/// then every completed session replayed through the traced loop, which
/// must reproduce the service's report.
pub fn traced(run: &Run) -> Result<(Metrics, Tally), String> {
    let started = Instant::now();
    let specs = generate(run.seed)?;
    let generate_s = started.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let r = round(run, specs, true, &mut tally)?;

    let (mut awc, mut dba, mut all) = (Spans::default(), Spans::default(), Spans::default());
    let mut untraced_s = 0.0;
    let mut lens = Vec::new();
    let (mut generated, mut redundant) = (0u64, 0u64);
    for (spec, result) in &r.results {
        let (secs, traced, agents) = mirror(spec)?;
        let report = &result.report;
        if (
            &traced.metrics,
            traced.activations,
            traced.ticks,
            traced.nudges,
        ) != (
            &report.outcome.metrics,
            report.activations,
            report.ticks,
            report.nudges,
        ) {
            return Err(format!(
                "traced loop diverged from the service session: {:?} vs {:?}",
                traced.metrics, report.outcome.metrics
            ));
        }
        untraced_s += secs;
        lens.extend(agents.iter().map(|a| a.store().len() as u64));
        let is_awc = matches!(spec.algo, AlgoSpec::Awc(_));
        if is_awc {
            generated += traced.metrics.nogoods_generated;
            redundant += traced.metrics.redundant_nogoods;
        }
        let spans = traced.spans;
        let algo = if is_awc { &mut awc } else { &mut dba };
        algo.step_ns.extend_from_slice(&spans.step_ns);
        algo.step_allocs += spans.step_allocs;
        algo.checks += spans.checks;
        all.absorb(spans);
    }

    if r.pending.iter().all(|&p| p == 0) {
        return Err(
            "no sweep left a session waiting: the admission queue never filled".to_string(),
        );
    }
    if r.retransmitted == 0 {
        return Err("no message was retransmitted: the lossy path never ran".to_string());
    }

    let total = all.total_ns as f64;
    let mut m = Metrics::new();
    m.insert("awc.step_ns_p50", quantile_u64(&awc.step_ns, 0.5));
    m.insert("awc.step_ns_p99", quantile_u64(&awc.step_ns, 0.99));
    m.insert(
        "awc.ns_per_check",
        ratio(awc.step_total_ns() as f64, awc.checks as f64),
    );
    m.insert(
        "awc.allocs_per_step",
        ratio(awc.step_allocs as f64, awc.step_ns.len() as f64),
    );
    m.insert(
        "awc.redundant_ratio",
        ratio(redundant as f64, generated as f64),
    );
    m.insert("store.len_p50", quantile_u64(&lens, 0.5));
    m.insert(
        "store.len_max",
        lens.iter().copied().max().unwrap_or(0) as f64,
    );
    m.insert("dba.step_ns_p50", quantile_u64(&dba.step_ns, 0.5));
    m.insert(
        "dba.allocs_per_step",
        ratio(dba.step_allocs as f64, dba.step_ns.len() as f64),
    );
    m.insert(
        "router.route_ns",
        ratio(all.route_ns as f64, all.routed as f64),
    );
    m.insert(
        "router.take_due_ns",
        ratio(all.deliver_ns as f64, all.delivered as f64),
    );
    m.insert(
        "router.allocs_per_msg",
        ratio(all.route_allocs as f64, all.routed as f64),
    );
    m.insert(
        "router.retransmit_ratio",
        ratio(r.retransmitted as f64, r.sent as f64),
    );
    m.insert(
        "problem.is_solution_ns",
        ratio(all.is_solution_ns as f64, all.is_solution_calls as f64),
    );
    m.insert(
        "virtual.step_share",
        ratio(all.step_total_ns() as f64, total),
    );
    m.insert(
        "virtual.route_share",
        ratio((all.route_ns + all.deliver_ns) as f64, total),
    );
    m.insert("virtual.merge_share", ratio(all.merge_ns as f64, total));
    m.insert("virtual.observe_share", ratio(all.observe_ns as f64, total));
    m.insert("service.sweep_ms_p50", quantile(&r.sweep_ms, 0.5));
    m.insert("service.sweep_ms_p99", quantile(&r.sweep_ms, 0.99));
    m.insert(
        "service.polls_per_sweep",
        ratio(r.polls.iter().sum::<u64>() as f64, r.polls.len() as f64),
    );
    m.insert(
        "service.pending_mean",
        ratio(r.pending.iter().sum::<u64>() as f64, r.pending.len() as f64),
    );
    m.insert(
        "service.submit_us",
        ratio(r.submit_s * 1e6, tally.attempted as f64),
    );
    m.insert("probgen.generate_s", generate_s);
    m.insert("trace.overhead", ratio(total / 1e9, untraced_s));
    tally.repetitions = 1;
    tally.samples = r.sweep_ms.len() as u64;
    Ok((m, tally))
}
