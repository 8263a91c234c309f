//! `discsp-explore` — run fault-schedule simulation campaigns from the
//! command line.
//!
//! ```text
//! discsp-explore --algo awc-rslv --trials 1000
//! discsp-explore --algo all --trials 200 --seed 1 --out repros/
//! ```
//!
//! Exit status is 0 when every trial passed every oracle, 1 when any
//! violation was found (minimized repro files are then written under
//! `--out`, one per finding), and 2 on usage errors.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use discsp_explore::{run_campaign, Algo, CampaignConfig, Repro};

struct Args {
    algos: Vec<Algo>,
    trials: u64,
    seed: u64,
    agents: u32,
    out: Option<PathBuf>,
    minimize: bool,
    workers: usize,
}

const USAGE: &str = "usage: discsp-explore --algo <awc|awc-rslv|dba|all> [--trials N] \
                     [--seed S] [--agents N] [--out DIR] [--no-minimize] [--sharded W]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        algos: Vec::new(),
        trials: 200,
        seed: 1,
        agents: 10,
        out: None,
        minimize: true,
        workers: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--algo" => {
                let v = value("--algo")?;
                if v == "all" {
                    args.algos = Algo::all().to_vec();
                } else {
                    args.algos
                        .push(Algo::parse(&v).ok_or(format!("unknown algorithm `{v}`"))?);
                }
            }
            "--trials" => {
                let v = value("--trials")?;
                args.trials = v.parse().map_err(|_| format!("bad --trials `{v}`"))?;
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--agents" => {
                let v = value("--agents")?;
                args.agents = v.parse().map_err(|_| format!("bad --agents `{v}`"))?;
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--no-minimize" => args.minimize = false,
            "--sharded" => {
                let v = value("--sharded")?;
                args.workers = v.parse().map_err(|_| format!("bad --sharded `{v}`"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if args.algos.is_empty() {
        return Err(format!("--algo is required\n{USAGE}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut total_findings = 0usize;
    for &algo in &args.algos {
        let config = CampaignConfig {
            trials: args.trials,
            master_seed: args.seed,
            agents: args.agents,
            minimize: args.minimize,
            workers: args.workers,
            ..CampaignConfig::new(algo)
        };
        println!(
            "campaign: algo={algo} trials={} seed={} agents={} executor={}",
            config.trials,
            config.master_seed,
            config.agents,
            if config.workers > 0 {
                format!("sharded({})", config.workers)
            } else {
                "virtual".to_string()
            }
        );
        let report = match run_campaign(&config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("campaign failed: {e}");
                return ExitCode::from(2);
            }
        };
        if report.clean() {
            println!("  {} trials, all oracles clean", report.trials_run);
            continue;
        }
        for finding in &report.findings {
            total_findings += 1;
            let mut line = format!(
                "  trial {} [{}]: {} fault(s) injected;",
                finding.trial,
                finding.policy,
                finding.fault_log.len()
            );
            for v in &finding.violations {
                let _ = write!(line, " {v};");
            }
            if let Some(m) = &finding.minimized {
                let _ = write!(
                    line,
                    " minimized to {} event(s) in {} replays",
                    m.schedule.len(),
                    m.tests
                );
            }
            println!("{line}");
            if let Some(dir) = &args.out {
                let repro = Repro::from_finding(finding);
                let name = format!(
                    "{}_trial{}_{}.repro",
                    algo.label(),
                    finding.trial,
                    repro.violation
                );
                let path = dir.join(name);
                let body = format!(
                    "# discsp-explore finding: trial {} under the `{}` policy grid entry\n{}",
                    finding.trial,
                    finding.policy,
                    repro.to_text()
                );
                if let Err(e) =
                    std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body))
                {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
                println!("    wrote {}", path.display());
            }
        }
    }

    if total_findings == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{total_findings} finding(s)");
        ExitCode::from(1)
    }
}
