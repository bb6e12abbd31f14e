//! `urb-chaos` — deterministic fault-injection campaigns and policy
//! tournaments.
//!
//! Four modes, each reproducible from `(seed, runs)` alone:
//!
//! * **Classic** (the default) sweeps a seeded scenario space (fault
//!   kind × target × injection time × optional second fault
//!   mid-recovery × flapping schedule × detector kind × recovery-manager
//!   concurrency) on one node with the hardened recovery policy, and
//!   checks the recovery-convergence invariants on every run: the failure
//!   episode terminates (no recovery in flight, no conductor ticket
//!   active or queued, the node back up, no hung request past the TTL
//!   sweep), every begun reboot finished and every manager decision was
//!   acknowledged exactly once, quarantine is lifted, and goodput returns
//!   to half its pre-fault rate for every fault class a reboot can cure.
//! * **`tournament`** runs the full fault matrix under every registered
//!   recovery policy on a two-node failover cluster, scores each policy
//!   on downtime / failed requests / reboot cost / pages, marks the
//!   Pareto frontier, and with `--json` writes
//!   `target/BENCH_policy_tournament.json`.
//! * **`degraded`** injects fail-slow faults with the performance plane
//!   armed and additionally requires performance parity: a baseline
//!   frozen before injection, the anomaly detected, the ladder escalating
//!   past warm restarts, and latency back within tolerance of the
//!   baseline (`target/BENCH_degraded_parity.json`).
//! * **`netstate`** injects one store-tier or link-tier fault against a
//!   two-node failover cluster on the SSM backend with the
//!   session-integrity ledger armed, and additionally requires that no
//!   committed write was lost or applied twice, no stale lease was
//!   served, and no store-tier evidence drew a reboot onto a healthy
//!   component (`target/BENCH_netstate_integrity.json`).
//!
//! Every mode runs through one campaign loop, [`chaos::run_campaign`]: with
//! `--strict` each scenario re-runs and must reproduce its trace digest
//! bit-for-bit, each run folds into a `CampaignRunDone` telemetry event,
//! and the campaign digest is the FNV fold of those events. Any violation
//! makes the exit code non-zero.

use std::collections::BTreeMap;
use std::process::ExitCode;

use bench::chaos::{
    self, depth_label, describe, fault_kind, run_campaign, run_scenario, verdict, Campaign,
    Failure, RunOptions,
};
use bench::netstate::run_netstate_scenario;
use bench::report::JsonReport;
use bench::Table;
use faults::campaign::{self, CampaignConfig, Scenario};
use recovery::PolicyChoice;

const USAGE: &str = concat!(
    "usage: urb-chaos [--seed N] [--runs M] [--strict] [--verbose] [--only RUN]\n",
    "       urb-chaos tournament [--seed N] [--runs M] [--policies a,b,..] [--strict] [--verbose] [--json]\n",
    "       urb-chaos degraded [--seed N] [--runs M] [--strict] [--verbose] [--json] [--only RUN]\n",
    "       urb-chaos netstate [--seed N] [--runs M] [--strict] [--verbose] [--json] [--only RUN]",
);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Classic,
    Tournament,
    Degraded,
    Netstate,
}

impl Mode {
    /// The subcommand that selects the mode; the classic campaign has none.
    fn name(self) -> Option<&'static str> {
        match self {
            Mode::Classic => None,
            Mode::Tournament => Some("tournament"),
            Mode::Degraded => Some("degraded"),
            Mode::Netstate => Some("netstate"),
        }
    }
}

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    runs: u64,
    only: Option<u64>,
    strict: bool,
    verbose: bool,
    json: bool,
    policies: Vec<PolicyChoice>,
}

impl Args {
    /// The summary's first line, e.g. `urb-chaos degraded: seed 7, 12 run(s), strict`.
    fn header(&self) -> String {
        format!(
            "urb-chaos{}: seed {}, {} run(s){}{}",
            self.mode.name().map_or(String::new(), |n| format!(" {n}")),
            self.seed,
            self.runs,
            if self.mode == Mode::Tournament {
                format!(" x {} policies", self.policies.len())
            } else {
                String::new()
            },
            if self.strict { ", strict" } else { "" }
        )
    }
}

/// Parses the arguments after the program name. Each mode accepts only
/// its own flags: `--only` all but `tournament`, `--json` all but the
/// classic campaign, `--policies` only `tournament`. The error is the
/// message to print before exiting 2.
fn parse(args: &[String]) -> Result<Args, String> {
    let mode = [Mode::Tournament, Mode::Degraded, Mode::Netstate]
        .into_iter()
        .find(|m| m.name() == args.first().map(String::as_str))
        .unwrap_or(Mode::Classic);
    let flags = &args[usize::from(mode != Mode::Classic)..];
    let mut a = Args {
        mode,
        seed: 7,
        runs: match mode {
            Mode::Classic => 64,
            Mode::Tournament => 18,
            Mode::Degraded => 12,
            Mode::Netstate => 100,
        },
        only: None,
        strict: false,
        verbose: false,
        json: false,
        policies: PolicyChoice::ALL.to_vec(),
    };
    let number = |v: Option<&String>| v.and_then(|v| v.parse().ok()).ok_or(USAGE.to_string());
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => a.seed = number(it.next())?,
            "--runs" => a.runs = number(it.next())?,
            "--only" if mode != Mode::Tournament => a.only = Some(number(it.next())?),
            "--policies" if mode == Mode::Tournament => {
                let list = it.next().ok_or(USAGE.to_string())?;
                a.policies = list
                    .split(',')
                    .map(|label| {
                        PolicyChoice::from_label(label).ok_or_else(|| {
                            format!("unknown policy {label:?}; known: {}", known_labels())
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--strict" => a.strict = true,
            "--verbose" => a.verbose = true,
            "--json" if mode != Mode::Classic => a.json = true,
            _ => return Err(USAGE.to_string()),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&args) {
        Ok(a) => a,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let cfg = CampaignConfig {
        seed: a.seed,
        runs: a.runs,
    };
    let mut scenarios = match a.mode {
        Mode::Classic => campaign::scenarios(&cfg),
        Mode::Tournament => campaign::tournament_scenarios(&cfg),
        Mode::Degraded => campaign::degraded_scenarios(&cfg),
        Mode::Netstate => campaign::netstate_scenarios(&cfg),
    };
    if let Some(run) = a.only {
        scenarios.retain(|s| s.run == run);
    }
    match a.mode {
        Mode::Classic => classic_main(&a, &scenarios),
        Mode::Tournament => tournament_main(&a, &scenarios),
        Mode::Degraded => degraded_main(&a, &scenarios),
        Mode::Netstate => netstate_main(&a, &scenarios),
    }
}

/// Prints a campaign's digest line, then [`finish`]es with `held` as
/// the all-clear.
fn report(a: &Args, c: &Campaign, json: Option<JsonReport>, held: &str) -> ExitCode {
    println!(
        "{}campaign digest {:016x} over {} run(s), {} violation(s)",
        a.mode.name().map_or(String::new(), |n| format!("{n} ")),
        c.hash.value(),
        c.metrics.counter("campaign_runs_done"),
        c.metrics.counter("campaign_violations"),
    );
    finish(json, &c.failures, Some(held))
}

/// The report tail every mode ends with: writes `json`, then prints
/// `held` when no run failed, or every failure to stderr and fails.
fn finish(json: Option<JsonReport>, failures: &[Failure], held: Option<&str>) -> ExitCode {
    if let Some(r) = json {
        match r.write() {
            Ok(path) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write report: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if failures.is_empty() {
        if let Some(held) = held {
            println!("{held}");
        }
        return ExitCode::SUCCESS;
    }
    for f in failures {
        eprintln!("run {} ({}):", f.run, f.scenario);
        for v in &f.violations {
            eprintln!("  - {v}");
        }
    }
    ExitCode::FAILURE
}

fn print_coverage(coverage: &BTreeMap<&'static str, u64>) {
    let mut t = Table::new(&["fault kind", "runs"]);
    for (kind, n) in coverage {
        t.row_owned(vec![(*kind).to_string(), n.to_string()]);
    }
    t.print();
}

fn classic_main(a: &Args, scenarios: &[Scenario]) -> ExitCode {
    let debug = a.only.is_some() && a.verbose;
    let mut coverage = BTreeMap::new();
    let c = run_campaign(
        scenarios,
        a.strict,
        |s, first| {
            // The strict re-run stays quiet: one debug log per scenario.
            let opts = RunOptions {
                debug: debug && first,
                ..RunOptions::default()
            };
            run_scenario(s, &opts)
        },
        |s, out| {
            *coverage.entry(fault_kind(&s.fault)).or_insert(0) += 1;
            if let Some(second) = s.second {
                *coverage.entry(fault_kind(&second.fault)).or_insert(0) += 1;
            }
            if a.verbose {
                println!(
                    "run {:>4}  {:<44}  digest {:016x}  {}",
                    s.run,
                    describe(s),
                    out.digest,
                    verdict(&out.violations)
                );
            }
        },
    );
    println!("{}", a.header());
    print_coverage(&coverage);
    println!(
        "\nfault kinds covered: {}; flapping runs: {}; second-fault runs: {}",
        coverage.len(),
        scenarios.iter().filter(|s| s.flap.is_some()).count(),
        scenarios.iter().filter(|s| s.second.is_some()).count(),
    );
    report(a, &c, None, "all invariants held")
}

/// The degraded (fail-slow) campaign: every run injects `Fault::Degraded`
/// with the performance plane armed.
fn degraded_main(a: &Args, scenarios: &[Scenario]) -> ExitCode {
    let opts = RunOptions {
        perf: Some(workload::PerfConfig::default()),
        // Three times the classic client load: fail-slow detection is
        // statistical, and the degraded targets' ops need enough traffic
        // per judgement window (>= min_window_ops) to earn verdicts. The
        // classic campaigns keep the lighter load their digests pin.
        clients: 180,
        debug: a.only.is_some() && a.verbose,
        ..RunOptions::default()
    };
    let mut depth_counts = [0u64; 5];
    let mut detection_ms: Vec<u64> = Vec::new();
    let mut parity_ms: Vec<u64> = Vec::new();
    let mut anomaly_windows = 0u64;
    let c = run_campaign(
        scenarios,
        a.strict,
        |s, _| run_scenario(s, &opts),
        |s, out| {
            let perf = out.perf.unwrap_or_default();
            depth_counts[usize::from(perf.escalation_depth.min(4))] += 1;
            detection_ms.extend(perf.detection_latency_ms);
            parity_ms.extend(perf.parity_after_ms);
            anomaly_windows += perf.anomalies;
            if a.verbose {
                println!(
                    "run {:>3}  {:<36} detect {:>6} ms  parity {:>7} ms  depth {:<15} digest {:016x}  {}",
                    s.run,
                    describe(s),
                    perf.detection_latency_ms
                        .map_or("-".into(), |v| v.to_string()),
                    perf.parity_after_ms.map_or("-".into(), |v| v.to_string()),
                    depth_label(perf.escalation_depth),
                    out.digest,
                    verdict(&out.violations)
                );
            }
        },
    );

    let mean = |v: &[u64]| {
        if v.is_empty() {
            0
        } else {
            v.iter().sum::<u64>() / v.len() as u64
        }
    };
    let max = |v: &[u64]| v.iter().copied().max().unwrap_or(0);
    println!("{}", a.header());
    let mut t = Table::new(&["metric", "value"]);
    t.row_owned(vec![
        "detection latency (ms, mean/max)".into(),
        format!("{} / {}", mean(&detection_ms), max(&detection_ms)),
    ]);
    t.row_owned(vec![
        "parity restoration (ms, mean/max)".into(),
        format!("{} / {}", mean(&parity_ms), max(&parity_ms)),
    ]);
    t.row_owned(vec!["anomaly windows".into(), anomaly_windows.to_string()]);
    for (i, count) in depth_counts.iter().enumerate() {
        t.row_owned(vec![
            format!("escalation depth: {}", depth_label(i as u8)),
            count.to_string(),
        ]);
    }
    t.print();

    let mut r = JsonReport::new("degraded_parity");
    r.metric("seed", a.seed);
    r.metric("runs", a.runs);
    r.metric("violations", c.metrics.counter("campaign_violations"));
    r.metric("anomaly_windows", anomaly_windows);
    r.metric("detection_latency_ms_mean", mean(&detection_ms));
    r.metric("detection_latency_ms_max", max(&detection_ms));
    r.metric("parity_restore_ms_mean", mean(&parity_ms));
    r.metric("parity_restore_ms_max", max(&parity_ms));
    for (i, count) in depth_counts.iter().enumerate() {
        r.metric(&format!("escalation.{}", depth_label(i as u8)), *count);
    }
    r.digest(c.hash.value());
    report(a, &c, a.json.then_some(r), "all parity invariants held")
}

/// The netstate (state-plane & network fault) campaign: every run
/// injects one store-tier or link-tier fault with the session-integrity
/// ledger armed.
fn netstate_main(a: &Args, scenarios: &[Scenario]) -> ExitCode {
    let mut coverage = BTreeMap::new();
    let mut commit_intents = 0u64;
    let mut dupes_discarded = 0u64;
    let mut store_evidence = 0u64;
    let mut retries_issued = 0u64;
    let mut downtime_ms = 0u64;
    let mut retry_runs = 0u64;
    let c = run_campaign(
        scenarios,
        a.strict,
        |s, _| run_netstate_scenario(s),
        |s, out| {
            *coverage.entry(fault_kind(&s.fault)).or_insert(0) += 1;
            commit_intents += out.commit_intents;
            dupes_discarded += out.dupes_discarded;
            store_evidence += out.store_evidence;
            retries_issued += out.retries_issued;
            downtime_ms += out.downtime_ms;
            retry_runs += u64::from(s.budgeted_retry);
            if a.verbose {
                println!(
                    "run {:>3}  {:<38} intents {:>5}  dupes {:>4}  evidence {:>3}  retries {:>4}  digest {:016x}  {}",
                    s.run,
                    describe(s),
                    out.commit_intents,
                    out.dupes_discarded,
                    out.store_evidence,
                    out.retries_issued,
                    out.digest,
                    verdict(&out.violations)
                );
            }
        },
    );

    println!("{}", a.header());
    print_coverage(&coverage);
    println!(
        "\ncommit intents: {commit_intents}; dupes discarded: {dupes_discarded}; \
         store evidence withheld: {store_evidence}; client retries: {retries_issued} \
         ({retry_runs} budgeted run(s)); degraded time: {downtime_ms} ms"
    );

    let mut r = JsonReport::new("netstate_integrity");
    r.metric("seed", a.seed);
    r.metric("runs", a.runs);
    r.metric("violations", c.metrics.counter("campaign_violations"));
    r.metric("commit_intents", commit_intents);
    r.metric("dupes_discarded", dupes_discarded);
    r.metric("store_evidence_withheld", store_evidence);
    r.metric("retries_issued", retries_issued);
    r.metric("budgeted_retry_runs", retry_runs);
    r.metric("downtime_ms", downtime_ms);
    r.metric("fault_kinds_covered", coverage.len() as u64);
    r.digest(c.hash.value());
    report(
        a,
        &c,
        a.json.then_some(r),
        "all session-integrity invariants held",
    )
}

fn tournament_main(a: &Args, scenarios: &[Scenario]) -> ExitCode {
    println!("{}", a.header());
    let (scores, failures) = chaos::tournament(scenarios, &a.policies, a.strict, a.verbose);

    let mut t = Table::new(&[
        "policy",
        "downtime (s)",
        "failed reqs",
        "reboot cost (s)",
        "pages",
        "violations",
        "digest",
        "pareto",
    ]);
    for s in &scores {
        t.row_owned(vec![
            s.policy.label().to_string(),
            format!("{:.1}", s.downtime_ms as f64 / 1000.0),
            s.failed_requests.to_string(),
            format!("{:.1}", s.reboot_cost_s),
            s.pages.to_string(),
            s.violations.to_string(),
            format!("{:016x}", s.digest),
            if s.pareto { "*" } else { "" }.to_string(),
        ]);
    }
    t.print();
    let frontier: Vec<&str> = scores
        .iter()
        .filter(|s| s.pareto)
        .map(|s| s.policy.label())
        .collect();
    println!("\nPareto frontier: {}", frontier.join(", "));

    let mut r = JsonReport::new("policy_tournament");
    r.metric("seed", a.seed);
    r.metric("runs_per_policy", a.runs);
    r.metric("policies", a.policies.len() as u64);
    for s in &scores {
        let l = s.policy.label();
        r.metric(&format!("{l}.downtime_ms"), s.downtime_ms);
        r.metric(&format!("{l}.failed_requests"), s.failed_requests);
        r.metric_f64(&format!("{l}.reboot_cost_s"), s.reboot_cost_s);
        r.metric(&format!("{l}.pages"), s.pages);
        r.metric(&format!("{l}.violations"), s.violations);
        r.text(&format!("{l}.digest"), &format!("{:016x}", s.digest));
        r.metric(&format!("{l}.pareto"), u64::from(s.pareto));
    }
    r.text("pareto_frontier", &frontier.join(","));
    finish(a.json.then_some(r), &failures, None)
}

fn known_labels() -> String {
    PolicyChoice::ALL
        .iter()
        .map(|p| p.label())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::chaos::RunOutcome;

    fn parse_line(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn each_mode_parses_its_own_flags_over_its_own_defaults() {
        for (line, mode, runs) in [
            ("", Mode::Classic, 64),
            ("tournament", Mode::Tournament, 18),
            ("degraded", Mode::Degraded, 12),
            ("netstate", Mode::Netstate, 100),
        ] {
            let a = parse_line(line).unwrap();
            assert_eq!((a.mode, a.seed, a.runs, a.only), (mode, 7, runs, None));
            assert!(!a.strict && !a.verbose && !a.json);
            assert_eq!(a.policies, PolicyChoice::ALL);
        }
        let a = parse_line("--seed 3 --runs 5 --strict --verbose --only 2").unwrap();
        assert_eq!(
            (a.seed, a.runs, a.strict, a.verbose, a.only),
            (3, 5, true, true, Some(2))
        );
        let a = parse_line("tournament --seed 11 --policies paper-ladder,bulkhead --json").unwrap();
        let chosen = vec![PolicyChoice::Ladder, PolicyChoice::Bulkhead];
        assert_eq!((a.seed, a.json, a.policies), (11, true, chosen));
        let a = parse_line("degraded --json --only 4").unwrap();
        assert_eq!((a.mode, a.json, a.only), (Mode::Degraded, true, Some(4)));
        let a = parse_line("netstate --runs 8 --json --only 1").unwrap();
        assert_eq!(
            (a.mode, a.runs, a.json, a.only),
            (Mode::Netstate, 8, true, Some(1))
        );
    }

    #[test]
    fn flags_outside_their_mode_and_malformed_values_print_usage() {
        for line in [
            "--policies paper-ladder",
            "degraded --policies paper-ladder",
            "netstate --policies paper-ladder",
            "tournament --only 2",
            "--json",
            "--runs x",
            "tournament --runs x",
            "degraded --runs -1",
            "--seed",
            "netstate --only",
            "tournament --policies",
            "--seed 7 tournament",
        ] {
            assert_eq!(parse_line(line), Err(USAGE.to_string()), "{line:?}");
        }
        assert_eq!(
            parse_line("tournament --policies paper-ladder,nope"),
            Err(format!(
                "unknown policy \"nope\"; known: {}",
                known_labels()
            ))
        );
    }

    #[test]
    fn a_campaign_with_a_violating_run_exits_non_zero() {
        let scenarios = campaign::tournament_scenarios(&CampaignConfig { seed: 7, runs: 2 });
        let violating = |s: &Scenario, _| RunOutcome {
            digest: s.run,
            violations: vec!["node 0 down at end".into()],
            ..RunOutcome::default()
        };
        let c = run_campaign(&scenarios, false, violating, |_, _| {});
        assert_eq!(c.failures.len(), 2);
        assert_eq!(finish(None, &c.failures, None), ExitCode::FAILURE);
        assert_eq!(finish(None, &[], None), ExitCode::SUCCESS);
    }
}
