//! The stepping driver must reproduce the untraced run bit-for-bit, a
//! wrong schedule must be refused, and wrong pins must fail every check.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use cluster::{SimConfig, SimQueue};
use faults::campaign::{netstate_scenarios, scenarios, CampaignConfig};
use perfbench::engine::{constructor_schedule, schedule_on_queue, Probe, Replay};
use perfbench::measure::{
    end_to_end, repetition, require_same_digests, Repetition, Settings, Workload,
};
use perfbench::pins::{Pins, DEFAULT_SEED};
use perfbench::runs::{self, build, drive, shared, RunSpec, Stop};
use simcore::telemetry::TraceHashSink;
use simcore::SimTime;

/// The digest of `spec` run untraced through `Sim::run_until`.
fn untraced(spec: &RunSpec) -> u64 {
    let (hash, sink) = shared(TraceHashSink::new());
    let (mut sim, _) = build(spec, vec![sink]);
    perfbench::engine::schedule_on_sim(&mut sim, &spec.plan);
    drive(&mut sim, spec.stop);
    drop(sim.finish());
    let digest = hash.borrow().value();
    digest
}

/// The digest of `spec` replayed one traced `step` at a time.
fn traced(spec: &RunSpec) -> u64 {
    let mut probe = Probe::new(1 << 16);
    let (hash, sink) = shared(TraceHashSink::new());
    let timed = probe.sinks(vec![sink]);
    let (sim, _) = build(spec, vec![Box::new(timed)]);
    let mut replay = Replay::new(sim, &spec.cfg, &spec.plan, Some(&mut probe));
    drive(&mut replay, spec.stop);
    drop(replay.finish());
    assert!(!probe.spans.is_empty(), "the probe recorded spans");
    let digest = hash.borrow().value();
    digest
}

/// `steady` with a two-minute horizon, so the test stays quick in debug
/// builds; the configuration is the workload's.
fn short_steady() -> RunSpec {
    RunSpec {
        stop: Stop::At(SimTime::from_mins(2)),
        ..runs::steady(DEFAULT_SEED)
    }
}

#[test]
fn steady_replay_reproduces_the_untraced_digest() {
    let spec = short_steady();
    assert_eq!(traced(&spec), untraced(&spec));
}

#[test]
fn trace_replay_reproduces_the_pinned_record_digest() {
    assert_eq!(traced(&runs::trace(7)), 0xe68d_dcae_494f_97d4);
    assert_eq!(untraced(&runs::trace(11)), 0xb664_1c89_8097_8708);
}

#[test]
fn faulted_classic_scenario_replay_matches_the_program_runner() {
    // A flapping scenario: its re-arms go through the closure escape
    // hatch, and its run ends by the quiescence rule.
    let s = scenarios(&CampaignConfig { seed: 7, runs: 64 })
        .into_iter()
        .find(|s| s.flap.is_some())
        .expect("64 draws include a flapping fault");
    let program = bench::chaos::run_scenario(&s, &bench::chaos::RunOptions::default());
    assert!(program.violations.is_empty(), "{:?}", program.violations);
    let spec = runs::classic(&s);
    assert_eq!(untraced(&spec), program.digest);
    assert_eq!(traced(&spec), program.digest);
}

#[test]
fn netstate_scenario_replay_matches_the_program_runner() {
    let s = netstate_scenarios(&CampaignConfig { seed: 7, runs: 8 }).remove(0);
    let program = bench::netstate::run_netstate_scenario(&s);
    assert_eq!(traced(&runs::netstate(&s)), program.digest);
}

#[test]
fn a_wrong_schedule_makes_the_traced_run_refuse_to_report() {
    let spec = short_steady();
    let reference = untraced(&spec);
    // The initial wakes of a client pool seeded one off the real one.
    let (hash, sink) = shared(TraceHashSink::new());
    let (sim, _) = build(&spec, vec![sink]);
    let mut q = SimQueue::new();
    let off_by_one = SimConfig {
        seed: spec.cfg.seed + 1,
        ..spec.cfg.clone()
    };
    constructor_schedule(&mut q, &off_by_one);
    schedule_on_queue(&mut q, &spec.plan);
    let mut replay = Replay::from_parts(sim.finish(), q, None);
    drive(&mut replay, spec.stop);
    drop(replay.finish());
    let wrong = hash.borrow().value();
    assert_ne!(wrong, reference);
    assert!(
        require_same_digests(&[wrong], &[reference]).is_err(),
        "a diverged replay must not be reported"
    );
    assert!(require_same_digests(&[reference], &[reference]).is_ok());
}

fn settings(workload: Workload, wrong: bool) -> Settings {
    Settings {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        chaos_bin: None,
        pins: Pins { wrong },
    }
}

#[test]
fn pinned_digests_hold_and_wrong_pins_fail_every_check() {
    for workload in [Workload::Trace, Workload::Steady] {
        let rep = repetition(&settings(workload, false)).expect("a repetition runs");
        assert_eq!(Repetition::parse(&rep.to_line()), Ok(rep.clone()));
        let good = end_to_end(&settings(workload, false), || Ok(rep.clone())).unwrap();
        assert!(good.checks.attempted > 0);
        assert_eq!(good.checks.fail_share(), 0.0, "{:?}", good.checks.failures);
        let bad = end_to_end(&settings(workload, true), || Ok(rep.clone())).unwrap();
        assert_eq!(bad.checks.fail_share(), 1.0, "{workload:?}");
        assert!(bad.to_json().starts_with("{\"correct\": false"));
    }
}
