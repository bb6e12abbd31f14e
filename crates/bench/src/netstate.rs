//! The netstate campaign runner: state-plane and network faults against
//! a two-node failover cluster on the SSM backend, with the end-to-end
//! session-integrity ledger armed.
//!
//! Where the classic campaign asks "does recovery converge?", netstate
//! asks "did recovery *preserve the data*?". Every run wires one
//! [`IntegrityLedger`](statestore::IntegrityLedger) between the client
//! pool (commit intents) and the SSM (applied ids, expiries, removals),
//! injects one store-tier or link-tier fault from
//! [`campaign::netstate_fault`], lets the fault heal, and then checks:
//!
//! 1. **No committed write lost** — every session an end user saw commit
//!    is still probeable in the store, or disappeared through an
//!    accounted path (lease expiry, logout).
//! 2. **No write applied twice** — a duplicated wire delivery must be
//!    discarded by the store's applied-id check, never re-mutate state.
//! 3. **No stale lease served** — reads past a lease's expiry are a
//!    protocol violation, storm or not.
//! 4. **Store blame stays off the ladder** — store-tier evidence is
//!    tallied by the recovery manager but withheld from the policy, so a
//!    sick store never earns a healthy component a microreboot.
//! 5. **Goodput recovers** — every netstate fault heals, so the
//!    availability invariant applies unconditionally.
//!
//! Plus the structural invariants shared with the classic campaign and,
//! under `--strict`, bit-identical digest reproduction on re-run.

use cluster::{Sim, SimConfig, StoreChoice};
use faults::campaign::Scenario;
use faults::{Fault, NetEdge};
use simcore::{SimDuration, SimTime};
use statestore::{shared_ledger, SessionId};
use workload::{DetectorKind, RetryPolicy};

use crate::chaos::{self, RunOutcome, RunSinks, CLIENTS};

/// The budgeted retry policy the campaign's retry arm runs under: a
/// small per-request budget with exponential backoff from 250 ms, capped
/// at 8 s. Amplification stays under 2x even when every attempt fails.
pub fn budgeted_policy() -> RetryPolicy {
    RetryPolicy::Budgeted {
        budget: 4,
        base: SimDuration::from_millis(250),
        cap: SimDuration::from_secs(8),
    }
}

/// Whether `f` lands purely on the store tier: the cluster's nodes stay
/// healthy, so any reboot the ladder starts is misdirected recovery.
fn store_tier(f: &Fault) -> bool {
    matches!(
        f,
        Fault::BrickCrash { .. }
            | Fault::BrickCorrupt { .. }
            | Fault::LeaseStorm
            | Fault::StoreSlow { .. }
    )
}

/// Executes one netstate scenario and checks every integrity invariant.
pub fn run_netstate_scenario(s: &Scenario) -> RunOutcome {
    let policy = if s.budgeted_retry {
        budgeted_policy()
    } else {
        RetryPolicy::None
    };
    run_netstate_with_policy(s, policy)
}

/// [`run_netstate_scenario`] with an explicit retry policy — the
/// retry-storm regression runs the same scenario under naive and
/// budgeted clients to compare amplification.
pub fn run_netstate_with_policy(s: &Scenario, retry_policy: RetryPolicy) -> RunOutcome {
    let mut sim = Sim::new(SimConfig {
        nodes: 2,
        clients_per_node: CLIENTS,
        store: StoreChoice::Ssm,
        detector: if s.comparison_detector {
            DetectorKind::Comparison
        } else {
            DetectorKind::Simple
        },
        rm: Some(chaos::hardened_rm(false)),
        policy: recovery::PolicyChoice::Ladder,
        failover: true,
        retry_policy,
        seed: s.sim_seed,
        ..SimConfig::default()
    });

    // One ledger, observed from both ends of the write path.
    let ledger = shared_ledger();
    {
        let w = sim.world_mut();
        w.pool.attach_ledger(ledger.clone());
        if let Some(ssm) = &w.ssm {
            ssm.borrow_mut().attach_ledger(ledger.clone());
        }
    }
    let sinks = RunSinks::attach(&mut sim, None);
    sim.schedule_fault(SimTime::from_secs(s.inject_at_s), 0, s.fault);
    let (world, end_s, mut out) = sinks.settle(sim, s.inject_at_s);

    // Session-integrity invariants, checked ledger-against-store.
    let led = ledger.borrow();
    let violations = &mut out.violations;
    if let Some(ssm) = &world.ssm {
        let store = ssm.borrow();
        let mut lost = 0u64;
        for sid in led.committed_sessions() {
            if !store.probe(SessionId(sid)) && !led.accounted_gone(sid) {
                lost += 1;
            }
        }
        if lost > 0 {
            violations.push(format!(
                "{lost} committed session(s) vanished from the store unaccounted"
            ));
        }
    } else {
        violations.push("netstate run without an SSM backend".into());
    }
    if led.double_applied() > 0 {
        violations.push(format!(
            "{} write(s) applied twice despite the applied-id check",
            led.double_applied()
        ));
    }
    if led.stale_serves() > 0 {
        violations.push(format!(
            "{} read(s) served state past its lease expiry",
            led.stale_serves()
        ));
    }
    if matches!(
        s.fault,
        Fault::LinkDupe {
            edge: NetEdge::NodeStore,
            ..
        }
    ) && led.dupes_discarded() == 0
    {
        violations.push("node-store dupe fault ran but the dupe defense never fired".into());
    }
    if store_tier(&s.fault) && out.reboots_begun > 0 {
        violations.push(format!(
            "store-tier fault drew {} reboot(s) onto healthy components",
            out.reboots_begun
        ));
    }
    out.commit_intents = led.total_intents();
    out.dupes_discarded = led.dupes_discarded();

    // Every netstate fault heals (`campaign::goodput_recovers` holds for
    // each) and none has a second fault, so goodput must recover.
    chaos::check_availability(&world, s, end_s, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::campaign::{netstate_scenarios, CampaignConfig};

    fn scenario_matching(pred: impl Fn(&Scenario) -> bool) -> Scenario {
        netstate_scenarios(&CampaignConfig { seed: 7, runs: 64 })
            .into_iter()
            .find(|s| pred(s))
            .expect("64 seeded draws cover every scenario shape")
    }

    #[test]
    fn a_store_tier_run_holds_every_integrity_invariant() {
        let s = scenario_matching(|s| matches!(s.fault, Fault::BrickCrash { .. }));
        let out = run_netstate_scenario(&s);
        assert_eq!(out.violations, Vec::<String>::new());
        assert!(out.commit_intents > 0, "clients committed work");
    }

    #[test]
    fn a_node_store_dupe_run_exercises_the_dupe_defense() {
        let s = scenario_matching(|s| {
            matches!(
                s.fault,
                Fault::LinkDupe {
                    edge: NetEdge::NodeStore,
                    ..
                }
            )
        });
        let out = run_netstate_scenario(&s);
        assert_eq!(out.violations, Vec::<String>::new());
        assert!(out.dupes_discarded > 0, "dupe defense fired");
    }

    #[test]
    fn netstate_runs_reproduce_their_digest() {
        let s = scenario_matching(|s| matches!(s.fault, Fault::LinkPartition { .. }));
        let a = run_netstate_scenario(&s);
        let b = run_netstate_scenario(&s);
        assert_eq!(a.digest, b.digest);
    }

    /// The retry-storm regression. Link faults fail *slowly* (the client
    /// timeout paces every attempt), so the storm case needs a fault
    /// that fails *fast*: a component throwing on every call returns an
    /// HTTP error in milliseconds, and a naive immediate-retry client
    /// hammers it until recovery lands. On that same scenario the
    /// budgeted client must stay under 2x attempt amplification while
    /// the naive client storms well past it.
    #[test]
    fn budgeted_retries_do_not_storm_while_naive_ones_do() {
        let s = Scenario {
            run: 0,
            sim_seed: 0x0057_0611,
            fault: Fault::TransientException {
                component: "BrowseCategories",
                calls: u32::MAX,
            },
            inject_at_s: 10,
            second: None,
            flap: None,
            comparison_detector: false,
            parallel_rm: false,
            rm_crash: None,
            budgeted_retry: false,
        };
        let budgeted = run_netstate_with_policy(&s, budgeted_policy());
        // "Retry hard until it works": no backoff, a budget so deep the
        // client hammers the sick component for its whole failure burst.
        let naive = run_netstate_with_policy(&s, RetryPolicy::NaiveImmediate { retries: 100 });
        assert!(
            budgeted.retries_issued > 0,
            "the throwing component forced retries"
        );
        // Attempt amplification = (terminal ops + retries) / terminal ops.
        let b_amp = (budgeted.total_ops + budgeted.retries_issued) as f64
            / budgeted.total_ops.max(1) as f64;
        assert!(
            b_amp < 2.0,
            "budgeted amplification {b_amp:.2}x over {} ops",
            budgeted.total_ops
        );
        assert!(
            naive.retries_issued > 10 * budgeted.retries_issued,
            "naive clients should storm: {} retries vs budgeted {}",
            naive.retries_issued,
            budgeted.retries_issued
        );
    }
}
