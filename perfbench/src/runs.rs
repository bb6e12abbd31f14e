//! The simulation runs the workloads are made of, each as one
//! [`RunSpec`]: a `SimConfig`, the plan scheduled after `Sim::new`, and
//! how far to run. The configurations mirror the program's own entry
//! points (`urb-trace record`, `bench::chaos::run_scenario`,
//! `bench::netstate::run_netstate_scenario`); the fidelity tests check
//! that each mirror reproduces its original's digest.

use std::cell::RefCell;
use std::rc::Rc;

use bench::chaos::{hardened_rm, CLIENTS, GRACE_S, STABLE_SAMPLES, TAIL_S};
use cluster::{Sim, SimConfig, StoreChoice};
use faults::campaign::Scenario;
use faults::Fault;
use recovery::conductor::ConductorConfig;
use recovery::{PolicyChoice, RmConfig};
use simcore::telemetry::{shared_bus, TelemetrySink};
use simcore::{SimDuration, SimTime};
use statestore::{shared_ledger, SharedLedger};
use workload::{DetectorKind, RetryPolicy};

use crate::engine::{Engine, Injection};

/// Simulated horizon of one `steady` run.
pub const STEADY_HORIZON: SimTime = SimTime::from_secs(600);

/// How a run ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stop {
    /// At a fixed simulated time.
    At(SimTime),
    /// The campaigns' rule: run to `horizon`, then in 5 s slices until
    /// recovery has been quiet for `STABLE_SAMPLES` samples or the
    /// `GRACE_S` grace is spent.
    Quiesced(SimTime),
}

/// One simulation run.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The simulation's configuration.
    pub cfg: SimConfig,
    /// Scheduled after `Sim::new`, in order.
    pub plan: Vec<Injection>,
    /// When the run ends.
    pub stop: Stop,
    /// Whether an integrity ledger is wired between the client pool and
    /// the SSM (the netstate campaign).
    pub ledger: bool,
}

/// `steady`: the paper's normal operation. Two nodes, 500 clients each,
/// FastS sessions, failover and the recovery manager on, no faults.
pub fn steady(seed: u64) -> RunSpec {
    RunSpec {
        cfg: SimConfig {
            nodes: 2,
            clients_per_node: 500,
            store: StoreChoice::FastS,
            failover: true,
            rm: Some(RmConfig::default()),
            seed,
            ..SimConfig::default()
        },
        plan: Vec::new(),
        stop: Stop::At(STEADY_HORIZON),
        ledger: false,
    }
}

/// `trace`: the `urb-trace record --seed <seed>` scenario. One node, 500
/// clients, a transient exception in `BrowseCategories` at 60 s,
/// automatic recovery, two simulated minutes.
pub fn trace(seed: u64) -> RunSpec {
    RunSpec {
        cfg: SimConfig {
            seed,
            rm: Some(RmConfig::default()),
            ..SimConfig::default()
        },
        plan: vec![Injection::Fault {
            at: SimTime::from_mins(1),
            node: 0,
            fault: Fault::TransientException {
                component: "BrowseCategories",
                calls: 30,
            },
        }],
        stop: Stop::At(SimTime::from_mins(2)),
        ledger: false,
    }
}

/// One classic `urb-chaos` scenario, as `bench::chaos::run_scenario`
/// runs it under the default options.
pub fn classic(s: &Scenario) -> RunSpec {
    let wants_ssm = matches!(s.fault, Fault::CorruptSsm)
        || s.second
            .is_some_and(|sf| matches!(sf.fault, Fault::CorruptSsm));
    let cfg = SimConfig {
        nodes: 1,
        clients_per_node: CLIENTS,
        store: if wants_ssm {
            StoreChoice::Ssm
        } else {
            StoreChoice::FastS
        },
        detector: if s.comparison_detector {
            DetectorKind::Comparison
        } else {
            DetectorKind::Simple
        },
        rm: Some(hardened_rm(s.parallel_rm)),
        conductor: s.parallel_rm.then(ConductorConfig::default),
        policy: PolicyChoice::Ladder,
        failover: false,
        seed: s.sim_seed,
        ..SimConfig::default()
    };
    let mut plan = vec![Injection::Fault {
        at: SimTime::from_secs(s.inject_at_s),
        node: 0,
        fault: s.fault,
    }];
    let mut last_injection_s = s.inject_at_s;
    if let Some(second) = s.second {
        plan.push(Injection::Fault {
            at: SimTime::from_secs(second.at_s),
            node: 0,
            fault: second.fault,
        });
        last_injection_s = last_injection_s.max(second.at_s);
    }
    if let Some(crash) = s.rm_crash {
        plan.push(Injection::RmCrash {
            at: SimTime::from_secs(crash.at_s),
            outage: SimDuration::from_secs(crash.outage_s),
        });
        last_injection_s = last_injection_s.max(crash.at_s + crash.outage_s);
    }
    if let Some(flap) = s.flap {
        for k in 1..=u64::from(flap.recurrences) {
            let at_s = s.inject_at_s + k * flap.gap_s;
            last_injection_s = last_injection_s.max(at_s);
            plan.push(Injection::Flap {
                at: SimTime::from_secs(at_s),
                fault: s.fault,
            });
        }
    }
    RunSpec {
        cfg,
        plan,
        stop: Stop::Quiesced(SimTime::from_secs(last_injection_s + TAIL_S)),
        ledger: false,
    }
}

/// One `urb-chaos netstate` scenario, as
/// `bench::netstate::run_netstate_scenario` runs it.
pub fn netstate(s: &Scenario) -> RunSpec {
    RunSpec {
        cfg: SimConfig {
            nodes: 2,
            clients_per_node: CLIENTS,
            store: StoreChoice::Ssm,
            detector: if s.comparison_detector {
                DetectorKind::Comparison
            } else {
                DetectorKind::Simple
            },
            rm: Some(hardened_rm(false)),
            policy: PolicyChoice::Ladder,
            failover: true,
            retry_policy: if s.budgeted_retry {
                bench::netstate::budgeted_policy()
            } else {
                RetryPolicy::None
            },
            seed: s.sim_seed,
            ..SimConfig::default()
        },
        plan: vec![Injection::Fault {
            at: SimTime::from_secs(s.inject_at_s),
            node: 0,
            fault: s.fault,
        }],
        stop: Stop::Quiesced(SimTime::from_secs(s.inject_at_s + TAIL_S)),
        ledger: true,
    }
}

/// Builds the run's simulation with `sinks` on a fresh bus, ready to be
/// scheduled: `Sim::new`, the ledger hooks, then `attach_telemetry`.
pub fn build(spec: &RunSpec, sinks: Vec<Box<dyn TelemetrySink>>) -> (Sim, Option<SharedLedger>) {
    let mut sim = Sim::new(spec.cfg.clone());
    let ledger = spec.ledger.then(|| {
        let ledger = shared_ledger();
        let w = sim.world_mut();
        w.pool.attach_ledger(ledger.clone());
        if let Some(ssm) = &w.ssm {
            ssm.borrow_mut().attach_ledger(ledger.clone());
        }
        ledger
    });
    let bus = shared_bus();
    for sink in sinks {
        bus.borrow_mut().add_sink(sink);
    }
    sim.attach_telemetry(bus);
    (sim, ledger)
}

/// The campaigns' quiescence test (`bench::chaos::quiesced`), over any
/// engine: no decision in flight, conductor idle, every node up, nothing
/// hung past the TTL sweep bound, and no node out of latency parity.
fn quiesced<E: Engine>(e: &E) -> bool {
    let w = e.world();
    let hung_bound = urb_core::calib::REQUEST_TTL + SimDuration::from_secs(5);
    w.pool.perf().is_none_or(|p| p.anomalous_nodes().is_empty())
        && (0..w.nodes.len()).all(|n| {
            w.rm.as_ref().is_none_or(|rm| rm.in_flight(n) == 0)
                && w.conductor
                    .as_ref()
                    .is_none_or(|c| c.active_count(n) == 0 && c.queued_count(n) == 0)
                && w.nodes[n].is_up()
                && w.nodes[n]
                    .oldest_hung_age(e.now())
                    .is_none_or(|age| age <= hung_bound)
        })
}

/// Runs `e` to the spec's stop and returns the final simulated time.
pub fn drive<E: Engine>(e: &mut E, stop: Stop) -> SimTime {
    match stop {
        Stop::At(t) => {
            e.advance(t);
            t
        }
        Stop::Quiesced(horizon) => {
            e.advance(horizon);
            let grace_end = horizon + SimDuration::from_secs(GRACE_S);
            let mut end = horizon;
            let mut stable = u32::from(quiesced(e));
            while stable < STABLE_SAMPLES && end < grace_end {
                end += SimDuration::from_secs(5);
                e.advance(end);
                stable = if quiesced(e) { stable + 1 } else { 0 };
            }
            end
        }
    }
}

/// A sink handle the caller keeps while a clone sits in the bus.
pub fn shared<S: TelemetrySink + 'static>(sink: S) -> (Rc<RefCell<S>>, Box<dyn TelemetrySink>) {
    let rc = Rc::new(RefCell::new(sink));
    (rc.clone(), Box::new(rc))
}
