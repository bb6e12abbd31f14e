//! The chaos-campaign runner and campaign loop: executes one [`Scenario`]
//! against the cluster simulation and checks the recovery-convergence
//! invariants, and runs whole campaigns through [`run_campaign`].
//!
//! Every `urb-chaos` mode, the policy tournament and the conformance
//! tests drive the same runner; the netstate runner
//! ([`crate::netstate`]) shares its settle-to-quiescence loop and its
//! conservation and availability checks. The default [`RunOptions`]
//! reproduce the classic campaign bit-for-bit (one node, the paper's
//! recursive ladder, no failover); the tournament sweeps the same
//! scenarios across every [`PolicyChoice`] in the registry on a two-node
//! failover cluster and scores each policy on a
//! downtime / failed-requests / reboot-cost / pages frontier.

use std::cell::RefCell;
use std::rc::Rc;

use cluster::{LogEvent, Sim, SimConfig, StoreChoice, World};
use faults::campaign::{self, Scenario};
use faults::Fault;
use recovery::conductor::ConductorConfig;
use recovery::{PolicyChoice, RecoveryManager, RmConfig};
use simcore::telemetry::{shared_bus, TelemetrySink, TraceHashSink};
use simcore::{MetricsRegistry, SimDuration, SimTime, TelemetryEvent};
use workload::DetectorKind;

/// Emulated clients per node. Smaller than the paper's 500 so a
/// multi-hundred-run campaign stays fast; plenty for the detectors.
pub const CLIENTS: usize = 60;
/// Quiet tail after the last scheduled injection before invariants are
/// checked. Sized for the slowest legitimate convergence: a low-level
/// fault that burns up the whole ladder (several useless microreboots
/// and process restarts, each followed by a fresh OOM) before the 109 s
/// OS reboot finally cures it, plus the 30 s request TTL.
pub const TAIL_S: u64 = 300;
/// Extra grace, stepped through in 5 s slices, for runs still converging
/// at the horizon. Exhausting it is an invariant violation.
pub const GRACE_S: u64 = 600;
/// Consecutive 5 s samples that must all report quiescence before the
/// run is declared converged — a node mid leak-OOM-restart cycle looks
/// healthy in any single sample.
pub const STABLE_SAMPLES: u32 = 6;

/// How a scenario is executed: cluster shape and recovery policy. The
/// default is the classic campaign configuration, pinned by the strict
/// campaign digests — changing it moves them.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Cluster size (faults always land on node 0).
    pub nodes: usize,
    /// The recovery policy under test.
    pub policy: PolicyChoice,
    /// Whether the LB fails traffic over during recovery.
    pub failover: bool,
    /// Emulated clients per node.
    pub clients: usize,
    /// Performance-observability plane (degraded campaigns); `None`
    /// keeps the classic configuration the pinned digests expect. When
    /// set, the monitors run [`DetectorKind::LatencyAnomaly`] and the run
    /// additionally checks the performance-parity invariants.
    pub perf: Option<workload::PerfConfig>,
    /// Dump the run's log to stdout.
    pub debug: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            nodes: 1,
            policy: PolicyChoice::Ladder,
            failover: false,
            clients: CLIENTS,
            perf: None,
            debug: false,
        }
    }
}

/// What one scenario run produced.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// FNV trace digest over every telemetry event of the run.
    pub digest: u64,
    /// Invariant violations (empty on a clean run).
    pub violations: Vec<String>,
    /// Degraded-goodput wall time after injection, in milliseconds: Σ
    /// over one-second windows in which goodput fell below half the
    /// pre-fault rate (below 1 op when there was no pre-fault traffic).
    pub downtime_ms: u64,
    /// Client operations that failed outright.
    pub failed_requests: u64,
    /// Client operations that reached a terminal outcome (ok or failed).
    pub total_ops: u64,
    /// Client retries issued under the run's retry policy.
    pub retries_issued: u64,
    /// Reboots the ladder started (any level).
    pub reboots_begun: u64,
    /// Total seconds of reboot activity (histogram mean × count).
    pub reboot_cost_s: f64,
    /// Humans paged.
    pub pages: u64,
    /// Store-tier failure reports the recovery manager withheld from the
    /// policy instead of blaming a component.
    pub store_evidence: u64,
    /// Commit intents the session-integrity ledger recorded (netstate).
    pub commit_intents: u64,
    /// Duplicate wire deliveries the store discarded (netstate).
    pub dupes_discarded: u64,
    /// Performance-parity measurements; `Some` only when the run had the
    /// performance plane armed ([`RunOptions::perf`]).
    pub perf: Option<PerfOutcome>,
}

/// What the performance plane observed over one degraded run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerfOutcome {
    /// `(node, op)` baselines frozen before injection.
    pub baselines_frozen: u64,
    /// Latency-anomaly windows raised.
    pub anomalies: u64,
    /// Injection → first anomaly, in milliseconds (detection latency).
    pub detection_latency_ms: Option<u64>,
    /// Longest out-of-parity stretch a `ParityRestored` closed, in
    /// milliseconds.
    pub parity_after_ms: Option<u64>,
    /// Deepest reboot level the ladder reached (0 none, 1 component,
    /// 2 application, 3 process, 4 OS).
    pub escalation_depth: u8,
}

/// Label for a [`PerfOutcome::escalation_depth`] value.
pub fn depth_label(depth: u8) -> &'static str {
    match depth {
        0 => "none",
        1 => "microreboot",
        2 => "app-restart",
        3 => "process-restart",
        _ => "os-reboot",
    }
}

/// Telemetry sink recording the performance plane's marks: when the
/// baseline froze, when the first anomaly fired, and every parity
/// restoration.
#[derive(Default)]
struct PerfMarks {
    baselines_frozen: u64,
    anomalies: u64,
    first_anomaly_at_us: Option<u64>,
    parity_restorations: u64,
    parity_after_us_max: Option<u64>,
    debug: bool,
}

impl TelemetrySink for PerfMarks {
    fn on_event(&mut self, event: &TelemetryEvent) {
        if self.debug
            && matches!(
                event,
                TelemetryEvent::PerfBaselineFrozen { .. }
                    | TelemetryEvent::LatencyAnomaly { .. }
                    | TelemetryEvent::ParityRestored { .. }
                    | TelemetryEvent::DegradedInjected { .. }
            )
        {
            eprintln!("    [perf] {event:?}");
        }
        match event {
            TelemetryEvent::PerfBaselineFrozen { components, .. } => {
                self.baselines_frozen += u64::from(*components);
            }
            TelemetryEvent::LatencyAnomaly { at, .. } => {
                self.anomalies += 1;
                self.first_anomaly_at_us.get_or_insert(at.as_micros());
            }
            TelemetryEvent::ParityRestored { after, .. } => {
                self.parity_restorations += 1;
                let us = after.as_micros();
                self.parity_after_us_max = Some(self.parity_after_us_max.map_or(us, |m| m.max(us)));
            }
            _ => {}
        }
    }
}

/// Short scenario description for reports.
pub fn describe(s: &Scenario) -> String {
    format!(
        "{}{}{}{} [{}{}]",
        fault_kind(&s.fault),
        s.second
            .map(|sf| format!("+2nd({})", fault_kind(&sf.fault)))
            .unwrap_or_default(),
        if s.flap.is_some() { "+flap" } else { "" },
        if s.rm_crash.is_some() { "+rmcrash" } else { "" },
        if s.comparison_detector {
            "cmp"
        } else {
            "simple"
        },
        if s.parallel_rm { ",par" } else { "" },
    )
}

/// Stable label for coverage accounting.
pub fn fault_kind(f: &Fault) -> &'static str {
    match f {
        Fault::Deadlock { .. } => "deadlock",
        Fault::InfiniteLoop { .. } => "infinite-loop",
        Fault::AppMemoryLeak { .. } => "app-memory-leak",
        Fault::TransientException { .. } => "transient-exception",
        Fault::Intermittent { .. } => "intermittent",
        Fault::SpuriousReports { .. } => "spurious-reports",
        Fault::CorruptPrimaryKeys { .. } => "corrupt-primary-keys",
        Fault::CorruptJndi { .. } => "corrupt-jndi",
        Fault::CorruptTxnMap { .. } => "corrupt-txn-map",
        Fault::CorruptBeanAttrs { .. } => "corrupt-bean-attrs",
        Fault::CorruptFastS { .. } => "corrupt-fasts",
        Fault::CorruptSsm => "corrupt-ssm",
        Fault::CorruptDb { .. } => "corrupt-db",
        Fault::MemLeakIntraJvm { .. } => "memleak-intra-jvm",
        Fault::MemLeakExtraJvm { .. } => "memleak-extra-jvm",
        Fault::BitFlipMemory => "bitflip-memory",
        Fault::BitFlipRegisters => "bitflip-registers",
        Fault::BadSyscalls => "bad-syscalls",
        Fault::Degraded { .. } => "degraded",
        Fault::BrickCrash { .. } => "brick-crash",
        Fault::BrickCorrupt { .. } => "brick-corrupt",
        Fault::LeaseStorm => "lease-storm",
        Fault::StoreSlow { .. } => "store-slow",
        Fault::LinkPartition { .. } => "link-partition",
        Fault::LinkLossy { .. } => "link-lossy",
        Fault::LinkDelay { .. } => "link-delay",
        Fault::LinkDupe { .. } => "link-dupe",
    }
}

/// The hardened recovery-manager configuration every campaign run uses:
/// storm damper, flap escalation and convergence watchdog all armed.
pub fn hardened_rm(parallel: bool) -> RmConfig {
    RmConfig {
        max_concurrent: if parallel { 4 } else { 1 },
        // A fault on a rarely-exercised op produces evidence at well under
        // one report per default window; a wider window lets sparse
        // evidence aggregate. Safe against self-flapping: scores are
        // cleared when an episode closes, and aftershocks are
        // settle-suppressed on ingest.
        score_window: SimDuration::from_secs(90),
        storm_limit: 3,
        storm_backoff: SimDuration::from_secs(10),
        flap_limit: 3,
        flap_window: SimDuration::from_secs(300),
        watchdog_bound: Some(SimDuration::from_secs(180)),
        ..RmConfig::default()
    }
}

/// How long a request may stay hung before it counts as stuck: the
/// server's TTL lease plus a couple of maintenance sweeps of slack. A
/// fault on a rarely-exercised component can legitimately outlive the
/// campaign horizon undetected (too few failures to cross the score
/// threshold — the Figure 5 sensitivity tradeoff); the system guarantee
/// is that the lease sweep still reaps every stuck thread on time.
fn hung_bound() -> SimDuration {
    urb_core::calib::REQUEST_TTL + SimDuration::from_secs(5)
}

/// True while recovery machinery is still busy on any node. With the
/// performance plane armed, a node out of latency parity counts as busy:
/// convergence means performance recovered, not merely liveness.
fn quiesced(sim: &Sim) -> bool {
    let w = sim.world();
    w.pool.perf().is_none_or(|p| p.anomalous_nodes().is_empty())
        && (0..w.nodes.len()).all(|n| {
            w.rm.as_ref().is_none_or(|rm| rm.in_flight(n) == 0)
                && w.conductor
                    .as_ref()
                    .is_none_or(|c| c.active_count(n) == 0 && c.queued_count(n) == 0)
                && w.nodes[n].is_up()
                && w.nodes[n]
                    .oldest_hung_age(sim.now())
                    .is_none_or(|age| age <= hung_bound())
        })
}

/// Structural convergence invariants shared by every campaign flavor:
/// the episode terminated (no decision in flight, no conductor ticket
/// active or queued), quarantine and failover redirects lifted, every
/// node back up, and no request stuck past the TTL sweep bound.
fn structural_violations(sim: &Sim) -> Vec<String> {
    let mut violations = Vec::new();
    let w = sim.world();
    for n in 0..w.nodes.len() {
        if let Some(rm) = &w.rm {
            let in_flight = rm.in_flight(n);
            if in_flight != 0 {
                violations.push(format!(
                    "node {n}: {in_flight} recovery decision(s) never acknowledged"
                ));
            }
        }
        if let Some(c) = &w.conductor {
            let (active, queued) = (c.active_count(n), c.queued_count(n));
            if active + queued != 0 {
                violations.push(format!(
                    "node {n}: conductor not idle: {active} active, {queued} queued ticket(s)"
                ));
            }
            let quarantined = c.quarantined(n);
            if !quarantined.is_empty() {
                violations.push(format!(
                    "node {n}: quarantine never lifted: {quarantined:?}"
                ));
            }
        }
        let lb_quarantined = w.lb.quarantined(n);
        if !lb_quarantined.is_empty() {
            violations.push(format!(
                "node {n}: LB quarantine never lifted: {lb_quarantined:?}"
            ));
        }
        if w.lb.is_redirecting(n) {
            violations.push(format!("node {n}: failover redirect never lifted"));
        }
        if !w.nodes[n].is_up() {
            violations.push(format!("node {n} down at end: {:?}", w.nodes[n].state()));
        }
        if let Some(age) = w.nodes[n].oldest_hung_age(sim.now()) {
            if age > hung_bound() {
                violations.push(format!(
                    "node {n}: request stuck in pipeline for {:.1}s, past the TTL sweep bound",
                    age.as_secs_f64()
                ));
            }
        }
    }
    violations
}

/// The sinks every campaign run hangs on its telemetry bus: the trace
/// digest, and the counters its invariants read.
pub(crate) struct RunSinks {
    hash: Rc<RefCell<TraceHashSink>>,
    metrics: Rc<RefCell<MetricsRegistry>>,
}

impl RunSinks {
    /// Attaches a fresh bus to `sim` carrying these sinks, then `extra`.
    pub(crate) fn attach(sim: &mut Sim, extra: Option<Box<dyn TelemetrySink>>) -> RunSinks {
        let sinks = RunSinks {
            hash: Rc::new(RefCell::new(TraceHashSink::new())),
            metrics: Rc::new(RefCell::new(MetricsRegistry::new())),
        };
        let bus = shared_bus();
        bus.borrow_mut().add_sink(Box::new(sinks.hash.clone()));
        bus.borrow_mut().add_sink(Box::new(sinks.metrics.clone()));
        if let Some(sink) = extra {
            bus.borrow_mut().add_sink(sink);
        }
        sim.attach_telemetry(bus);
        sinks
    }

    /// Runs the armed `sim` to quiescence: [`TAIL_S`] past
    /// `last_injection_s`, then 5 s slices until [`STABLE_SAMPLES`]
    /// samples in a row quiesce or [`GRACE_S`] runs out. Checks the
    /// structural invariants and reboot conservation, and returns the
    /// finished world, the end second, and the outcome so far (digest,
    /// counters, those violations).
    pub(crate) fn settle(&self, mut sim: Sim, last_injection_s: u64) -> (World, u64, RunOutcome) {
        let horizon_s = last_injection_s + TAIL_S;
        sim.run_until(SimTime::from_secs(horizon_s));
        let mut end_s = horizon_s;
        let mut stable = if quiesced(&sim) { 1 } else { 0 };
        while stable < STABLE_SAMPLES && end_s < horizon_s + GRACE_S {
            end_s += 5;
            sim.run_until(SimTime::from_secs(end_s));
            stable = if quiesced(&sim) { stable + 1 } else { 0 };
        }

        let mut violations = structural_violations(&sim);
        let world = sim.finish();
        let m = self.metrics.borrow();
        let (begun, finished) = (m.counter("reboots_begun"), m.counter("reboots_finished"));
        if begun != finished {
            violations.push(format!("{begun} reboot(s) begun but {finished} finished"));
        }
        let out = RunOutcome {
            digest: self.hash.borrow().value(),
            violations,
            failed_requests: m.counter("client_ops_failed"),
            total_ops: m.counter("client_ops"),
            retries_issued: world.pool.retries_issued(),
            reboots_begun: begun,
            reboot_cost_s: m
                .histogram("reboot_ms")
                .map_or(0.0, |h| h.mean().as_secs_f64() * h.count() as f64),
            pages: m.counter("decisions_notify_human"),
            store_evidence: world.rm.as_ref().map_or(0, RecoveryManager::store_evidence),
            ..RunOutcome::default()
        };
        (world, end_s, out)
    }
}

/// The availability invariant: sums the degraded-goodput seconds from
/// injection to `end_s` into `out.downtime_ms` and, on a run with no
/// violation so far, requires goodput over the last 30 s back at half
/// its pre-fault rate. Only for reboot-curable damage: the structural
/// invariants (termination, ack conservation, lifted quarantine) apply
/// to every run regardless.
pub(crate) fn check_availability(world: &World, s: &Scenario, end_s: u64, out: &mut RunOutcome) {
    let taw = world.pool.taw_ref();
    let pre_rate = if s.inject_at_s > 3 {
        taw.good_in(3, s.inject_at_s) / (s.inject_at_s - 3) as f64
    } else {
        0.0
    };
    let degraded_below = (0.5 * pre_rate).max(1.0);
    for t in s.inject_at_s..end_s {
        if taw.good_in(t, t + 1) < degraded_below {
            out.downtime_ms += 1000;
        }
    }
    let curable = campaign::goodput_recovers(&s.fault)
        && s.second
            .is_none_or(|sf| campaign::goodput_recovers(&sf.fault));
    if curable && s.inject_at_s > 4 && out.violations.is_empty() {
        let post_rate = taw.good_in(end_s - 30, end_s) / 30.0;
        if pre_rate > 0.0 && post_rate < 0.5 * pre_rate {
            out.violations.push(format!(
                "goodput never recovered: {post_rate:.1} op/s at end vs {pre_rate:.1} op/s pre-fault"
            ));
        }
    }
}

/// Executes one scenario under `opts` and checks every invariant.
pub fn run_scenario(s: &Scenario, opts: &RunOptions) -> RunOutcome {
    // SSM corruption needs the SSM backend to exist; everything else runs
    // on the default node-private FastS store.
    let wants_ssm = matches!(s.fault, Fault::CorruptSsm)
        || s.second
            .is_some_and(|sf| matches!(sf.fault, Fault::CorruptSsm));
    let mut sim = Sim::new(SimConfig {
        nodes: opts.nodes,
        clients_per_node: opts.clients,
        store: if wants_ssm {
            StoreChoice::Ssm
        } else {
            StoreChoice::FastS
        },
        detector: if opts.perf.is_some() {
            DetectorKind::LatencyAnomaly
        } else if s.comparison_detector {
            DetectorKind::Comparison
        } else {
            DetectorKind::Simple
        },
        perf: opts.perf,
        rm: Some(hardened_rm(s.parallel_rm)),
        conductor: s.parallel_rm.then(ConductorConfig::default),
        policy: opts.policy,
        failover: opts.failover,
        seed: s.sim_seed,
        ..SimConfig::default()
    });
    let marks = Rc::new(RefCell::new(PerfMarks {
        debug: opts.debug,
        ..PerfMarks::default()
    }));
    let extra = opts
        .perf
        .map(|_| Box::new(marks.clone()) as Box<dyn TelemetrySink>);
    let sinks = RunSinks::attach(&mut sim, extra);

    sim.schedule_fault(SimTime::from_secs(s.inject_at_s), 0, s.fault);
    let mut last_injection_s = s.inject_at_s;
    if let Some(second) = s.second {
        sim.schedule_fault(SimTime::from_secs(second.at_s), 0, second.fault);
        last_injection_s = last_injection_s.max(second.at_s);
    }
    if let Some(crash) = s.rm_crash {
        sim.schedule_rm_crash(
            SimTime::from_secs(crash.at_s),
            SimDuration::from_secs(crash.outage_s),
        );
        last_injection_s = last_injection_s.max(crash.at_s + crash.outage_s);
    }
    if let Some(flap) = s.flap {
        let fault = s.fault;
        for k in 1..=u64::from(flap.recurrences) {
            let at_s = s.inject_at_s + k * flap.gap_s;
            last_injection_s = last_injection_s.max(at_s);
            // Re-arm through the escape hatch: a flapping fault recurs
            // only on a live server (re-injecting into a mid-reboot node
            // would be cured by the reboot's own state teardown anyway).
            sim.schedule_fn(SimTime::from_secs(at_s), move |w, q| {
                if !w.nodes[0].is_up() {
                    return;
                }
                let now = q.now();
                w.log.push(LogEvent::FaultInjected {
                    at: now,
                    node: 0,
                    label: format!("flap re-arm {fault:?}"),
                });
                let killed = faults::inject(&mut w.nodes[0], &fault, now);
                debug_assert!(
                    killed.is_empty(),
                    "flappable faults kill nothing on injection"
                );
            });
        }
    }

    let (world, end_s, mut out) = sinks.settle(sim, last_injection_s);
    if opts.debug {
        for ev in &world.log {
            println!("  {ev:?}");
        }
    }
    check_availability(&world, s, end_s, &mut out);

    // Performance-parity invariants (degraded campaigns): the fail-slow
    // fault must be *detected* (baseline frozen pre-injection, at least
    // one anomaly raised) and *cured* (parity restored, no node still
    // out of parity at quiescence) — the ladder has to climb out of slow
    // states, not just dead ones.
    let violations = &mut out.violations;
    out.perf = opts.perf.map(|_| {
        let m = marks.borrow();
        let reg = sinks.metrics.borrow();
        if m.baselines_frozen == 0 {
            violations.push("perf baseline never froze before injection".into());
        }
        if m.anomalies == 0 {
            violations.push("fail-slow fault never raised a latency anomaly".into());
        }
        // A detector that fires before any fault exists is crying wolf;
        // the statistical guards (absolute-delta floor, confirmation
        // debounce) exist precisely so this cannot happen.
        if let Some(first) = m.first_anomaly_at_us {
            if first < s.inject_at_s * 1_000_000 {
                violations.push(format!(
                    "latency anomaly at {first} us predates the fault (false positive)"
                ));
            }
        }
        if m.parity_restorations == 0 {
            violations.push("performance parity never restored".into());
        }
        if let Some(p) = world.pool.perf() {
            let still = p.anomalous_nodes();
            if !still.is_empty() {
                violations.push(format!("node(s) {still:?} still out of parity at end"));
            }
        }
        let depth_counters = [
            "reboots_begun_component",
            "reboots_begun_application",
            "reboots_begun_process",
            "reboots_begun_os",
        ];
        let escalation_depth = depth_counters
            .iter()
            .enumerate()
            .filter(|(_, name)| reg.counter(name) > 0)
            .map(|(i, _)| i as u8 + 1)
            .max()
            .unwrap_or(0);
        PerfOutcome {
            baselines_frozen: m.baselines_frozen,
            anomalies: m.anomalies,
            detection_latency_ms: m
                .first_anomaly_at_us
                .map(|us| us.saturating_sub(s.inject_at_s * 1_000_000) / 1000),
            parity_after_ms: m.parity_after_us_max.map(|us| us / 1000),
            escalation_depth,
        }
    });
    out
}

// ---- the campaign loop ---------------------------------------------------

/// A campaign run that broke an invariant.
#[derive(Debug)]
pub struct Failure {
    /// The scenario's run index.
    pub run: u64,
    /// The scenario, as [`describe`] prints it.
    pub scenario: String,
    /// What it violated.
    pub violations: Vec<String>,
}

/// What [`run_campaign`] folded over a campaign.
pub struct Campaign {
    /// FNV fold of every run's `CampaignRunDone` event: the campaign
    /// digest.
    pub hash: TraceHashSink,
    /// The same events' counters (`campaign_runs_done`,
    /// `campaign_violations`).
    pub metrics: MetricsRegistry,
    /// Every run with a violation, in run order.
    pub failures: Vec<Failure>,
}

/// The one campaign loop every `urb-chaos` mode runs. Each scenario goes
/// through `run(s, true)`; under `strict` it goes through `run(s, false)`
/// a second time and a digest mismatch is recorded as a
/// `nondeterministic` violation. The run's `CampaignRunDone` event is
/// folded into the campaign digest and counters, the scenario and its
/// final outcome go to `each` (the mode's own aggregation and verbose
/// line), and a run with violations joins the failure list.
pub fn run_campaign(
    scenarios: &[Scenario],
    strict: bool,
    mut run: impl FnMut(&Scenario, bool) -> RunOutcome,
    mut each: impl FnMut(&Scenario, &RunOutcome),
) -> Campaign {
    let mut c = Campaign {
        hash: TraceHashSink::new(),
        metrics: MetricsRegistry::new(),
        failures: Vec::new(),
    };
    for s in scenarios {
        let mut out = run(s, true);
        if strict {
            let again = run(s, false);
            if again.digest != out.digest {
                out.violations.push(format!(
                    "nondeterministic: digest {:016x} vs {:016x} on re-run",
                    out.digest, again.digest
                ));
            }
        }
        let done = TelemetryEvent::CampaignRunDone {
            run: s.run,
            digest: out.digest,
            violations: out.violations.len() as u32,
        };
        c.hash.on_event(&done);
        c.metrics.on_event(&done);
        each(s, &out);
        if !out.violations.is_empty() {
            c.failures.push(Failure {
                run: s.run,
                scenario: describe(s),
                violations: out.violations,
            });
        }
    }
    c
}

/// A run's verdict for the verbose per-run lines.
pub fn verdict(violations: &[String]) -> String {
    if violations.is_empty() {
        "ok".into()
    } else {
        format!("VIOLATIONS: {}", violations.join("; "))
    }
}

// ---- policy tournament ---------------------------------------------------

/// One policy's aggregate score over the full scenario matrix. All four
/// frontier metrics are minimized.
#[derive(Clone, Debug)]
pub struct PolicyScore {
    /// The policy.
    pub policy: PolicyChoice,
    /// Total invariant violations across the matrix.
    pub violations: u64,
    /// Frontier metric: Σ zero-goodput milliseconds post-injection.
    pub downtime_ms: u64,
    /// Frontier metric: Σ failed client operations.
    pub failed_requests: u64,
    /// Frontier metric: Σ seconds of reboot activity.
    pub reboot_cost_s: f64,
    /// Frontier metric: Σ humans paged.
    pub pages: u64,
    /// FNV fold of every run's `CampaignRunDone` event.
    pub digest: u64,
    /// On the Pareto frontier (not dominated on all four metrics).
    pub pareto: bool,
}

/// Runs `scenarios` under every policy in `policies` on a two-node
/// failover cluster, one [`run_campaign`] per policy, and scores the
/// Pareto frontier over (downtime, failed requests, reboot cost, pages).
/// Also returns every failed run, its scenario prefixed by the policy.
pub fn tournament(
    scenarios: &[Scenario],
    policies: &[PolicyChoice],
    strict: bool,
    verbose: bool,
) -> (Vec<PolicyScore>, Vec<Failure>) {
    let mut failures = Vec::new();
    let mut scores: Vec<PolicyScore> = policies
        .iter()
        .map(|&policy| {
            let opts = RunOptions {
                nodes: 2,
                policy,
                failover: true,
                ..RunOptions::default()
            };
            let mut sum = RunOutcome::default();
            let c = run_campaign(
                scenarios,
                strict,
                |s, _| run_scenario(s, &opts),
                |s, out| {
                    if verbose {
                        println!(
                            "  {:<16} run {:>3}  {:<48} downtime {:>7} ms  {}",
                            policy.label(),
                            s.run,
                            describe(s),
                            out.downtime_ms,
                            verdict(&out.violations)
                        );
                    }
                    sum.downtime_ms += out.downtime_ms;
                    sum.failed_requests += out.failed_requests;
                    sum.reboot_cost_s += out.reboot_cost_s;
                    sum.pages += out.pages;
                },
            );
            failures.extend(c.failures.into_iter().map(|f| Failure {
                scenario: format!("{}: {}", policy.label(), f.scenario),
                ..f
            }));
            PolicyScore {
                policy,
                violations: c.metrics.counter("campaign_violations"),
                downtime_ms: sum.downtime_ms,
                failed_requests: sum.failed_requests,
                reboot_cost_s: sum.reboot_cost_s,
                pages: sum.pages,
                digest: c.hash.value(),
                pareto: false,
            }
        })
        .collect();
    mark_pareto(&mut scores);
    (scores, failures)
}

/// Marks each score's `pareto` flag: a policy is on the frontier iff no
/// other policy is at-least-as-good on all four metrics and strictly
/// better on one.
pub fn mark_pareto(scores: &mut [PolicyScore]) {
    let dominated = |a: &PolicyScore, b: &PolicyScore| {
        // b dominates a?
        let le = b.downtime_ms <= a.downtime_ms
            && b.failed_requests <= a.failed_requests
            && b.reboot_cost_s <= a.reboot_cost_s + f64::EPSILON
            && b.pages <= a.pages;
        let lt = b.downtime_ms < a.downtime_ms
            || b.failed_requests < a.failed_requests
            || b.reboot_cost_s + f64::EPSILON < a.reboot_cost_s
            || b.pages < a.pages;
        le && lt
    };
    let snapshot: Vec<PolicyScore> = scores.to_vec();
    for s in scores.iter_mut() {
        s.pareto = !snapshot
            .iter()
            .any(|other| other.policy != s.policy && dominated(s, other));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::campaign::{scenarios, CampaignConfig};

    fn outcome(digest: u64) -> RunOutcome {
        RunOutcome {
            digest,
            ..RunOutcome::default()
        }
    }

    #[test]
    fn a_digest_that_moves_on_the_rerun_is_one_nondeterminism_violation() {
        let scenarios = scenarios(&CampaignConfig { seed: 7, runs: 3 });
        let mut passes = Vec::new();
        let mut seen = Vec::new();
        let c = run_campaign(
            &scenarios,
            true,
            |s, first| {
                passes.push(first);
                // The second call is run 0's strict re-run.
                outcome(if passes.len() == 2 {
                    0xbad
                } else {
                    100 + s.run
                })
            },
            |s, out| seen.push((s.run, out.digest, out.violations.len() as u32)),
        );
        assert_eq!(passes, [true, false, true, false, true, false]);
        assert_eq!(seen, [(0, 100, 1), (1, 101, 0), (2, 102, 0)]);
        assert_eq!(c.failures.len(), 1);
        assert_eq!(
            (c.failures[0].run, &c.failures[0].scenario),
            (0, &describe(&scenarios[0]))
        );
        assert_eq!(
            c.failures[0].violations,
            [format!(
                "nondeterministic: digest {:016x} vs {:016x} on re-run",
                100, 0xbad
            )]
        );

        // The fold is a hand fold of the same `CampaignRunDone` events.
        let mut hash = TraceHashSink::new();
        let mut metrics = MetricsRegistry::new();
        for (run, digest, violations) in seen {
            let done = TelemetryEvent::CampaignRunDone {
                run,
                digest,
                violations,
            };
            hash.on_event(&done);
            metrics.on_event(&done);
        }
        assert_eq!(c.hash.value(), hash.value());
        for counter in ["campaign_runs_done", "campaign_violations"] {
            assert_eq!(c.metrics.counter(counter), metrics.counter(counter));
        }
        assert_eq!(c.metrics.counter("campaign_violations"), 1);
    }
}
