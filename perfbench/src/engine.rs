//! The stepping driver: the same simulation as `Sim::run_until`, driven
//! one `EventQueue::step` at a time so each event can be timed.
//!
//! A [`Replay`] takes a `Sim` straight out of `Sim::new` (telemetry
//! attached, nothing scheduled yet), keeps its `World` via
//! `Sim::finish` at t=0, and rebuilds the constructor's schedule into a
//! queue of its own, in the constructor's order: the client pool's
//! initial wakes, the maintenance sweep at 1 s, the first RM poll at
//! 300 ms. The run's [`Injection`]s follow, applied to the replay queue
//! exactly as [`schedule_on_sim`] applies them to an untraced `Sim`, so
//! one plan describes both runs. Firing order is fixed by `(at, seq)`, so
//! an identical insertion order reproduces the untraced run bit-for-bit;
//! the traced run is only reported when its digest says it did.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use cluster::{LogEvent, ScheduleFn, Sim, SimConfig, SimEvent, SimQueue, World};
use ebid::catalog;
use faults::Fault;
use simcore::telemetry::{TelemetryEvent, TelemetrySink};
use simcore::{SimDuration, SimTime};
use workload::{ClientPool, ClientPoolConfig};

use crate::alloc;

/// Label of the stop sentinel the replay schedules at each deadline.
pub const STOP: &str = "perfbench-stop";

/// Something scheduled into a run after `Sim::new`, in plan order.
#[derive(Clone, Copy, Debug)]
pub enum Injection {
    /// `Sim::schedule_fault`.
    Fault {
        /// Injection time.
        at: SimTime,
        /// Target node.
        node: usize,
        /// The fault.
        fault: Fault,
    },
    /// `Sim::schedule_rm_crash`.
    RmCrash {
        /// Crash time.
        at: SimTime,
        /// Time until the RM's host is back.
        outage: SimDuration,
    },
    /// A flapping fault's re-arm on node 0, through the closure escape
    /// hatch (the classic campaign's flap schedule).
    Flap {
        /// Re-arm time.
        at: SimTime,
        /// The recurring fault.
        fault: Fault,
    },
}

/// The classic campaign's flap re-arm: a flapping fault recurs only on a
/// live server.
fn flap_rearm(fault: Fault) -> impl FnOnce(&mut World, &mut SimQueue) + 'static {
    move |w, q| {
        if !w.nodes[0].is_up() {
            return;
        }
        let now = q.now();
        w.log.push(LogEvent::FaultInjected {
            at: now,
            node: 0,
            label: format!("flap re-arm {fault:?}"),
        });
        faults::inject(&mut w.nodes[0], &fault, now);
    }
}

/// Applies `plan` to an untraced simulation.
pub fn schedule_on_sim(sim: &mut Sim, plan: &[Injection]) {
    for inj in plan {
        match *inj {
            Injection::Fault { at, node, fault } => sim.schedule_fault(at, node, fault),
            Injection::RmCrash { at, outage } => sim.schedule_rm_crash(at, outage),
            Injection::Flap { at, fault } => sim.schedule_fn(at, flap_rearm(fault)),
        }
    }
}

/// Applies `plan` to a replay queue, with the labels and insertion order
/// the `Sim` scheduling methods use.
pub fn schedule_on_queue(q: &mut SimQueue, plan: &[Injection]) {
    for inj in plan {
        match *inj {
            Injection::Fault { at, node, fault } => {
                q.schedule_event_at(at, "inject-fault", SimEvent::InjectFault { node, fault });
            }
            Injection::RmCrash { at, outage } => {
                q.schedule_event_at(at, "rm-crash", SimEvent::RmCrash);
                q.schedule_event_at(at + outage, "rm-reboot", SimEvent::RmReboot);
            }
            Injection::Flap { at, fault } => q.schedule_fn_at(at, flap_rearm(fault)),
        }
    }
}

/// The schedule `Sim::new` arms, rebuilt into `q`: the initial wakes of
/// a shadow client pool configured as `Sim::new` configures the real
/// one, then the maintenance sweep, then the first RM poll.
pub fn constructor_schedule(q: &mut SimQueue, cfg: &SimConfig) {
    let mut shadow = ClientPool::new(
        catalog(&cfg.dataset),
        ClientPoolConfig {
            clients: cfg.nodes * cfg.clients_per_node,
            detector: cfg.detector,
            retry_policy: cfg.retry_policy,
            seed: cfg.seed ^ 0x00c1_1e17,
            ..ClientPoolConfig::default()
        },
    );
    for (client, at) in shadow.initial_wakes(SimTime::ZERO) {
        q.schedule_event_at(at, "wake", SimEvent::Wake { client });
    }
    q.schedule_event_at(SimTime::from_secs(1), "maintenance", SimEvent::Maintenance);
    q.schedule_event_at(SimTime::from_millis(300), "rm-poll", SimEvent::RmPoll);
}

/// A simulation that can be advanced to a deadline and inspected: the
/// untraced `Sim` and the stepping [`Replay`] alike.
pub trait Engine {
    /// Runs every event due at or before `deadline`, then sets the clock
    /// to `deadline`.
    fn advance(&mut self, deadline: SimTime);
    /// The simulation world.
    fn world(&self) -> &World;
    /// The current simulated time.
    fn now(&self) -> SimTime;
}

impl Engine for Sim {
    fn advance(&mut self, deadline: SimTime) {
        self.run_until(deadline);
    }

    fn world(&self) -> &World {
        Sim::world(self)
    }

    fn now(&self) -> SimTime {
        Sim::now(self)
    }
}

/// What the replay's event kinds are called in the report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A client wakes, the LB routes, the server admits and runs handlers.
    Wake,
    /// A request's CPU service completes.
    Complete,
    /// A response (or a delayed request) crosses the LB↔node wire.
    Deliver,
    /// A client gives up on a request.
    Timeout,
    /// The per-second server maintenance sweep.
    Maintenance,
    /// The recovery manager's decision poll.
    RmPoll,
    /// Recovery and rejuvenation execution, policy holds, RM restart.
    Recovery,
    /// Fault injection, flap re-arms, heals and the RM crash.
    Fault,
    /// Any label this map does not know yet.
    Other,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 9] = [
        Kind::Wake,
        Kind::Complete,
        Kind::Deliver,
        Kind::Timeout,
        Kind::Maintenance,
        Kind::RmPoll,
        Kind::Recovery,
        Kind::Fault,
        Kind::Other,
    ];

    /// The metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Wake => "wake",
            Kind::Complete => "complete",
            Kind::Deliver => "deliver",
            Kind::Timeout => "timeout",
            Kind::Maintenance => "maintenance",
            Kind::RmPoll => "rm_poll",
            Kind::Recovery => "recovery",
            Kind::Fault => "fault",
            Kind::Other => "other",
        }
    }

    /// Classifies a kernel event label.
    pub fn of(label: &str) -> Kind {
        match label {
            "wake" => Kind::Wake,
            "complete" => Kind::Complete,
            "deliver" | "submit-delayed" => Kind::Deliver,
            "client-timeout" => Kind::Timeout,
            "maintenance" => Kind::Maintenance,
            "rm-poll" => Kind::RmPoll,
            "recovery-crash" | "recovery-done" | "command-recovery" | "policy-hold"
            | "rejuv-poll" | "rejuv-crash" | "rejuv-done" | "rm-reboot" => Kind::Recovery,
            "inject-fault" | "custom" | "edge-heal" | "brick-restore" | "rm-crash" => Kind::Fault,
            _ => Kind::Other,
        }
    }
}

/// One timed kernel event.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Event kind.
    pub kind: Kind,
    /// Duration of the `step` call.
    pub dur_ns: u64,
    /// Time spent inside telemetry sinks during the step (a child span).
    pub sink_ns: u64,
    /// For wakes: nanoseconds from the step's start to the first
    /// `RequestSubmitted` event (the client/LB → server boundary);
    /// `None` when the wake submitted nothing.
    pub split_ns: Option<u64>,
    /// Allocations during the step.
    pub allocs: u64,
    /// Bytes allocated during the step.
    pub bytes: u64,
}

/// Shared clocks between the [`Probe`] and its [`TimedSinks`].
#[derive(Default)]
struct Marks {
    /// First `RequestSubmitted` emission in the current step.
    submitted: Cell<Option<Instant>>,
    /// Nanoseconds spent in sinks so far.
    sink_ns: Cell<u64>,
    /// Events delivered to sinks so far.
    events: Cell<u64>,
}

/// Records one [`Span`] per kernel event into memory.
pub struct Probe {
    /// Spans recorded so far.
    pub spans: Vec<Span>,
    marks: Rc<Marks>,
}

impl Probe {
    /// A probe whose span buffer holds `capacity` events before growing.
    pub fn new(capacity: usize) -> Self {
        Probe {
            spans: Vec::with_capacity(capacity),
            marks: Rc::new(Marks::default()),
        }
    }

    /// Wraps `inner` so every sink call is timed and `RequestSubmitted`
    /// emissions are timestamped for this probe. Attach the result as the
    /// bus's only sink.
    pub fn sinks(&self, inner: Vec<Box<dyn TelemetrySink>>) -> TimedSinks {
        TimedSinks {
            wants: inner.iter().any(|s| s.wants_encoded()),
            inner,
            marks: self.marks.clone(),
        }
    }

    /// Nanoseconds spent inside telemetry sinks so far.
    pub fn sink_ns(&self) -> u64 {
        self.marks.sink_ns.get()
    }

    /// Telemetry events delivered to the sinks so far.
    pub fn telemetry_events(&self) -> u64 {
        self.marks.events.get()
    }

    fn step(&mut self, q: &mut SimQueue, w: &mut World) -> Option<&'static str> {
        self.marks.submitted.set(None);
        let sink0 = self.marks.sink_ns.get();
        let a0 = alloc::snapshot();
        let t0 = Instant::now();
        let label = q.step(w);
        let t1 = Instant::now();
        let a1 = alloc::snapshot();
        if let Some(l) = label.filter(|l| *l != STOP) {
            let kind = Kind::of(l);
            self.spans.push(Span {
                kind,
                dur_ns: ns(t1.duration_since(t0)),
                sink_ns: self.marks.sink_ns.get() - sink0,
                split_ns: match (kind, self.marks.submitted.get()) {
                    (Kind::Wake, Some(at)) => Some(ns(at.duration_since(t0))),
                    _ => None,
                },
                allocs: a1.allocs - a0.allocs,
                bytes: a1.bytes - a0.bytes,
            });
        }
        label
    }
}

/// Whole nanoseconds of `d`, saturating.
pub(crate) fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The traced run's sink set: times each delivery and stamps the first
/// `RequestSubmitted` of a step.
pub struct TimedSinks {
    inner: Vec<Box<dyn TelemetrySink>>,
    wants: bool,
    marks: Rc<Marks>,
}

impl TimedSinks {
    fn enter(&self, event: &TelemetryEvent) -> Instant {
        let t0 = Instant::now();
        if matches!(event, TelemetryEvent::RequestSubmitted { .. })
            && self.marks.submitted.get().is_none()
        {
            self.marks.submitted.set(Some(t0));
        }
        t0
    }

    fn leave(&self, t0: Instant) {
        self.marks
            .sink_ns
            .set(self.marks.sink_ns.get() + ns(t0.elapsed()));
        self.marks.events.set(self.marks.events.get() + 1);
    }
}

impl TelemetrySink for TimedSinks {
    fn on_event(&mut self, event: &TelemetryEvent) {
        let t0 = self.enter(event);
        for s in &mut self.inner {
            s.on_event(event);
        }
        self.leave(t0);
    }

    fn wants_encoded(&self) -> bool {
        self.wants
    }

    fn on_encoded(&mut self, event: &TelemetryEvent, bytes: &[u8]) {
        let t0 = self.enter(event);
        for s in &mut self.inner {
            if s.wants_encoded() {
                s.on_encoded(event, bytes);
            } else {
                s.on_event(event);
            }
        }
        self.leave(t0);
    }
}

/// The stepping driver over a world taken from `Sim::new`.
pub struct Replay<'p> {
    world: World,
    queue: SimQueue,
    probe: Option<&'p mut Probe>,
    events: u64,
}

impl<'p> Replay<'p> {
    /// Takes `sim` (fresh from `Sim::new`, hooks and telemetry attached,
    /// nothing scheduled) and rebuilds its schedule plus `plan`.
    pub fn new(
        sim: Sim,
        cfg: &SimConfig,
        plan: &[Injection],
        probe: Option<&'p mut Probe>,
    ) -> Self {
        let mut queue = SimQueue::new();
        constructor_schedule(&mut queue, cfg);
        schedule_on_queue(&mut queue, plan);
        Replay::from_parts(sim.finish(), queue, probe)
    }

    /// A replay over an explicit world and queue (tests use this to feed
    /// a deliberately wrong schedule).
    pub fn from_parts(world: World, queue: SimQueue, probe: Option<&'p mut Probe>) -> Self {
        Replay {
            world,
            queue,
            probe,
            events: 0,
        }
    }

    /// Kernel events fired so far, stop sentinels excluded.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Pending events (as `Sim::record_kernel_gauges` reports them).
    pub fn pending(&self) -> usize {
        self.queue.pending()
    }

    /// Ends the run as `Sim::finish` does: closes all open user actions
    /// and returns the world.
    pub fn finish(mut self) -> World {
        self.world.pool.taw().close_all();
        self.world
    }
}

impl Engine for Replay<'_> {
    /// Steps until the stop sentinel at `deadline` fires twice in a row.
    ///
    /// A sentinel scheduled at `deadline` fires after every event already
    /// queued for that instant; re-arming it after each firing lets
    /// events those handlers scheduled for the same instant run too. Two
    /// consecutive firings mean nothing at or before `deadline` is left,
    /// which is exactly where `run_until` stops. Sentinels add sequence
    /// numbers but never change the relative order of real events.
    fn advance(&mut self, deadline: SimTime) {
        let noop = || SimEvent::Custom(Box::new(|_: &mut World, _: &mut SimQueue| {}));
        self.queue.schedule_event_at(deadline, STOP, noop());
        let mut last_was_stop = false;
        loop {
            let label = match self.probe.as_deref_mut() {
                Some(p) => p.step(&mut self.queue, &mut self.world),
                None => self.queue.step(&mut self.world),
            };
            match label {
                Some(STOP) if last_was_stop => break,
                Some(STOP) => {
                    last_was_stop = true;
                    self.queue.schedule_event_at(deadline, STOP, noop());
                }
                Some(_) => {
                    last_was_stop = false;
                    self.events += 1;
                }
                None => unreachable!("the stop sentinel is always queued"),
            }
        }
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn now(&self) -> SimTime {
        self.queue.now()
    }
}
