//! The three workloads: an untraced pass for the end-to-end metrics and
//! a traced pass for the per-layer metrics.

use std::cell::RefCell;
use std::path::PathBuf;
use std::process::Command;
use std::rc::Rc;
use std::time::Instant;

use cluster::Sim;
use faults::campaign::{self, CampaignConfig, Scenario};
use simcore::telemetry::{TelemetryEvent, TelemetrySink, TraceHashSink};
use simcore::trace::{strict_attribution, KernelGauges, Trace, TraceRecorder};
use simcore::MetricsRegistry;

use crate::alloc;
use crate::calib;
use crate::engine::{ns, Kind, Probe, Replay, Span};
use crate::pins::{Pinned, Pins};
use crate::report::{median, ratio, tail, Checks, Report};
use crate::runs::{self, build, drive, shared, RunSpec};

/// Scenarios per campaign (classic and netstate each).
pub const CAMPAIGN_RUNS: u64 = 8;
/// Consecutive seeds one `trace` repetition records.
pub const TRACE_SEEDS: u64 = 8;
/// Setup builds timed before each repetition of the untraced pass.
const SETUP_PER_REPETITION: usize = 3;
/// Calls behind each per-layer setup median.
const SETUP_BUILDS: usize = 15;
/// Telemetry events the traced pass keeps for the encode probe.
const ENCODE_SAMPLE: usize = 200_000;
/// Span buffer reserved before the traced pass starts counting.
const SPAN_RESERVE: usize = 1 << 19;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fault-free two-node cluster, long horizon.
    Steady,
    /// `urb-chaos` classic then netstate, strict, as child processes.
    Campaign,
    /// `urb-trace record` plus JSONL round trip and strict verify.
    Trace,
}

impl Workload {
    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Campaign => "campaign",
            Workload::Trace => "trace",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "steady" => Some(Workload::Steady),
            "campaign" => Some(Workload::Campaign),
            "trace" => Some(Workload::Trace),
            _ => None,
        }
    }
}

/// What a benchmark run is asked to do.
#[derive(Clone, Debug)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long the untraced pass repeats the workload's fixed work.
    pub seconds: f64,
    /// The `urb-chaos` executable (campaign workload).
    pub chaos_bin: Option<PathBuf>,
    /// The digest pins.
    pub pins: Pins,
}

impl Settings {
    fn classic_scenarios(&self) -> Vec<Scenario> {
        campaign::scenarios(&self.campaign_config())
    }

    fn netstate_scenarios(&self) -> Vec<Scenario> {
        campaign::netstate_scenarios(&self.campaign_config())
    }

    fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            seed: self.seed,
            runs: CAMPAIGN_RUNS,
        }
    }

    fn trace_seeds(&self) -> impl Iterator<Item = (u64, u64)> {
        let seed = self.seed;
        (0..TRACE_SEEDS).map(move |k| (k, seed.wrapping_add(k)))
    }

    /// What each checked slot of a repetition is pinned as.
    fn slots(&self) -> Vec<Pinned> {
        match self.workload {
            Workload::Steady => vec![Pinned::Steady],
            Workload::Trace => (0..TRACE_SEEDS).map(Pinned::Trace).collect(),
            Workload::Campaign => vec![Pinned::Classic, Pinned::Netstate],
        }
    }

    /// The run specs one setup median is taken over.
    fn setup_specs(&self) -> Vec<RunSpec> {
        match self.workload {
            Workload::Steady => vec![runs::steady(self.seed)],
            Workload::Trace => self.trace_seeds().map(|(_, s)| runs::trace(s)).collect(),
            Workload::Campaign => {
                let classic = self.classic_scenarios();
                let netstate = self.netstate_scenarios();
                classic
                    .iter()
                    .zip(&netstate)
                    .flat_map(|(c, n)| [runs::classic(c), runs::netstate(n)])
                    .collect()
            }
        }
    }
}

/// Runs `spec` untraced, with `sinks`, through `Sim::run_until`.
fn run_sim(spec: &RunSpec, sinks: Vec<Box<dyn TelemetrySink>>) -> Sim {
    let (mut sim, _ledger) = build(spec, sinks);
    crate::engine::schedule_on_sim(&mut sim, &spec.plan);
    drive(&mut sim, spec.stop);
    sim
}

// ---------------------------------------------------------------------------
// Untraced pass: end-to-end metrics.
// ---------------------------------------------------------------------------

/// One `trace` seed, untraced: record, write, parse, verify.
struct TraceResult {
    digest: u64,
    ok: bool,
    wall_ms: f64,
}

/// `urb-trace record`: the run, its kernel gauges, the trace.
fn record_trace(spec: &RunSpec) -> Trace {
    let (recorder, sink) = shared(TraceRecorder::new());
    let sim = run_sim(spec, vec![sink]);
    let mut reg = MetricsRegistry::new();
    sim.record_kernel_gauges(&mut reg, None);
    sim.finish();
    let mut trace = Trace::from_events(recorder.borrow().events().to_vec());
    trace.kernel = Some(gauges(&reg));
    trace
}

fn gauges(reg: &MetricsRegistry) -> KernelGauges {
    KernelGauges {
        events_fired: reg.gauge("des_events_fired") as u64,
        queue_depth: reg.gauge("des_queue_depth") as u64,
        sim_micros: (reg.gauge("sim_seconds") * 1e6).round() as u64,
    }
}

/// The JSONL round trip and strict verify of one recorded trace.
fn verify_trace(trace: &Trace, jsonl: &str) -> Result<Trace, String> {
    let parsed = Trace::parse(jsonl)?;
    if parsed.events != trace.events || parsed.digest != trace.digest {
        return Err("JSONL round trip changed the trace".into());
    }
    Ok(parsed)
}

fn strict_ok(parsed: &Trace) -> bool {
    parsed.recomputed_digest() == parsed.digest
        && strict_attribution(&parsed.events).is_fully_attributed()
}

/// One `trace` repetition: every seed recorded, written, parsed and
/// verified.
fn trace_unit(s: &Settings) -> Vec<TraceResult> {
    s.trace_seeds()
        .map(|(_, seed)| {
            let t0 = Instant::now();
            let trace = record_trace(&runs::trace(seed));
            let jsonl = trace.to_jsonl();
            let ok = verify_trace(&trace, &jsonl).is_ok_and(|p| strict_ok(&p));
            TraceResult {
                digest: trace.digest,
                ok,
                wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            }
        })
        .collect()
}

/// One strict campaign child: `(campaign digest, invariants held)`.
fn chaos_child(bin: &PathBuf, mode: Option<&str>, seed: u64) -> Result<(u64, bool), String> {
    let mut cmd = Command::new(bin);
    if let Some(mode) = mode {
        cmd.arg(mode);
    }
    cmd.args(["--seed", &seed.to_string()]).args([
        "--runs",
        &CAMPAIGN_RUNS.to_string(),
        "--strict",
    ]);
    let out = cmd
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let marker = "campaign digest ";
    let line = stdout
        .lines()
        .find(|l| l.contains(marker))
        .ok_or_else(|| format!("urb-chaos {mode:?} printed no campaign digest"))?;
    // "... campaign digest <hex> over <n> run(s), <v> violation(s)"
    let rest = &line[line.find(marker).map_or(0, |i| i + marker.len())..];
    let mut words = rest.split_whitespace();
    let digest = words
        .next()
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("unreadable campaign digest line: {line}"))?;
    let runs: Option<u64> = words.nth(1).and_then(|n| n.parse().ok());
    let violations: Option<u64> = words.nth(1).and_then(|n| n.parse().ok());
    let ok = out.status.success() && runs == Some(CAMPAIGN_RUNS) && violations == Some(0);
    Ok((digest, ok))
}

/// Host seconds to build one ready simulation: `Sim::new`, hooks,
/// telemetry attached. Dropping the build is not timed.
fn time_build(spec: &RunSpec) -> f64 {
    let t0 = Instant::now();
    let built = build(spec, vec![Box::new(TraceHashSink::new())]);
    let dt = t0.elapsed().as_secs_f64();
    drop(built);
    dt
}

/// One repetition of a workload's fixed work, as its process reports it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Repetition {
    /// Host seconds of each part: one part, or for `campaign` the classic
    /// then the netstate child.
    pub walls: Vec<f64>,
    /// Host seconds of the `SETUP_PER_REPETITION` builds timed first.
    pub setup: Vec<f64>,
    /// Host seconds of the calibration loop before and after the work.
    pub cal: Vec<f64>,
    /// Per checked slot: the digest and whether its other checks (a
    /// campaign's invariants, a trace's round trip and strict verify)
    /// passed. Slots: the steady run; each trace seed; classic, netstate.
    pub results: Vec<(u64, bool)>,
}

impl Repetition {
    /// The line a repetition process prints.
    pub fn to_line(&self) -> String {
        let join = |xs: &[f64]| xs.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        let results: Vec<String> = self
            .results
            .iter()
            .map(|(d, ok)| format!("{d:016x}:{}", u8::from(*ok)))
            .collect();
        format!(
            "repetition walls={} setup={} cal={} results={}",
            join(&self.walls),
            join(&self.setup),
            join(&self.cal),
            results.join(",")
        )
    }

    /// Parses [`Repetition::to_line`]'s output.
    pub fn parse(line: &str) -> Result<Repetition, String> {
        let bad = || format!("unreadable repetition line: {line:?}");
        let mut fields = line.split_whitespace();
        if fields.next() != Some("repetition") {
            return Err(bad());
        }
        let mut value = |key: &str| {
            fields
                .next()
                .and_then(|f| f.strip_prefix(key))
                .ok_or_else(bad)
        };
        let floats = |v: &str| -> Result<Vec<f64>, String> {
            v.split(',').map(|x| x.parse().map_err(|_| bad())).collect()
        };
        let walls = floats(value("walls=")?)?;
        let setup = floats(value("setup=")?)?;
        let cal = floats(value("cal=")?)?;
        let results = value("results=")?
            .split(',')
            .map(|r| {
                let (d, ok) = r.split_once(':').ok_or_else(bad)?;
                let d = u64::from_str_radix(d, 16).map_err(|_| bad())?;
                Ok((d, ok == "1"))
            })
            .collect::<Result<_, String>>()?;
        Ok(Repetition {
            walls,
            setup,
            cal,
            results,
        })
    }

    /// Reference-host seconds per host second: the calibration
    /// reference over the mean of the two calibrations.
    fn scale(&self) -> f64 {
        calib::REFERENCE_S * self.cal.len() as f64 / self.cal.iter().sum::<f64>()
    }
}

/// Runs one repetition in this process: `SETUP_PER_REPETITION` timed
/// builds, then the workload's fixed work, bracketed by calibrations.
pub fn repetition(s: &Settings) -> Result<Repetition, String> {
    let specs = s.setup_specs();
    let mut cal = vec![calib::calibrate()];
    let setup = specs
        .iter()
        .cycle()
        .take(SETUP_PER_REPETITION)
        .map(time_build)
        .collect();
    let mut walls = Vec::new();
    let mut results = Vec::new();
    match s.workload {
        Workload::Steady => {
            let t0 = Instant::now();
            let (hash, sink) = shared(TraceHashSink::new());
            drop(run_sim(&runs::steady(s.seed), vec![sink]).finish());
            walls.push(t0.elapsed().as_secs_f64());
            let digest = hash.borrow().value();
            results.push((digest, true));
        }
        Workload::Trace => {
            let t0 = Instant::now();
            let traces = trace_unit(s);
            walls.push(t0.elapsed().as_secs_f64());
            results.extend(traces.iter().map(|t| (t.digest, t.ok)));
        }
        Workload::Campaign => {
            let bin = s
                .chaos_bin
                .as_ref()
                .ok_or("the campaign workload needs --chaos-bin")?;
            for mode in [None, Some("netstate")] {
                let t0 = Instant::now();
                results.push(chaos_child(bin, mode, s.seed)?);
                walls.push(t0.elapsed().as_secs_f64());
            }
        }
    }
    cal.push(calib::calibrate());
    Ok(Repetition {
        walls,
        setup,
        cal,
        results,
    })
}

/// Runs one repetition in a fresh process: this executable with
/// `--repetition`.
pub fn spawn_repetition(s: &Settings) -> Result<Repetition, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut cmd = Command::new(&exe);
    cmd.args(["--workload", s.workload.name()])
        .args(["--seed", &s.seed.to_string()])
        .args(["--seconds", "0", "--trace", "0", "--repetition"]);
    if let Some(bin) = &s.chaos_bin {
        cmd.arg("--chaos-bin").arg(bin);
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("repetition process failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Repetition::parse(stdout.lines().last().unwrap_or_default())
}

/// The untraced pass: repetitions from `next` until `s.seconds` have
/// passed (at least one), reported as medians of reference-host seconds
/// (see [`calib`]).
///
/// The benchmark runs every repetition in a fresh process
/// ([`spawn_repetition`]), as a user runs the program, so no one
/// process's memory layout sets every sample. `wall_s` is the sum over
/// parts of each part's median. Every slot's digest is checked against
/// its pin, or away from the pinned seed against the first repetition's.
pub fn end_to_end(
    s: &Settings,
    mut next: impl FnMut() -> Result<Repetition, String>,
) -> Result<Report, String> {
    let mut r = Report::default();
    let mut reps: Vec<Repetition> = Vec::new();
    let start = Instant::now();
    while reps.is_empty() || start.elapsed().as_secs_f64() < s.seconds {
        let rep = next()?;
        let first = reps.first().unwrap_or(&rep);
        if rep.results.len() != s.slots().len() || rep.walls.len() != first.walls.len() {
            return Err(format!("repetition reported the wrong shape: {rep:?}"));
        }
        for (slot, (&(digest, ok), pinned)) in rep.results.iter().zip(s.slots()).enumerate() {
            let want = s.pins.get(pinned, s.seed).unwrap_or(first.results[slot].0);
            r.checks.check(ok && digest == want, || {
                format!("{pinned:?} at seed {}: digest {digest:016x}, want {want:016x}, other checks passed: {ok}", s.seed)
            });
        }
        eprintln!("perfbench: {}", rep.to_line());
        reps.push(rep);
    }
    let parts = reps[0].walls.len();
    let part_median = |scaled: bool, p: usize| {
        let xs: Vec<f64> = reps
            .iter()
            .map(|rep| rep.walls[p] * if scaled { rep.scale() } else { 1.0 })
            .collect();
        median(&xs)
    };
    let setup_median = |scaled: bool| {
        let xs: Vec<f64> = reps
            .iter()
            .flat_map(|rep| {
                let k = if scaled { rep.scale() } else { 1.0 };
                rep.setup.iter().map(move |t| t * k)
            })
            .collect();
        median(&xs)
    };
    let cals: Vec<f64> = reps.iter().flat_map(|rep| rep.cal.clone()).collect();
    eprintln!(
        "perfbench: {} repetition(s); raw host seconds: wall {:.4}, setup {:.5}, calibration {:.4} (reference {})",
        reps.len(),
        (0..parts).map(|p| part_median(false, p)).sum::<f64>(),
        setup_median(false),
        median(&cals),
        calib::REFERENCE_S,
    );
    r.put(
        "wall_s",
        (0..parts).map(|p| part_median(true, p)).sum(),
        "s",
    );
    r.put("setup_s", setup_median(true), "s");
    Ok(r)
}

// ---------------------------------------------------------------------------
// Traced pass: per-layer metrics.
// ---------------------------------------------------------------------------

/// Counts work the layers report on the telemetry bus.
#[derive(Debug, Default)]
struct WorkCounts {
    client_ops: u64,
    client_ops_failed: u64,
    decisions: u64,
    reboots: u64,
    failovers: u64,
}

impl TelemetrySink for WorkCounts {
    fn on_event(&mut self, event: &TelemetryEvent) {
        match event {
            TelemetryEvent::ClientOp { ok, .. } => {
                self.client_ops += 1;
                self.client_ops_failed += u64::from(!ok);
            }
            TelemetryEvent::RecoveryDecision { .. } => self.decisions += 1,
            TelemetryEvent::RebootBegun { .. } => self.reboots += 1,
            TelemetryEvent::LbFailover { .. } => self.failovers += 1,
            _ => {}
        }
    }
}

/// Keeps the first `ENCODE_SAMPLE` telemetry events for the encode probe.
struct Sample(Vec<TelemetryEvent>);

impl TelemetrySink for Sample {
    fn on_event(&mut self, event: &TelemetryEvent) {
        if self.0.len() < ENCODE_SAMPLE {
            self.0.push(*event);
        }
    }
}

/// The digest a run is judged by.
enum Digest {
    Hash(Rc<RefCell<TraceHashSink>>),
    Record(Rc<RefCell<TraceRecorder>>),
}

impl Digest {
    fn value(&self) -> u64 {
        match self {
            Digest::Hash(h) => h.borrow().value(),
            Digest::Record(r) => r.borrow().digest(),
        }
    }
}

/// The sinks the program attaches for this workload's runs.
fn program_sinks(w: Workload) -> (Digest, Vec<Box<dyn TelemetrySink>>) {
    match w {
        Workload::Trace => {
            let (rec, sink) = shared(TraceRecorder::new());
            (Digest::Record(rec), vec![sink])
        }
        Workload::Steady => {
            let (hash, sink) = shared(TraceHashSink::new());
            (Digest::Hash(hash), vec![sink])
        }
        Workload::Campaign => {
            let (hash, sink) = shared(TraceHashSink::new());
            (
                Digest::Hash(hash),
                vec![sink, Box::new(MetricsRegistry::new())],
            )
        }
    }
}

/// Everything the traced pass adds up.
struct Pass {
    probe: Probe,
    counts: Rc<RefCell<WorkCounts>>,
    sample: Rc<RefCell<Sample>>,
    kinds: [KindTotals; 9],
    wake_client_lb_ns: u64,
    wake_server_ns: u64,
    events: u64,
    setup_ns: u64,
    builds: u64,
    sim_s: f64,
    write_ns: u64,
    parse_ns: u64,
    verify_ns: u64,
    jsonl_bytes: u64,
    commit_intents: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct KindTotals {
    count: u64,
    self_ns: u64,
    allocs: u64,
    bytes: u64,
}

/// One traced run's outcome: its digest, and its trace on `trace`.
struct Replayed {
    digest: u64,
    trace: Option<Trace>,
}

impl Pass {
    fn new() -> Self {
        Pass {
            probe: Probe::new(SPAN_RESERVE),
            counts: Rc::new(RefCell::new(WorkCounts::default())),
            sample: Rc::new(RefCell::new(Sample(Vec::with_capacity(ENCODE_SAMPLE)))),
            kinds: [KindTotals::default(); 9],
            wake_client_lb_ns: 0,
            wake_server_ns: 0,
            events: 0,
            setup_ns: 0,
            builds: 0,
            sim_s: 0.0,
            write_ns: 0,
            parse_ns: 0,
            verify_ns: 0,
            jsonl_bytes: 0,
            commit_intents: 0,
        }
    }

    /// Runs `spec` through the stepping driver with every span recorded.
    fn replay(&mut self, w: Workload, spec: &RunSpec) -> Replayed {
        let t0 = Instant::now();
        let (digest, mut sinks) = program_sinks(w);
        sinks.push(Box::new(self.counts.clone()));
        sinks.push(Box::new(self.sample.clone()));
        let timed = self.probe.sinks(sinks);
        let (sim, ledger) = build(spec, vec![Box::new(timed)]);
        let mut replay = Replay::new(sim, &spec.cfg, &spec.plan, Some(&mut self.probe));
        self.setup_ns += ns(t0.elapsed());
        self.builds += 1;
        let end = drive(&mut replay, spec.stop);
        let (events, pending) = (replay.events(), replay.pending());
        drop(replay.finish());
        self.sim_s += end.as_secs_f64();
        self.commit_intents += ledger.map_or(0, |l| l.borrow().total_intents());
        let trace = match &digest {
            Digest::Record(rec) => {
                let mut trace = Trace::from_events(rec.borrow().events().to_vec());
                trace.kernel = Some(KernelGauges {
                    events_fired: events,
                    queue_depth: pending as u64,
                    sim_micros: end.as_micros(),
                });
                Some(trace)
            }
            Digest::Hash(_) => None,
        };
        self.fold_spans();
        Replayed {
            digest: digest.value(),
            trace,
        }
    }

    /// Folds the probe's spans into the per-kind totals and empties it.
    fn fold_spans(&mut self) {
        for sp in self.probe.spans.drain(..) {
            let Span {
                kind,
                dur_ns,
                sink_ns,
                split_ns,
                allocs,
                bytes,
                ..
            } = sp;
            let k = &mut self.kinds[kind as usize];
            k.count += 1;
            k.self_ns += dur_ns.saturating_sub(sink_ns);
            k.allocs += allocs;
            k.bytes += bytes;
            self.events += 1;
            if kind == Kind::Wake {
                let split = split_ns.unwrap_or(dur_ns).min(dur_ns);
                self.wake_client_lb_ns += split;
                self.wake_server_ns += dur_ns - split;
            }
        }
    }

    /// Times the trace's JSONL write, parse and strict verify, and checks
    /// them.
    fn jsonl(&mut self, trace: &Trace) -> bool {
        let t0 = Instant::now();
        let text = trace.to_jsonl();
        let t1 = Instant::now();
        let parsed = verify_trace(trace, &text);
        let t2 = Instant::now();
        let ok = parsed.is_ok_and(|p| strict_ok(&p));
        let t3 = Instant::now();
        self.write_ns += ns(t1 - t0);
        self.parse_ns += ns(t2 - t1);
        self.verify_ns += ns(t3 - t2);
        self.jsonl_bytes += text.len() as u64;
        ok
    }
}

/// Median nanoseconds per event of the synthetic kernel chain
/// (`bench::kernel`), over five slices.
fn kernel_dispatch_ns() -> f64 {
    let per_event: Vec<f64> = (0..5)
        .map(|_| {
            let (t, _) = bench::kernel::run_arena(10_000, 200_000);
            t.wall.as_secs_f64() * 1e9 / t.events as f64
        })
        .collect();
    median(&per_event)
}

/// Median nanoseconds `encode_into` takes per event over `events`.
fn encode_ns(events: &[TelemetryEvent]) -> f64 {
    if events.is_empty() {
        return 0.0;
    }
    let mut buf = Vec::with_capacity(256);
    let per_event: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for ev in events {
                buf.clear();
                ev.encode_into(&mut buf);
                std::hint::black_box(&buf);
            }
            t0.elapsed().as_secs_f64() * 1e9 / events.len() as f64
        })
        .collect();
    median(&per_event)
}

/// Median host seconds of `f` over `SETUP_BUILDS` calls.
fn median_time<T>(mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..SETUP_BUILDS)
        .map(|_| {
            let t0 = Instant::now();
            let out = f();
            let dt = t0.elapsed().as_secs_f64();
            drop(out);
            dt
        })
        .collect();
    median(&times)
}

/// The untraced reference of the traced pass: the same runs through
/// `Sim::run_until`, timed, with their digests.
struct Reference {
    wall_s: f64,
    digests: Vec<u64>,
    run_ms: Vec<f64>,
}

fn reference(s: &Settings, checks: &mut Checks) -> Reference {
    let t0 = Instant::now();
    let mut run_ms = Vec::new();
    let digests = match s.workload {
        Workload::Steady => {
            let (hash, sink) = shared(TraceHashSink::new());
            drop(run_sim(&runs::steady(s.seed), vec![sink]).finish());
            run_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let digest = hash.borrow().value();
            vec![digest]
        }
        Workload::Trace => {
            let results = trace_unit(s);
            run_ms.extend(results.iter().map(|r| r.wall_ms));
            results.iter().map(|r| r.digest).collect()
        }
        Workload::Campaign => {
            let mut digests = Vec::new();
            let campaigns = [
                (Pinned::Classic, s.classic_scenarios()),
                (Pinned::Netstate, s.netstate_scenarios()),
            ];
            for (pinned, scenarios) in campaigns {
                // The campaign digest, folded as `urb-chaos` folds it.
                let mut fold = TraceHashSink::new();
                let mut violated = Vec::new();
                for sc in &scenarios {
                    let t = Instant::now();
                    let (digest, violations) = if pinned == Pinned::Classic {
                        let out =
                            bench::chaos::run_scenario(sc, &bench::chaos::RunOptions::default());
                        (out.digest, out.violations)
                    } else {
                        let out = bench::netstate::run_netstate_scenario(sc);
                        (out.digest, out.violations)
                    };
                    run_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    fold.on_event(&TelemetryEvent::CampaignRunDone {
                        run: sc.run,
                        digest,
                        violations: violations.len() as u32,
                    });
                    if !violations.is_empty() {
                        violated.push(format!("run {}: {violations:?}", sc.run));
                    }
                    digests.push(digest);
                }
                let pin = s.pins.get(pinned, s.seed);
                let campaign = fold.value();
                checks.check(violated.is_empty() && pin.is_none_or(|p| p == campaign), || {
                    format!("{pinned:?} campaign: digest {campaign:016x}, pin {pin:x?}, violations {violated:?}")
                });
            }
            digests
        }
    };
    Reference {
        wall_s: t0.elapsed().as_secs_f64(),
        digests,
        run_ms,
    }
}

/// Refuses a traced pass whose runs did not reproduce the untraced
/// digests, run for run.
pub fn require_same_digests(traced: &[u64], untraced: &[u64]) -> Result<(), String> {
    if traced == untraced {
        return Ok(());
    }
    let diverged: Vec<String> = traced
        .iter()
        .zip(untraced)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, (a, b))| format!("run {i}: traced {a:016x}, untraced {b:016x}"))
        .collect();
    Err(format!(
        "the traced pass diverged from the untraced run ({} traced, {} untraced runs): {}",
        traced.len(),
        untraced.len(),
        diverged.join("; ")
    ))
}

/// The traced pass. Fails, reporting nothing, unless every traced run
/// reproduced its untraced digest.
pub fn per_layer(s: &Settings) -> Result<Report, String> {
    let mut r = Report::default();
    let reference = reference(s, &mut r.checks);

    let mut pass = Pass::new();
    let origin = Instant::now();
    let heap_base = alloc::live_bytes();
    alloc::enable();
    let mut scenario_gen_ns = 0;
    let mut digests = Vec::new();
    match s.workload {
        Workload::Steady => {
            digests.push(pass.replay(s.workload, &runs::steady(s.seed)).digest);
        }
        Workload::Trace => {
            for (k, seed) in s.trace_seeds() {
                let out = pass.replay(s.workload, &runs::trace(seed));
                let trace = out.trace.expect("trace runs record");
                let ok = pass.jsonl(&trace);
                let pin = s.pins.get(Pinned::Trace(k), s.seed);
                r.checks.check(ok && pin.is_none_or(|p| p == out.digest), || {
                    format!("trace seed {seed}: digest {:016x}, pin {pin:x?}, round trip and strict verify passed: {ok}", out.digest)
                });
                digests.push(out.digest);
            }
        }
        Workload::Campaign => {
            let t0 = Instant::now();
            let classic = s.classic_scenarios();
            let netstate = s.netstate_scenarios();
            scenario_gen_ns = ns(t0.elapsed());
            for sc in &classic {
                digests.push(pass.replay(s.workload, &runs::classic(sc)).digest);
            }
            for sc in &netstate {
                digests.push(pass.replay(s.workload, &runs::netstate(sc)).digest);
            }
        }
    }
    let heap_peak = alloc::peak_bytes() - heap_base;
    alloc::disable();
    let traced_wall_s = origin.elapsed().as_secs_f64();

    require_same_digests(&digests, &reference.digests)?;
    if s.workload == Workload::Steady {
        let pin = s.pins.get(Pinned::Steady, s.seed);
        let d = digests[0];
        r.checks.check(pin.is_none_or(|p| p == d), || {
            format!("steady: digest {d:016x}, pin {pin:x?}")
        });
    }

    // Per event kind.
    let mut self_total_ns = 0;
    for (kind, t) in Kind::ALL.iter().zip(&pass.kinds) {
        let n = kind.name();
        r.put(format!("{n}.count"), t.count as f64, "count");
        r.put(format!("{n}.self_s"), t.self_ns as f64 / 1e9, "s");
        r.put(
            format!("{n}.ns_per_event"),
            ratio(t.self_ns as f64, t.count as f64),
            "ns",
        );
        r.put(
            format!("{n}.allocs_per_event"),
            ratio(t.allocs as f64, t.count as f64),
            "count",
        );
        self_total_ns += t.self_ns;
    }
    r.put("wake.client_lb_s", pass.wake_client_lb_ns as f64 / 1e9, "s");
    r.put("wake.server_s", pass.wake_server_ns as f64 / 1e9, "s");

    // Kernel.
    r.put("kernel.events", pass.events as f64, "count");
    r.put("kernel.dispatch_ns_p50", kernel_dispatch_ns(), "ns");

    // Setup.
    let spec0 = s.setup_specs().swap_remove(0);
    r.put(
        "setup.dataset_s",
        median_time(|| spec0.cfg.dataset.generate(spec0.cfg.seed)),
        "s",
    );
    r.put(
        "setup.sim_new_s",
        median_time(|| Sim::new(spec0.cfg.clone())),
        "s",
    );
    r.put("setup.builds", pass.builds as f64, "count");
    r.put("setup.pass_s", pass.setup_ns as f64 / 1e9, "s");

    // Telemetry and trace.
    let sink_ns = pass.probe.sink_ns();
    r.put(
        "telemetry.events",
        pass.probe.telemetry_events() as f64,
        "count",
    );
    r.put("telemetry.sink_s", sink_ns as f64 / 1e9, "s");
    r.put(
        "telemetry.encode_ns_per_event",
        encode_ns(&pass.sample.borrow().0),
        "ns",
    );
    r.put("trace.jsonl_mb", pass.jsonl_bytes as f64 / 1e6, "MB");
    r.put("trace.write_s", pass.write_ns as f64 / 1e9, "s");
    r.put("trace.parse_s", pass.parse_ns as f64 / 1e9, "s");
    r.put("trace.verify_s", pass.verify_ns as f64 / 1e9, "s");

    // Runs (the campaign's scenarios; one run per trace seed; one steady
    // run), timed in the untraced reference.
    let run_ms = &reference.run_ms;
    let tail_ms = tail(run_ms);
    r.put("campaign.runs", run_ms.len() as f64, "count");
    r.put("campaign.run_ms_p50", median(run_ms), "ms");
    r.put("campaign.run_ms_tail", tail_ms, "ms");
    r.put("faults.scenario_gen_s", scenario_gen_ns as f64 / 1e9, "s");

    // Memory.
    let step_allocs: u64 = pass.kinds.iter().map(|k| k.allocs).sum();
    let step_bytes: u64 = pass.kinds.iter().map(|k| k.bytes).sum();
    r.put(
        "alloc.per_event",
        ratio(step_allocs as f64, pass.events as f64),
        "count",
    );
    r.put(
        "alloc.bytes_per_event",
        ratio(step_bytes as f64, pass.events as f64),
        "B",
    );
    r.put("heap.peak_mb", heap_peak.max(0) as f64 / 1e6, "MB");

    // Work counts.
    let c = pass.counts.borrow();
    r.put("workload.client_ops", c.client_ops as f64, "count");
    r.put(
        "workload.client_ops_failed",
        c.client_ops_failed as f64,
        "count",
    );
    r.put("recovery.decisions", c.decisions as f64, "count");
    r.put("recovery.reboots", c.reboots as f64, "count");
    r.put(
        "statestore.commit_intents",
        pass.commit_intents as f64,
        "count",
    );
    r.put("lb.failovers", c.failovers as f64, "count");

    // Accounting: traced wall = per-kind self + sinks + setup + JSONL +
    // what no span covers.
    let json_ns = pass.write_ns + pass.parse_ns + pass.verify_ns;
    let covered_ns = self_total_ns + sink_ns + pass.setup_ns + json_ns;
    r.put("sim.sim_s", pass.sim_s, "s");
    r.put(
        "sim.sim_s_per_wall_s",
        ratio(pass.sim_s, reference.wall_s),
        "ratio",
    );
    r.put("traced_wall_s", traced_wall_s, "s");
    r.put("untraced_wall_s", reference.wall_s, "s");
    r.put(
        "trace_overhead",
        ratio(traced_wall_s, reference.wall_s),
        "ratio",
    );
    r.put(
        "remainder_s",
        traced_wall_s - self_total_ns as f64 / 1e9,
        "s",
    );
    r.put("uncovered_s", traced_wall_s - covered_ns as f64 / 1e9, "s");
    Ok(r)
}
