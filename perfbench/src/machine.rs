//! The machine workloads: `paper-5cpu` and `idle-4cpu`.

use crate::clock::{self, RefClock};
use crate::report::{median, percentile, quantile, Report};
use firefly_core::check::CoherenceChecker;
use firefly_core::config::SystemConfig;
use firefly_core::stats::{BusStats, CacheStats};
use firefly_core::system::MemSystem;
use firefly_core::{PortId, ProtocolKind};
use firefly_cpu::processor::{EngineStats, Processor};
use firefly_cpu::{CpuConfig, CpuStats};
use firefly_model::Params;
use firefly_sim::{EngineMode, Firefly, FireflyBuilder};
use firefly_trace::{LocalityParams, SyntheticWorkload};
use serde::Serialize;
use std::time::{Duration, Instant};

/// One machine workload: a MicroVAX Firefly on the Firefly protocol with
/// the calibrated synthetic workload on every processor.
pub struct MachineSpec {
    cpus: usize,
    base_tpi: f64,
    /// Cycles run before anything is measured (caches fill).
    warmup: u64,
    /// The measured window; every simulated metric comes from it.
    window: u64,
    /// Host time is sampled once per chunk.
    chunk: u64,
    /// Set-ups (build + warm-up) per run; `setup_s` is their median.
    setups: usize,
    /// Snapshot save/restore round trips after the window (0 = none).
    snapshot_trips: usize,
    /// Whether the §5.2 model describes this machine.
    model: bool,
    /// Elasticity of the machine's host time to the reference kernel's
    /// ([`RefClock`]; NOTES.md, "Host time").
    beta: f64,
}

/// Elasticity of a snapshot round trip's host time to the reference
/// kernel's: it copies megabytes, and slows less than the kernel does.
const SNAPSHOT_BETA: f64 = 0.9;

/// The paper's Table 1 standard machine.
pub const PAPER: MachineSpec = MachineSpec {
    cpus: 5,
    base_tpi: 11.9,
    warmup: 1_000_000,
    window: 10_200_000,
    chunk: 300_000,
    setups: 7,
    snapshot_trips: 12,
    model: true,
    beta: 1.9,
};

/// Four processors with 100x the MicroVAX think time: nearly every
/// cycle is skipped by the event engine.
pub const IDLE: MachineSpec = MachineSpec {
    cpus: 4,
    base_tpi: 1_190.0,
    warmup: 20_000_000,
    window: 1_000_000_000,
    chunk: 40_000_000,
    setups: 25,
    snapshot_trips: 0,
    model: false,
    beta: 2.0,
};

impl MachineSpec {
    fn cpu_config(&self) -> CpuConfig {
        CpuConfig { base_tpi: self.base_tpi, ..CpuConfig::microvax() }
    }

    fn build(&self, seed: u64) -> Firefly {
        FireflyBuilder::microvax(self.cpus).cpu_config(self.cpu_config()).seed(seed).build()
    }

    /// The same machine assembled from its public parts, the way
    /// `FireflyBuilder::build` does it, for the traced run.
    fn assemble(&self, seed: u64) -> (Vec<Processor>, MemSystem) {
        let sys = MemSystem::new(SystemConfig::microvax(self.cpus), ProtocolKind::Firefly)
            .expect("the standard MicroVAX configuration is consistent");
        let cfg = self.cpu_config();
        let processors =
            SyntheticWorkload::fleet(self.cpus, LocalityParams::paper_calibrated(), seed)
                .into_iter()
                .enumerate()
                .map(|(i, w)| Processor::new(PortId::new(i), cfg, Box::new(w), seed ^ i as u64))
                .collect();
        (processors, sys)
    }
}

/// Counters at the start of the measured window.
struct Counters {
    cpu: Vec<CpuStats>,
    cache: Vec<CacheStats>,
    bus: BusStats,
}

impl Counters {
    fn take(procs: &[Processor], sys: &MemSystem) -> Self {
        Counters {
            cpu: procs.iter().map(|p| *p.stats()).collect(),
            cache: (0..procs.len()).map(|p| *sys.cache_stats(PortId::new(p))).collect(),
            bus: *sys.bus_stats(),
        }
    }
}

/// Simulated results over the measured window.
struct Window {
    instructions: u64,
    tpi: f64,
    stall_tpi: f64,
    load: f64,
    cache: CacheStats,
}

impl Window {
    fn finish(start: &Counters, procs: &[Processor], sys: &MemSystem, spec: &MachineSpec) -> Self {
        let mut cache = CacheStats::default();
        for (p, before) in start.cache.iter().enumerate() {
            cache += sys.cache_stats(PortId::new(p)).delta(before);
        }
        let sum = |f: fn(&CpuStats) -> u64| -> u64 {
            procs.iter().zip(&start.cpu).map(|(p, b)| f(p.stats()) - f(b)).sum()
        };
        let instructions = sum(|s| s.instructions);
        let cycles = sum(|s| s.cycles);
        let waits = sum(|s| s.memory_wait_cycles);
        let ticks = |c: u64| c as f64 / spec.cpu_config().cycles_per_tick() as f64;
        Window {
            instructions,
            tpi: ticks(cycles) / instructions as f64,
            stall_tpi: ticks(waits) / instructions as f64,
            load: sys.bus_stats().delta(&start.bus).load(),
            cache,
        }
    }

    fn model_err_pct(&self) -> f64 {
        let model = Params::microvax().tpi(self.load);
        (self.tpi - model).abs() / model * 100.0
    }
}

/// Every simulated counter and histogram, for `sim_digest` and for the
/// traced run's equality check.
fn state_json(procs: &[Processor], sys: &MemSystem) -> Vec<String> {
    let mut parts = vec![sys.cycle().to_json(), sys.bus_stats().to_json()];
    parts.extend((0..procs.len()).map(|p| sys.cache_stats(PortId::new(p)).to_json()));
    parts.extend(procs.iter().map(|p| p.stats().to_json()));
    parts.push(sys.latency_stats().to_json());
    parts.push(sys.fault_stats().to_json());
    parts
}

/// The end-of-run correctness check: drain the bus to a quiescent point
/// (no processor issues anything more), then check coherence and that no
/// fault surfaced an error.
fn check_final(sys: &mut MemSystem, label: &str, report: &mut Report) {
    for _ in 0..100_000 {
        if sys.is_quiescent() {
            break;
        }
        sys.step();
    }
    if !sys.is_quiescent() {
        report.problem(format!("{label}: bus did not drain within 100000 cycles"));
        return;
    }
    if let Err(e) = CoherenceChecker::new().check(sys) {
        report.problem(format!("{label}: coherence violated: {e}"));
    }
    let errors = sys.drain_fault_errors();
    report.check(errors.is_empty(), || format!("{label}: fault errors {errors:?}"));
}

/// Untraced run: `setup_s`, `host_mcycles_per_s`, `sim_tpi`,
/// `tpi_model_err_pct` and (paper only) `snapshot_mb_per_s`. Host time is
/// in reference seconds ([`RefClock`]), and each host metric is the median
/// over equal pieces of work.
pub fn run(spec: &MachineSpec, seed: u64, seconds: Duration, report: &mut Report) {
    let deadline = Instant::now() + seconds;
    let mut clock = RefClock::new();
    let mut setups = Vec::new();
    let mut machine = None;
    for _ in 0..spec.setups {
        let (m, s) = clock.time(spec.beta, || {
            let mut m = spec.build(seed);
            m.run(spec.warmup);
            m
        });
        setups.push(s);
        machine = Some(m);
    }
    let mut m = machine.expect("at least one set-up");
    report.check(m.engine() == EngineMode::EventDriven, || {
        "FIREFLY_ENGINE overrides the default event engine".to_string()
    });
    report.metric("setup_s", median(&setups));

    let mut rates = Vec::new();
    let mut chunk = |m: &mut Firefly, clock: &mut RefClock| {
        let ((), s) = clock.time(spec.beta, || m.run(spec.chunk));
        rates.push(spec.chunk as f64 / s / 1e6);
    };
    let start = Counters::take(m.processors(), m.memory());
    for _ in 0..spec.window / spec.chunk {
        chunk(&mut m, &mut clock);
    }
    let w = Window::finish(&start, m.processors(), m.memory(), spec);
    for part in state_json(m.processors(), m.memory()) {
        report.digest(&part);
    }
    report.attempted = w.instructions;
    report.metric("sim_tpi", w.tpi);
    if spec.model {
        report.metric("tpi_model_err_pct", w.model_err_pct());
    }
    println!("window: {} cycles, {} instructions, L = {:.4}", spec.window, w.instructions, w.load);

    if spec.snapshot_trips > 0 {
        let mut first = None;
        let mut mbps = Vec::new();
        for _ in 0..spec.snapshot_trips {
            let (trip, s) = clock.time(SNAPSHOT_BETA, || snapshot_trip(&mut m, &mut first, report));
            match trip {
                Some(trip) => mbps.push(trip.bytes as f64 / 1e6 / s),
                None => break,
            }
        }
        if !mbps.is_empty() {
            report.metric("snapshot_mb_per_s", median(&mbps));
        }
    }

    // Keep sampling host time on the warm machine until the budget is
    // spent; the simulated metrics above are already fixed.
    while Instant::now() < deadline {
        chunk(&mut m, &mut clock);
    }
    println!(
        "host samples: {} chunks of {} cycles; Mcycles/ref-s p10 {:.4} p50 {:.4} p90 {:.4}",
        rates.len(),
        spec.chunk,
        percentile(&rates, 0.1),
        percentile(&rates, 0.5),
        percentile(&rates, 0.9)
    );
    clock.print();
    report.metric("host_mcycles_per_s", median(&rates));
    check_final(m.memory_mut(), "machine", report);
}

/// Host seconds of one snapshot round trip.
struct Trip {
    bytes: usize,
    save: f64,
    load: f64,
}

/// Saves and restores the machine once; the image must be byte-identical
/// to `first`, the first image taken (a restore followed by a save is
/// exact). `None` if the restore failed.
fn snapshot_trip(
    m: &mut Firefly,
    first: &mut Option<Vec<u8>>,
    report: &mut Report,
) -> Option<Trip> {
    let t0 = Instant::now();
    let image = m.save_snapshot().expect("a machine without I/O checkpoints");
    let t1 = Instant::now();
    if let Err(e) = m.load_snapshot(&image) {
        report.problem(format!("snapshot restore failed: {e}"));
        return None;
    }
    let t2 = Instant::now();
    let trip =
        Trip { bytes: image.len(), save: (t1 - t0).as_secs_f64(), load: (t2 - t1).as_secs_f64() };
    match first {
        None => *first = Some(image),
        Some(f) => {
            report.check(*f == image, || "snapshot image changed across a round trip".into())
        }
    }
    Some(trip)
}

/// Host time of the traced run by layer, in clock ticks.
#[derive(Default)]
struct Spans {
    tick: u64,
    tick_calls: u64,
    step: u64,
    step_calls: u64,
    skip: u64,
    probes: u64,
}

/// `firefly_cpu::processor::drive_events`, re-stated with a span around
/// each call into the processor (`Processor::tick`), memory-system
/// (`MemSystem::step`) and idle-skip (`is_idle`, `idle_cycles`,
/// `advance_idle`) layers. It must reach the identical state.
fn drive_traced(
    procs: &mut [Processor],
    sys: &mut MemSystem,
    cycles: u64,
    spans: &mut Spans,
    engine: &mut EngineStats,
) {
    assert!(procs.len() <= 128, "the online mask holds 128 processors");
    let end = sys.cycle() + cycles;
    while sys.cycle() < end {
        let now = sys.cycle();
        let t_probe = clock::ticks();
        spans.probes += 1;
        let mut skipped_to_end = false;
        if sys.is_idle() {
            let mut horizon = end;
            let mut online = 0u128;
            let mut all_idle = true;
            for (i, p) in procs.iter().enumerate() {
                if sys.is_online(p.port()) {
                    let span = p.idle_cycles(sys);
                    if span == 0 {
                        all_idle = false;
                        break;
                    }
                    horizon = horizon.min(now.saturating_add(span));
                    online |= 1 << i;
                }
            }
            if all_idle {
                let span = horizon - now;
                if span > 0 {
                    for (i, p) in procs.iter_mut().enumerate() {
                        if online & (1 << i) != 0 {
                            p.advance_idle(span, sys);
                        }
                    }
                    sys.advance_idle(span);
                    engine.idle_skips += 1;
                    engine.cycles_skipped += span;
                    if horizon == end {
                        skipped_to_end = true;
                    } else {
                        engine.events_fired += 1;
                    }
                }
            }
        }
        spans.skip += clock::ticks() - t_probe;
        if skipped_to_end {
            continue;
        }
        let now = sys.cycle();
        let span = sys.busy_cycles_remaining().max(1).min(end - now);
        let mut t = clock::ticks();
        for _ in 0..span {
            for p in procs.iter_mut() {
                if sys.is_online(p.port()) {
                    p.tick(sys);
                    spans.tick_calls += 1;
                }
            }
            let t_ticked = clock::ticks();
            sys.step();
            let t_stepped = clock::ticks();
            spans.tick += t_ticked - t;
            spans.step += t_stepped - t_ticked;
            t = t_stepped;
        }
        spans.step_calls += span;
        engine.ticked_iterations += span;
    }
}

/// Traced run: the per-layer metrics. The machine is run twice over the
/// same warm-up and window: once as a `Firefly` (untraced) and once
/// assembled from its parts and driven by [`drive_traced`]. Both must
/// end in the same simulated state.
pub fn run_traced(spec: &MachineSpec, seed: u64, report: &mut Report) {
    let chunks = spec.window / spec.chunk;

    let t = Instant::now();
    let mut m = spec.build(seed);
    m.run(spec.warmup);
    for _ in 0..chunks {
        m.run(spec.chunk);
    }
    let untraced = t.elapsed().as_secs_f64();
    report.check(m.engine() == EngineMode::EventDriven, || {
        "FIREFLY_ENGINE overrides the default event engine".to_string()
    });

    let t = Instant::now();
    let calibration = clock::Calibration::start();
    let (mut procs, mut sys) = spec.assemble(seed);
    let mut spans = Spans::default();
    let mut engine = EngineStats::default();
    drive_traced(&mut procs, &mut sys, spec.warmup, &mut spans, &mut engine);
    let start = Counters::take(&procs, &sys);
    for _ in 0..chunks {
        drive_traced(&mut procs, &mut sys, spec.chunk, &mut spans, &mut engine);
    }
    let traced = t.elapsed().as_secs_f64();
    let ns = calibration.ns_per_tick();

    let reference = state_json(m.processors(), m.memory());
    for part in &reference {
        report.digest(part);
    }
    report.check(state_json(&procs, &sys) == reference, || {
        "traced run diverged from the untraced run (bus, cache, CPU or latency stats)".into()
    });
    report.check(engine == m.engine_stats(), || {
        format!("traced engine counters {engine:?} != untraced {:?}", m.engine_stats())
    });
    let w = Window::finish(&start, &procs, &sys, spec);
    report.attempted = w.instructions;

    let total =
        |f: fn(&CpuStats) -> u64| -> f64 { procs.iter().map(|p| f(p.stats())).sum::<u64>() as f64 };
    let per = |t: u64, n: u64| t as f64 * ns / n.max(1) as f64;
    report.metric("cpu.tick_ns", per(spans.tick, spans.step_calls));
    report.metric("cpu.tick_calls", spans.tick_calls as f64);
    report.metric("cpu.refs", total(CpuStats::board_refs));
    report.metric("cpu.instructions", total(|s| s.instructions));
    report.metric("cpu.mem_wait_cycles", total(|s| s.memory_wait_cycles));
    report.metric("cpu.skip_ns", per(spans.skip, spans.probes));
    report.metric("cpu.skip_probes", spans.probes as f64);
    report.metric("cpu.idle_skips", engine.idle_skips as f64);
    report.metric("cpu.ticked_iterations", engine.ticked_iterations as f64);
    report.metric("cpu.skip_cycle_frac", engine.cycles_skipped as f64 / sys.cycle() as f64);
    report.metric("core.step_ns", per(spans.step, spans.step_calls));
    report.metric("core.step_calls", spans.step_calls as f64);
    report.metric("core.cache.miss_rate", w.cache.miss_rate());
    report.metric("core.bus.load", w.load);
    report.metric("core.bus.fills", (w.cache.bus_reads + w.cache.bus_read_owned) as f64);
    report.metric("core.bus.wt_shared", w.cache.wt_shared as f64);
    report.metric("core.bus.wt_unshared", w.cache.wt_unshared as f64);
    report.metric("core.bus.victims", w.cache.victim_writes as f64);
    let lat = sys.latency_stats();
    report.metric("core.arb.wait_p50", quantile(&lat.bus_wait, 0.50));
    report.metric("core.arb.wait_p99", quantile(&lat.bus_wait, 0.99));
    report.metric("core.miss_penalty_p50", quantile(&lat.miss_penalty, 0.50));
    report.metric("core.miss_penalty_p99", quantile(&lat.miss_penalty, 0.99));
    report.metric("sim.tpi.base", w.tpi - w.stall_tpi);
    report.metric("sim.tpi.stall", w.stall_tpi);
    let model = Params { base_tpi: spec.base_tpi, ..Params::microvax() };
    report.metric("model.tpi.sm", model.sm(w.load));
    report.metric("model.tpi.sw", model.sw(w.load));
    report.metric("model.tpi.sp", model.sp(w.load));
    let explained = (spans.tick + spans.step + spans.skip) as f64 * ns * 1e-9;
    report.metric("trace.explained_frac", explained / traced);
    report.metric("trace.overhead", traced / untraced);
    report.metric("trace.wall_s", traced);
    report.metric("trace.untraced_wall_s", untraced);

    let mut first = None;
    let trips: Vec<Trip> =
        (0..spec.snapshot_trips).map_while(|_| snapshot_trip(&mut m, &mut first, report)).collect();
    if !trips.is_empty() {
        let ms =
            |f: fn(&Trip) -> f64| median(&trips.iter().map(|t| f(t) * 1e3).collect::<Vec<_>>());
        report.metric("core.snapshot.save_ms", ms(|t| t.save));
        report.metric("core.snapshot.restore_ms", ms(|t| t.load));
        report.metric("core.snapshot.bytes", trips[0].bytes as f64);
    }
    check_final(&mut sys, "traced machine", report);
    check_final(m.memory_mut(), "machine", report);
}
