//! The `fleet-storm-budgeted` workload: the retry storm of
//! `FleetConfig::retry_storm` under the budgeted retry discipline, an
//! open loop of Poisson arrivals, pooled over [`FLEETS`] fleets whose
//! seeds derive from the run's seed.
//!
//! One storm fleet acknowledges only a few hundred calls, and where its
//! storm starts depends on the seed, so a single fleet's host time and
//! call metrics move by tens of percent from seed to seed. The pool
//! averages that out.

use crate::clock::{self, RefClock};
use crate::report::{median, percentile, quantile, Report};
use firefly_core::stats::Histogram;
use firefly_net::rpc::{RpcClient, RpcServer};
use firefly_net::segment::{EtherSegment, SegmentConfig};
use firefly_sim::fleet::storm;
use firefly_sim::{goodput_mbps, Fleet, FleetConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Fleets per run. Over ten run seeds, the call metrics' quartile spread
/// is 0.03 to 0.05 with 48 fleets; with one fleet it is 0.2 to 0.4.
const FLEETS: u64 = 48;
/// Cycles run as set-up: the fleet reaches its steady baseline.
const WARMUP: u64 = storm::BASE_FROM;
/// The horizon: the whole scenario (baseline, slowdown, recovery).
const HORIZON: u64 = storm::RECOVERY_UNTIL;
/// Phase boundaries after the warm-up: baseline, slowdown, recovery.
const PHASES: [u64; 3] = [storm::SLOW_FROM, storm::SLOW_UNTIL, HORIZON];
/// Elasticity of the fleet's host time to the reference kernel's
/// ([`RefClock`]; NOTES.md, "Host time").
const BETA: f64 = 1.6;
/// Host time is taken once per slice of this many cycles (about 50 ms).
const SLICE: u64 = 800_000;

/// The config of fleet `i` of the pool for run seed `seed`.
fn config(seed: u64, i: u64) -> FleetConfig {
    // SplitMix64 of (seed, i): neighbouring run seeds share no fleet.
    let mut z = seed.wrapping_mul(FLEETS).wrapping_add(i).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    FleetConfig::retry_storm(z ^ (z >> 31), false)
}

/// Every simulated counter and histogram of the fleet.
fn state_json(f: &Fleet) -> Vec<String> {
    let cfg = f.config();
    let mut parts = vec![f.stats_json(), f.segment_stats().to_json(), f.latency().to_json()];
    parts.extend((0..cfg.clients).map(|i| f.client_stats(i).to_json()));
    parts.extend((0..cfg.servers).map(|i| f.server_stats(i).to_json()));
    parts
}

fn submitted(f: &Fleet) -> u64 {
    (0..f.config().clients).map(|i| f.client_stats(i).submitted).sum()
}

/// Checks one finished fleet, folds its state into `sim_digest`, and
/// returns its state.
fn check_fleet(f: &Fleet, report: &mut Report) -> Vec<String> {
    let violations = f.check_at_most_once();
    report.check(violations.is_empty(), || format!("at-most-once violated: {violations:?}"));
    let state = state_json(f);
    for part in &state {
        report.digest(part);
    }
    state
}

/// Untraced run: `setup_s`, `host_mcycles_per_s` and the simulated call
/// metrics. The pool runs once for the simulated metrics; then its fleets
/// run again, in order, until the time budget is spent, and each must
/// reach the state it reached the first time. Host time is in reference
/// seconds ([`RefClock`]), taken per [`SLICE`] cycles; the host rate is
/// the median over fleet runs.
pub fn run(seed: u64, seconds: Duration, report: &mut Report) {
    let deadline = Instant::now() + seconds;
    let mut clock = RefClock::new();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut states = Vec::new();
    let (mut latency, mut acked, mut calls, mut timely_bytes) = (Histogram::default(), 0, 0, 0);
    let mut runs = 0;
    while runs < FLEETS || Instant::now() < deadline {
        let i = runs % FLEETS;
        let (mut f, s) = clock.time(BETA, || {
            let mut f = Fleet::new(config(seed, i));
            f.run_until(WARMUP);
            f
        });
        setups.push(s);
        let mut host = 0.0;
        while f.cycle() < HORIZON {
            let end = (f.cycle() + SLICE).min(HORIZON);
            host += clock.time(BETA, || f.run_until(end)).1;
        }
        rates.push((HORIZON - WARMUP) as f64 / host / 1e6);
        report.attempted += submitted(&f);
        if runs < FLEETS {
            states.push(check_fleet(&f, report));
            latency += f.latency();
            acked += f.report().acked;
            calls += submitted(&f);
            timely_bytes += f.acked_timely_bytes();
        } else {
            let same = state_json(&f) == states[i as usize];
            report.check(same, || format!("fleet {i} reached a different state when run again"));
        }
        runs += 1;
    }
    println!("calls: {calls} submitted, {acked} acked (latency samples) over {FLEETS} fleets");
    println!(
        "host samples: {runs} fleet runs; Mcycles/ref-s p10 {:.4} p50 {:.4} p90 {:.4}",
        percentile(&rates, 0.1),
        percentile(&rates, 0.5),
        percentile(&rates, 0.9)
    );
    clock.print();
    report.metric("setup_s", median(&setups));
    report.metric("host_mcycles_per_s", median(&rates));
    report.metric("timely_goodput_mbps", goodput_mbps(timely_bytes, FLEETS * HORIZON));
    report.metric("call_p50_kcycles", quantile(&latency, 0.50) / 1e3);
    report.metric("call_p90_kcycles", quantile(&latency, 0.90) / 1e3);
    report.metric("call_fail_frac", 1.0 - acked as f64 / calls as f64);
}

/// One client machine as `Fleet` builds it: the RPC endpoint and its
/// open-loop load generator (seeds and sampling as in `firefly_sim::fleet`).
struct Client {
    rpc: RpcClient,
    arrivals: SmallRng,
    priorities: SmallRng,
    next_arrival: u64,
}

fn interarrival(rng: &mut SmallRng, per_mcycle: u64) -> u64 {
    let u: f64 = rng.gen();
    let dt = -(1.0 - u).ln() * 1_000_000.0 / per_mcycle as f64;
    (dt.ceil() as u64).clamp(1, 100_000_000)
}

fn payload(rng: &mut SmallRng, cfg: &FleetConfig) -> u32 {
    let u: f64 = rng.gen();
    let alpha = f64::from(cfg.pareto_alpha_x1000) / 1_000.0;
    let x = f64::from(cfg.payload_min) / (1.0 - u).powf(1.0 / alpha);
    if x >= f64::from(cfg.payload_max) {
        cfg.payload_max
    } else {
        (x as u32).max(cfg.payload_min)
    }
}

/// The fleet assembled from `firefly_net` parts, for the traced run.
struct Parts {
    cfg: FleetConfig,
    segment: EtherSegment,
    servers: Vec<RpcServer>,
    clients: Vec<Client>,
}

impl Parts {
    fn new(cfg: FleetConfig) -> Self {
        let mut seg = SegmentConfig::new(cfg.servers + cfg.clients);
        seg.tx_ring = cfg.tx_ring;
        seg.rx_ring = cfg.rx_ring;
        seg.seed = cfg.seed;
        seg.faults = cfg.faults;
        let servers = (0..cfg.servers)
            .map(|i| {
                let seed = cfg.seed ^ 0xa076_1d64_78bd_642f_u64.wrapping_mul(i as u64 + 1);
                let mut s = RpcServer::new(i as u32, cfg.server_threads, cfg.service_cycles, seed);
                s.set_queue_cap(cfg.server_queue_cap);
                s.set_cache_per_client(cfg.reply_cache_per_client);
                s.set_slowdown(cfg.slowdown.map(|w| (w.from, w.until, w.factor)));
                s.set_brownout(cfg.brownout_watermark);
                s
            })
            .collect();
        let clients = (0..cfg.clients)
            .map(|i| {
                let nic = (cfg.servers + i) as u64;
                let mix = |k: u64| cfg.seed ^ k.wrapping_mul(nic + 1);
                let mut arrivals = SmallRng::seed_from_u64(mix(0xd1b5_4a32_d192_ed03));
                let next_arrival = interarrival(&mut arrivals, cfg.arrivals_per_mcycle);
                Client {
                    rpc: RpcClient::new(
                        nic as u32,
                        (0..cfg.servers as u32).collect(),
                        cfg.policy,
                        mix(0x9e37_79b9_7f4a_7c15),
                    ),
                    arrivals,
                    priorities: SmallRng::seed_from_u64(mix(0x94d0_49bb_1331_11eb)),
                    next_arrival,
                }
            })
            .collect();
        Parts { cfg, segment: EtherSegment::new(seg), servers, clients }
    }

    /// Simulated state in the same form as [`state_json`] of a `Fleet`
    /// (the report line excepted, which only a `Fleet` renders).
    fn state_json(&self) -> Vec<String> {
        let mut lat = Histogram::default();
        for c in &self.clients {
            lat += *c.rpc.latency();
        }
        let mut parts = vec![self.segment.stats().to_json(), lat.to_json()];
        parts.extend(self.clients.iter().map(|c| c.rpc.stats().to_json()));
        parts.extend(self.servers.iter().map(|s| s.stats().to_json()));
        parts
    }
}

/// Host time of the traced run by layer, in clock ticks, and the
/// outstanding-call samples (one per cycle).
#[derive(Default)]
struct Spans {
    segment: u64,
    server: u64,
    client: u64,
    cycles: u64,
    submits: u64,
    outstanding_sum: u64,
    outstanding_max: u64,
}

/// `Fleet::step`, re-stated with a span around each layer: the wire
/// (`EtherSegment::tick`), the servers (`RpcServer::tick`) and the
/// clients (`RpcClient::submit_with_priority` and `RpcClient::tick`).
fn step_traced(p: &mut Parts, spans: &mut Spans) {
    let t0 = clock::ticks();
    p.segment.tick();
    let now = p.segment.cycle();
    let t1 = clock::ticks();
    for s in &mut p.servers {
        s.tick(now, &mut p.segment);
    }
    let t2 = clock::ticks();
    let mut outstanding = 0;
    for c in &mut p.clients {
        while c.next_arrival <= now {
            let bytes = payload(&mut c.arrivals, &p.cfg);
            let priority = (c.priorities.gen::<u32>() >> 24) as u8;
            c.rpc.submit_with_priority(now, bytes, priority);
            spans.submits += 1;
            c.next_arrival += interarrival(&mut c.arrivals, p.cfg.arrivals_per_mcycle);
        }
        c.rpc.tick(now, &mut p.segment);
        outstanding += c.rpc.outstanding() as u64;
    }
    let t3 = clock::ticks();
    spans.segment += t1 - t0;
    spans.server += t2 - t1;
    spans.client += t3 - t2;
    spans.cycles += 1;
    spans.outstanding_sum += outstanding;
    spans.outstanding_max = spans.outstanding_max.max(outstanding);
}

/// Traced run: the per-layer metrics. Each fleet of the pool runs once
/// as a `Fleet`, timed per phase, and once assembled from its parts and
/// stepped by [`step_traced`]; both must reach the same wire, client and
/// server state.
pub fn run_traced(seed: u64, report: &mut Report) {
    let (mut untraced, mut traced) = (0.0, 0.0);
    let mut phase_s = [0.0; 3];
    let mut spans = Spans::default();
    let mut ns_per_tick = Vec::new();
    let (mut wire_busy, mut collisions, mut tx_rejected) = (0, 0, 0);
    let (mut timeouts, mut retries, mut executed, mut dup_hits, mut acked, mut calls) =
        (0, 0, 0, 0, 0, 0);
    for i in 0..FLEETS {
        let cfg = config(seed, i);
        let t = Instant::now();
        let mut f = Fleet::new(cfg);
        f.run_until(WARMUP);
        for (phase, end) in PHASES.into_iter().enumerate() {
            let tp = Instant::now();
            f.run_until(end);
            phase_s[phase] += tp.elapsed().as_secs_f64();
        }
        untraced += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let calibration = clock::Calibration::start();
        let mut p = Parts::new(cfg);
        while p.segment.cycle() < HORIZON {
            step_traced(&mut p, &mut spans);
        }
        traced += t.elapsed().as_secs_f64();
        ns_per_tick.push(calibration.ns_per_tick());

        let reference = check_fleet(&f, report);
        report.attempted += submitted(&f);
        report.check(p.state_json()[..] == reference[1..], || {
            format!("fleet {i}: traced run diverged from the untraced fleet (segment, client or server stats)")
        });
        let r = f.report();
        let seg = f.segment_stats();
        wire_busy += seg.wire_busy_cycles;
        collisions += seg.collisions;
        tx_rejected += seg.tx_rejected;
        timeouts += r.timeouts;
        retries += r.retries;
        executed += r.server_executed;
        dup_hits += r.server_dup_cache_hits;
        acked += r.acked;
        calls += submitted(&f);
    }

    let ns = median(&ns_per_tick);
    let per_cycle = |t: u64| t as f64 * ns / spans.cycles as f64;
    report.metric("net.segment.tick_ns", per_cycle(spans.segment));
    report.metric("net.segment.wire_util", wire_busy as f64 / spans.cycles as f64);
    report.metric("net.segment.collisions", collisions as f64);
    report.metric("net.segment.tx_rejected", tx_rejected as f64);
    report.metric("net.rpc_client.tick_ns", per_cycle(spans.client));
    report.metric("net.rpc_server.tick_ns", per_cycle(spans.server));
    report.metric("net.rpc_client.submits", spans.submits as f64);
    report.metric(
        "net.rpc_client.outstanding_mean",
        spans.outstanding_sum as f64 / spans.cycles as f64,
    );
    report.metric("net.rpc_client.outstanding_max", spans.outstanding_max as f64);
    report.metric("net.rpc_client.timeouts", timeouts as f64);
    report.metric("net.rpc_client.retries", retries as f64);
    report.metric("net.rpc_server.executed", executed as f64);
    report.metric("net.rpc_server.dup_cache_hits", dup_hits as f64);
    report.metric("net.rpc.useful_frac", acked as f64 / (calls + retries) as f64);
    let mut from = WARMUP;
    for (phase, name) in [
        "sim.fleet.host_us_per_kcycle.baseline",
        "sim.fleet.host_us_per_kcycle.storm",
        "sim.fleet.host_us_per_kcycle.recovery",
    ]
    .into_iter()
    .enumerate()
    {
        let kcycles = (PHASES[phase] - from) as f64 / 1e3 * FLEETS as f64;
        report.metric(name, phase_s[phase] * 1e6 / kcycles);
        from = PHASES[phase];
    }
    let explained = (spans.segment + spans.server + spans.client) as f64 * ns * 1e-9;
    report.metric("trace.explained_frac", explained / traced);
    report.metric("trace.overhead", traced / untraced);
    report.metric("trace.wall_s", traced);
    report.metric("trace.untraced_wall_s", untraced);
}
