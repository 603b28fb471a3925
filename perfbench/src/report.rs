//! Metric catalog, result collection and output.

use firefly_core::stats::Histogram;
use std::fmt::Write as _;

/// End-to-end metrics, with their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("host_mcycles_per_s", "Mcycles/ref-s"),
    ("host_states_per_s", "states/ref-s"),
    ("snapshot_mb_per_s", "MB/ref-s"),
    ("peak_rss_mb", "MB"),
    ("sim_tpi", "ticks/instr"),
    ("tpi_model_err_pct", "%"),
    ("timely_goodput_mbps", "Mb/s"),
    ("call_p50_kcycles", "kcycles"),
    ("call_p90_kcycles", "kcycles"),
    ("call_fail_frac", "fraction"),
];

/// Per-layer metrics, with their units, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("cpu.tick_ns", "ns/cycle"),
    ("cpu.tick_calls", "count"),
    ("cpu.refs", "count"),
    ("cpu.instructions", "count"),
    ("cpu.mem_wait_cycles", "cycles"),
    ("cpu.skip_ns", "ns/probe"),
    ("cpu.idle_skips", "count"),
    ("cpu.ticked_iterations", "count"),
    ("cpu.skip_cycle_frac", "fraction"),
    ("core.step_ns", "ns/call"),
    ("core.step_calls", "count"),
    ("core.cache.miss_rate", "fraction"),
    ("core.bus.load", "fraction"),
    ("core.bus.fills", "count"),
    ("core.bus.wt_shared", "count"),
    ("core.bus.wt_unshared", "count"),
    ("core.bus.victims", "count"),
    ("core.arb.wait_p50", "cycles"),
    ("core.arb.wait_p99", "cycles"),
    ("core.miss_penalty_p50", "cycles"),
    ("core.miss_penalty_p99", "cycles"),
    ("sim.tpi.base", "ticks/instr"),
    ("sim.tpi.stall", "ticks/instr"),
    ("model.tpi.sm", "ticks/instr"),
    ("model.tpi.sw", "ticks/instr"),
    ("model.tpi.sp", "ticks/instr"),
    ("core.snapshot.save_ms", "ms"),
    ("core.snapshot.restore_ms", "ms"),
    ("core.snapshot.bytes", "bytes"),
    ("net.segment.tick_ns", "ns/cycle"),
    ("net.segment.wire_util", "fraction"),
    ("net.segment.collisions", "count"),
    ("net.segment.tx_rejected", "count"),
    ("net.rpc_client.tick_ns", "ns/cycle"),
    ("net.rpc_server.tick_ns", "ns/cycle"),
    ("net.rpc_client.outstanding_mean", "calls"),
    ("net.rpc_client.outstanding_max", "calls"),
    ("net.rpc_client.timeouts", "count"),
    ("net.rpc_client.retries", "count"),
    ("net.rpc_server.executed", "count"),
    ("net.rpc_server.dup_cache_hits", "count"),
    ("net.rpc.useful_frac", "fraction"),
    ("sim.fleet.host_us_per_kcycle.baseline", "us/kcycle"),
    ("sim.fleet.host_us_per_kcycle.storm", "us/kcycle"),
    ("sim.fleet.host_us_per_kcycle.recovery", "us/kcycle"),
    ("mc.states", "count"),
    ("mc.transitions", "count"),
    ("mc.depth", "count"),
    ("mc.ns_per_transition", "ns"),
    ("trace.explained_frac", "fraction"),
    ("trace.overhead", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("cpu.skip_probes", "count"),
    ("net.rpc_client.submits", "count"),
    ("mc.workers", "count"),
];

/// The value an end-to-end metric takes on a workload it does not
/// describe (every run must report every metric, and none may be 0).
pub const NOT_APPLICABLE: f64 = 1.0;

/// One run's results.
pub struct Report {
    trace: bool,
    /// Operations the run performed.
    pub attempted: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
    digest: u64,
    digest_parts: usize,
}

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        println!("workload {workload}  seed {seed}  trace {}", u8::from(trace));
        Report {
            trace,
            attempted: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            digest: FNV_OFFSET,
            digest_parts: 0,
        }
    }

    /// Records a metric; `name` must be in the catalog for this mode.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let catalog: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        assert!(catalog.iter().any(|&(n, _)| n == name), "{name} is not a catalog metric");
        assert!(value.is_finite(), "{name} = {value} is not finite");
        assert!(!self.metrics.iter().any(|&(n, _)| n == name), "{name} recorded twice");
        self.metrics.push((name, value));
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, what: String) {
        println!("CHECK FAILED: {what}");
        self.problems.push(what);
    }

    /// Records `ok`, or a failed check described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problem(what());
        }
    }

    /// Folds one piece of deterministic simulated output into
    /// `sim_digest`.
    pub fn digest(&mut self, part: &str) {
        for &b in part.as_bytes().iter().chain(&[0xff]) {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.digest_parts += 1;
    }

    /// Prints every metric and the final JSON line.
    pub fn finish(mut self) {
        if !self.trace {
            // The untraced runs hold one reference clock, whose table is
            // not the simulator's.
            let clock = crate::clock::RefClock::BYTES as f64 / 1024.0;
            self.metric("peak_rss_mb", (peak_kb() - clock) / 1024.0);
        }
        let catalog: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        let fill = if self.trace { 0.0 } else { NOT_APPLICABLE };
        let mut json = String::new();
        for (i, &(name, unit)) in catalog.iter().enumerate() {
            let measured = self.metrics.iter().find(|&&(n, _)| n == name).map(|&(_, v)| v);
            let value = measured.unwrap_or(fill);
            let note = if measured.is_some() { "" } else { "  (not measured on this workload)" };
            println!("{name:<40} {value:>18} {unit}{note}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        println!("sim_digest 0x{:016x} over {} parts", self.digest, self.digest_parts);
        let correct = self.problems.is_empty();
        let attempted = self.attempted.max(1);
        let failed = if correct { 0 } else { attempted };
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
        );
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// This process's peak resident set (`VmHWM`), in kB. Every run is its
/// own process and runs one workload, so this is the workload's peak.
fn peak_kb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status")
}

/// The `q`-quantile of `xs` (non-empty) by nearest rank.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// The median of `xs` (which must be non-empty).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of a log2-bucketed histogram, interpolated
/// geometrically inside the bucket that holds it (bucket `b` covers
/// `[2^(b-1), 2^b)`, clamped to the observed minimum and maximum). Zero
/// when empty.
pub fn quantile(h: &Histogram, q: f64) -> f64 {
    let target = q * h.count() as f64;
    let mut below = 0u64;
    for (b, &c) in h.buckets().iter().enumerate() {
        if c > 0 && (below + c) as f64 >= target {
            if b == 0 {
                return 0.0;
            }
            let lo = ((1u64 << (b - 1)) as f64).max(h.min() as f64);
            let hi = ((1u64 << b) as f64).min(h.max() as f64).max(lo);
            let frac = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
            return lo * (hi / lo).powf(frac);
        }
        below += c;
    }
    0.0
}
