//! The `mc-tardis` workload: exhaustive model checking of the Tardis
//! timestamp protocol on the default 2-cache, 2-word configuration.
//!
//! The explored space does not depend on the seed.

use crate::clock::RefClock;
use crate::report::{median, Report};
use firefly_core::ProtocolKind;
use firefly_mc::explore::{explore_workers, McConfig, McReport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Explorer worker threads, fixed so runs are comparable.
const WORKERS: usize = 1;
/// Elasticity of an exploration's host time to the reference kernel's
/// ([`RefClock`]; NOTES.md, "Host time").
const BETA: f64 = 1.9;
/// Systems the explorer builds between two runs of the reference kernel
/// inside an exploration (about 40 ms).
const SAMPLE_EVERY: u64 = 8_192;
/// Depth of the set-up exploration (a prefix of the full one).
const WARMUP_DEPTH: usize = 6;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Explorations, at the least, in one untraced run.
const MIN_REPS: usize = 2;
/// The reachable space of the default Tardis configuration.
const STATES: usize = 34_184;
const TRANSITIONS: usize = 410_208;

fn config() -> McConfig {
    McConfig::new(ProtocolKind::Tardis)
}

fn check(r: &McReport, report: &mut Report) {
    report.check(r.complete, || "exploration did not close before the depth bound".into());
    report.check(r.violation.is_none(), || format!("violation: {:?}", r.violation));
    report.check(r.states == STATES && r.transitions == TRANSITIONS, || {
        format!(
            "explored {} states / {} transitions, expected {STATES} / {TRANSITIONS}",
            r.states, r.transitions
        )
    });
}

fn digest(r: &McReport, report: &mut Report) {
    let summary = format!("{} {} {} {}", r.states, r.transitions, r.depth_reached, r.complete);
    report.digest(&summary);
}

/// Explores `cfg` and returns the report with its host time in reference
/// seconds. An exploration takes seconds, too long for the kernel runs at
/// its ends to tell how fast the host was during it, so the clock also
/// runs its kernel every [`SAMPLE_EVERY`] systems the explorer builds. The
/// explorer's factory hook gives it the chance: the factory returns the
/// protocol's canonical tables, exactly what the explorer builds without
/// one.
fn timed_explore(clock: &Mutex<RefClock>, cfg: &McConfig) -> (McReport, f64) {
    let builds = AtomicU64::new(0);
    let tables = || {
        if builds.fetch_add(1, Ordering::Relaxed) % SAMPLE_EVERY == SAMPLE_EVERY - 1 {
            clock.lock().expect("no kernel run panics").sample();
        }
        cfg.base_tables()
    };
    clock.lock().expect("no kernel run panics").begin();
    let r = explore_workers(cfg, Some(&tables), WORKERS);
    (r, clock.lock().expect("no kernel run panics").end(BETA))
}

/// Untraced run: `setup_s` and `host_states_per_s`, in reference
/// seconds ([`RefClock`]), each the median over its pieces.
pub fn run(seconds: Duration, report: &mut Report) {
    let deadline = Instant::now() + seconds;
    let clock = Mutex::new(RefClock::new());
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let (warm, s) = timed_explore(&clock, &config().with_depth(WARMUP_DEPTH));
        setups.push(s);
        report
            .check(warm.violation.is_none(), || format!("set-up violation: {:?}", warm.violation));
    }
    report.metric("setup_s", median(&setups));

    let mut rates = Vec::new();
    while rates.len() < MIN_REPS || Instant::now() < deadline {
        let (r, s) = timed_explore(&clock, &config());
        rates.push(r.states as f64 / s);
        check(&r, report);
        if rates.len() == 1 {
            digest(&r, report);
        }
        report.attempted += r.transitions as u64;
    }
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    println!(
        "explorations: {}  workers: {WORKERS}  states/ref-s: {}",
        rates.len(),
        shown.join(" ")
    );
    clock.into_inner().expect("no kernel run panics").print();
    report.metric("host_states_per_s", median(&rates));
}

/// Traced run: one exploration untraced and one inside an `mc.explore`
/// span (the explorer has no finer public layer to time).
pub fn run_traced(report: &mut Report) {
    let t = Instant::now();
    let untraced_report = explore_workers(&config(), None, WORKERS);
    let untraced = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let t_span = Instant::now();
    let r = explore_workers(&config(), None, WORKERS);
    let span = t_span.elapsed().as_secs_f64();
    let traced = t.elapsed().as_secs_f64();

    check(&untraced_report, report);
    check(&r, report);
    digest(&r, report);
    report.attempted = r.transitions as u64;
    report.metric("mc.states", r.states as f64);
    report.metric("mc.transitions", r.transitions as f64);
    report.metric("mc.depth", r.depth_reached as f64);
    report.metric("mc.ns_per_transition", span * 1e9 / r.transitions as f64);
    report.metric("mc.workers", WORKERS as f64);
    report.metric("trace.explained_frac", span / traced);
    report.metric("trace.overhead", traced / untraced);
    report.metric("trace.wall_s", traced);
    report.metric("trace.untraced_wall_s", untraced);
}
