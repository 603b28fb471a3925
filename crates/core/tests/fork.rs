//! `MemSystem::fork` completeness.
//!
//! A fork taken at any point — between accesses or with transactions on
//! the wires — must step forward bit-identically to a replay of the same
//! history from reset: same snapshot bytes, statistics, latency
//! histograms, event trace and access results. A fork must also share
//! no state with its parent. A field that `fork` failed to copy (or
//! copied by reference) shows up as a divergence here.

use firefly_core::config::SystemConfig;
use firefly_core::fault::FaultConfig;
use firefly_core::system::{AccessResult, MemSystem, Request};
use firefly_core::{Addr, ArbiterKind, BusMode, CacheGeometry, PortId, ProtocolKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tracked words: more than the cache holds, so victims are written back.
const WORDS: u32 = 12;
/// Bus-watchdog budget of the fault runs, in cycles: short enough to trip.
const WATCHDOG: u64 = 6;

/// One scripted action. Actions are generated independently of
/// the system's state; an action the system refuses (a busy or offline
/// port) is refused identically on every copy.
#[derive(Clone, Copy, Debug)]
enum Action {
    /// Start an access on `port` and return without stepping.
    Begin { port: usize, write: bool, word: u32, value: u32 },
    /// Run an access on `port` to completion (every port progresses).
    Complete { port: usize, write: bool, word: u32, value: u32 },
    /// Advance one bus cycle.
    Step,
    /// Post an interprocessor interrupt to `port`.
    Interrupt { port: usize },
    /// Take (acknowledge) `port`'s pending interrupt.
    TakeInterrupt { port: usize },
    /// Machine-check `port` out of the configuration.
    Offline { port: usize },
}

/// What one action observably did: accesses completed (polled after a
/// step), refusals and interrupt acknowledgements.
type Outcome = Vec<Result<(usize, AccessResult), String>>;

fn request(write: bool, word: u32, value: u32) -> Request {
    let addr = Addr::from_word_index(word);
    if write {
        Request::write(addr, value)
    } else {
        Request::read(addr)
    }
}

/// A seeded random script. With `offline`, the last port is
/// machine-checked out a third of the way in, right after another
/// port's access was put on the bus.
fn script(seed: u64, ports: usize, len: usize, offline: bool) -> Vec<Action> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut actions: Vec<Action> = (0..len)
        .map(|_| {
            let port = rng.gen_range(0..ports);
            let write = rng.gen_bool(0.4);
            let word = rng.gen_range(0..WORDS);
            let value = rng.gen();
            match rng.gen_range(0..20) {
                0..=5 => Action::Begin { port, write, word, value },
                6 => Action::Complete { port, write, word, value },
                7 => Action::Interrupt { port },
                8 => Action::TakeInterrupt { port },
                _ => Action::Step,
            }
        })
        .collect();
    if offline {
        let at = len / 3;
        actions[at] = Action::Begin { port: 0, write: true, word: 0, value: 7 };
        actions[at + 1] = Action::Step;
        actions[at + 2] = Action::Offline { port: ports - 1 };
    }
    actions
}

fn act(sys: &mut MemSystem, action: Action) -> Outcome {
    let mut out = Vec::new();
    match action {
        Action::Begin { port, write, word, value } => {
            if let Err(e) = sys.begin(PortId::new(port), request(write, word, value)) {
                out.push(Err(e.to_string()));
            }
        }
        Action::Complete { port, write, word, value } => {
            match sys.run_to_completion(PortId::new(port), request(write, word, value)) {
                Ok(r) => out.push(Ok((port, r))),
                Err(e) => out.push(Err(e.to_string())),
            }
        }
        Action::Step => {
            sys.step();
            for port in 0..sys.port_count() {
                if let Some(r) = sys.poll(PortId::new(port)) {
                    out.push(Ok((port, r)));
                }
            }
        }
        Action::Interrupt { port } => {
            if let Err(e) = sys.post_interrupt(PortId::new(port)) {
                out.push(Err(e.to_string()));
            }
        }
        Action::TakeInterrupt { port } => {
            out.push(Err(format!("interrupt taken: {}", sys.take_interrupt(PortId::new(port)))));
        }
        Action::Offline { port } => {
            if let Err(e) = sys.offline_cpu(PortId::new(port)) {
                out.push(Err(e.to_string()));
            }
        }
    }
    out
}

fn drive(sys: &mut MemSystem, actions: &[Action]) -> Vec<Outcome> {
    actions.iter().map(|&a| act(sys, a)).collect()
}

/// Asserts two systems are observably identical.
fn assert_same(a: &MemSystem, b: &MemSystem, what: &str) {
    assert_eq!(a.cycle(), b.cycle(), "{what}: cycle");
    assert_eq!(a.bus_stats(), b.bus_stats(), "{what}: bus stats");
    for p in 0..a.port_count() {
        let port = PortId::new(p);
        assert_eq!(a.cache_stats(port), b.cache_stats(port), "{what}: port {p} cache stats");
    }
    assert_eq!(a.latency_stats(), b.latency_stats(), "{what}: latency stats");
    assert_eq!(a.fault_stats(), b.fault_stats(), "{what}: fault stats");
    assert_eq!(a.events(), b.events(), "{what}: event trace");
    assert_eq!(a.events_dropped(), b.events_dropped(), "{what}: dropped events");
    assert_eq!(a.bus_log(), b.bus_log(), "{what}: bus log");
    assert!(a.save_snapshot() == b.save_snapshot(), "{what}: snapshot bytes differ");
}

/// Drives `cfg`'s system through a seeded random script, forking it
/// every `every` actions from a seeded random offset. Each fork runs the
/// rest of the script and must end identical to a replay of the whole
/// script from reset, without changing its parent; the parent, which
/// carries on through every fork point, must end identical too.
/// Returns the reference system.
fn check_forks(
    cfg: SystemConfig,
    kind: ProtocolKind,
    seed: u64,
    len: usize,
    every: usize,
) -> MemSystem {
    let what = format!("{kind:?} {:?} {:?} seed {seed}", cfg.bus_mode(), cfg.arbiter());
    // Fault runs also machine-check a port out (see `script`) and arm a
    // tight bus watchdog.
    let faulty = !cfg.faults().is_disabled();
    let actions = script(seed, cfg.ports(), len, faulty);
    let build = || {
        let mut sys = MemSystem::new(cfg.clone(), kind).unwrap();
        sys.set_watchdog(faulty.then_some(WATCHDOG));
        sys
    };

    let mut reference = build();
    let reference_out = drive(&mut reference, &actions);
    assert!(reference_out.iter().flatten().any(Result::is_ok), "{what}: no access completed");

    let mut parent = build();
    let mut at = SmallRng::seed_from_u64(seed ^ 0x5eed).gen_range(0..every);
    let mut parent_out = drive(&mut parent, &actions[..at]);
    while at < len {
        let before = parent.save_snapshot();
        let mut fork = parent.fork(kind.build());
        let fork_out = drive(&mut fork, &actions[at..]);
        assert!(
            parent.save_snapshot() == before,
            "{what}: stepping the fork at {at} changed its parent"
        );
        assert_eq!(fork_out, reference_out[at..], "{what}: outcomes after the fork at {at}");
        assert_same(&fork, &reference, &format!("{what}, fork at {at}"));

        let next = (at + every).min(len);
        parent_out.extend(drive(&mut parent, &actions[at..next]));
        at = next;
    }
    assert_eq!(parent_out, reference_out, "{what}: parent outcomes");
    assert_same(&parent, &reference, &format!("{what}, parent"));
    reference
}

fn small(ports: usize) -> SystemConfig {
    SystemConfig::microvax(ports).with_cache(CacheGeometry::new(8, 1).unwrap()).with_memory_mb(1)
}

#[test]
fn fork_matches_replay_for_every_protocol_bus_mode_and_arbiter() {
    let mut seed = 1;
    for kind in ProtocolKind::ALL {
        for mode in [BusMode::Unified, BusMode::Split] {
            for arbiter in [ArbiterKind::FixedPriority, ArbiterKind::RoundRobin] {
                let cfg = small(3).with_bus_mode(mode).with_arbiter(arbiter);
                check_forks(cfg, kind, seed, 1_500, 300);
                seed += 1;
            }
        }
    }
}

#[test]
fn fork_matches_replay_under_fault_injection() {
    // Forking at every action catches the short-lived states: an aborted
    // transaction backing off, an offlined port awaiting its purge.
    let faults = FaultConfig::correctable(17, 50_000);
    for (seed, kind) in [(101, ProtocolKind::Firefly), (102, ProtocolKind::Tardis)] {
        let cfg = small(4).with_faults(faults).with_bus_mode(BusMode::Split);
        let run = check_forks(cfg, kind, seed, 600, 1);
        assert!(run.fault_stats().total_injected() > 0, "{kind:?}: the plan never fired");
        assert!(run.watchdog_trips() > 0, "{kind:?}: the watchdog never tripped");
    }
}

#[test]
fn fork_matches_replay_with_event_and_bus_tracing() {
    let cfg = small(3).with_event_trace(4_096).with_bus_trace(true);
    for (seed, kind) in [(201, ProtocolKind::Dragon), (202, ProtocolKind::Tardis)] {
        check_forks(cfg.clone(), kind, seed, 1_500, 100);
    }
}
