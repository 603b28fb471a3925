//! Differential equivalence suite: the event-driven engines versus
//! their ticked references — the machine's `drive_events` against
//! `drive`, and the fleet's skipping `Fleet::run_until` against a
//! per-cycle `Fleet::step` loop.
//!
//! The event-driven core ([`firefly_cpu::processor::drive_events`], the
//! default behind [`firefly::sim::EngineMode`]) skips idle spans in one
//! jump instead of ticking them. Its contract is strict: **bit-identical
//! results** — statistics JSON, event traces, latency histograms,
//! snapshot bytes — on every protocol, under fault injection, and across
//! mid-run checkpoints. These tests drive both engines from the same
//! seed in lockstep and hold them to that contract byte for byte; any
//! divergence means the skip predicate admitted a cycle that was not
//! actually idle.

use firefly::core::fault::FaultConfig;
use firefly::core::protocol::ProtocolKind;
use firefly::cpu::{CpuConfig, PrefetchConfig};
use firefly::net::NetFaultConfig;
use firefly::sim::fleet::{brownout, crash, partition, rejoin, storm, Fleet, FleetConfig};
use firefly::sim::{EngineMode, Firefly, FireflyBuilder, Workload};
use firefly::trace::LocalityParams;
use firefly_core::PortId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Serializes every statistics surface of a machine to one JSON string,
/// so "the stats are identical" is a byte comparison.
fn stats_json(machine: &Firefly) -> String {
    let mut parts = Vec::new();
    parts.push(machine.memory().bus_stats().to_json());
    parts.push(machine.fault_stats().to_json());
    for p in machine.processors() {
        parts.push(p.stats().to_json());
    }
    parts.join(",")
}

/// The latency histograms, via their Debug rendering (bin-exact).
fn latency_debug(machine: &Firefly) -> String {
    format!("{:?}", machine.memory().latency_stats())
}

fn build(kind: ProtocolKind, engine: EngineMode, faults: FaultConfig) -> Firefly {
    FireflyBuilder::microvax(3)
        .protocol(kind)
        .seed(0xe4e4 ^ kind as u64)
        .trace_events(2048)
        .faults(faults)
        .engine(engine)
        .build()
}

/// Runs `machine` in `chunks` chunks of `chunk` cycles, returning the
/// stats JSON after every chunk (so a divergence is localized to the
/// chunk that introduced it, not discovered at the end).
fn run_chunked(machine: &mut Firefly, chunk: u64, chunks: usize) -> Vec<String> {
    (0..chunks)
        .map(|_| {
            machine.run(chunk);
            stats_json(machine)
        })
        .collect()
}

/// The headline differential: all seven protocols, both engines from
/// the same seed, compared in lockstep every 10k cycles. 120k cycles at
/// the paper's ~12 ticks per instruction gives each 3-CPU machine well
/// over 10,000 memory requests.
#[test]
fn engines_bit_identical_on_all_seven_protocols() {
    for kind in ProtocolKind::ALL {
        let mut ticked = build(kind, EngineMode::Ticked, FaultConfig::default());
        let mut events = build(kind, EngineMode::EventDriven, FaultConfig::default());

        let t = run_chunked(&mut ticked, 10_000, 12);
        let e = run_chunked(&mut events, 10_000, 12);
        for (i, (tj, ej)) in t.iter().zip(&e).enumerate() {
            assert_eq!(tj, ej, "{kind:?}: stats JSON diverged in chunk {i}");
        }

        let refs: u64 =
            (0..3).map(|p| ticked.memory().cache_stats(PortId::new(p)).cpu_refs()).sum();
        assert!(refs > 10_000, "{kind:?}: only {refs} requests — the differential is too weak");

        assert_eq!(
            format!("{:?}", ticked.events()),
            format!("{:?}", events.events()),
            "{kind:?}: event traces diverged"
        );
        assert_eq!(
            latency_debug(&ticked),
            latency_debug(&events),
            "{kind:?}: latency histograms diverged"
        );
        assert_eq!(
            ticked.save_snapshot().unwrap(),
            events.save_snapshot().unwrap(),
            "{kind:?}: snapshot bytes diverged"
        );
    }
}

/// The same differential under an active fault plan: bus parity aborts
/// and retry backoff, MShared glitches, arbiter stalls, and correctable
/// ECC all perturb the schedule, and every RNG draw must land on the
/// same cycle in both engines.
#[test]
fn engines_bit_identical_under_fault_injection() {
    for kind in ProtocolKind::ALL {
        let plan = FaultConfig::correctable(0xfau64 ^ kind as u64, 20_000);
        let mut ticked = build(kind, EngineMode::Ticked, plan);
        let mut events = build(kind, EngineMode::EventDriven, plan);

        let t = run_chunked(&mut ticked, 10_000, 8);
        let e = run_chunked(&mut events, 10_000, 8);
        for (i, (tj, ej)) in t.iter().zip(&e).enumerate() {
            assert_eq!(tj, ej, "{kind:?}: stats JSON diverged under faults in chunk {i}");
        }
        assert!(
            ticked.fault_stats().total_injected() > 0,
            "{kind:?}: the plan never fired — the test is not exercising fault schedules"
        );
        assert_eq!(
            format!("{:?}", ticked.events()),
            format!("{:?}", events.events()),
            "{kind:?}: event traces diverged under faults"
        );
        assert_eq!(
            ticked.save_snapshot().unwrap(),
            events.save_snapshot().unwrap(),
            "{kind:?}: snapshot bytes diverged under faults"
        );
    }
}

/// A checkpoint taken by one engine restores into the other: the
/// snapshot format is engine-agnostic because the scheduler's state is
/// derived, not stored. Each engine continues from the other's
/// checkpoint bit-identically to the uninterrupted run.
#[test]
fn checkpoints_cross_engines_bit_identically() {
    for kind in [
        ProtocolKind::Firefly,
        ProtocolKind::Berkeley,
        ProtocolKind::WriteThrough,
        // Tardis checkpoints carry live leases and per-CPU program
        // timestamps; they must cross engines like any other state.
        ProtocolKind::Tardis,
    ] {
        let plan = FaultConfig::correctable(0xc0c0, 25_000);
        let mut events = build(kind, EngineMode::EventDriven, plan);
        events.run(30_000);
        let snap = events.save_snapshot().unwrap();

        // Resume the event-engine checkpoint on the ticked engine (and
        // vice versa via the uninterrupted event machine).
        let mut ticked = build(kind, EngineMode::Ticked, plan);
        ticked.load_snapshot(&snap).unwrap();

        events.run(30_000);
        ticked.run(30_000);

        assert_eq!(events.memory().cycle(), ticked.memory().cycle(), "{kind:?}: cycles");
        assert_eq!(stats_json(&events), stats_json(&ticked), "{kind:?}: stats after crossover");
        assert_eq!(
            events.save_snapshot().unwrap(),
            ticked.save_snapshot().unwrap(),
            "{kind:?}: snapshots diverged after the cross-engine resume"
        );
    }
}

/// The multiprogram workload context-switches every quantum and streams
/// through cold caches — a different idle-span profile (long compute
/// gaps, bursty misses) than the steady-state synthetic stream.
#[test]
fn engines_agree_on_the_multiprogram_workload() {
    let workload = Workload::Multiprogram {
        processes: 3,
        quantum: 1_500,
        params: LocalityParams::paper_calibrated(),
    };
    let build = |engine| {
        FireflyBuilder::microvax(4)
            .workload(workload)
            .protocol(ProtocolKind::Dragon)
            .seed(0x777)
            .engine(engine)
            .build()
    };
    let mut ticked = build(EngineMode::Ticked);
    let mut events = build(EngineMode::EventDriven);
    ticked.run(80_000);
    events.run(80_000);
    assert_eq!(stats_json(&ticked), stats_json(&events));
    assert_eq!(ticked.save_snapshot().unwrap(), events.save_snapshot().unwrap());
}

/// The PR-8 busy-bus regression point, exactly as `arbiter_sweep`'s
/// timed gate runs it: paper-mix 4 CPUs on the default (fixed-priority,
/// unified) bus, where the bus is busy two cycles in three and the
/// event engine's busy-span micro-loop is doing the work. The perf gate
/// lives in the bench; *this* pins the other half of the claim — the
/// micro-loop batches are bit-identical to ticking, chunk by chunk.
#[test]
fn busy_bus_paper_mix_point_stays_bit_identical() {
    let build = |engine| {
        FireflyBuilder::microvax(4)
            .workload(Workload::Synthetic(LocalityParams::paper_calibrated()))
            .protocol(ProtocolKind::Firefly)
            .seed(0x8a8b ^ 0xb)
            .engine(engine)
            .build()
    };
    let mut ticked = build(EngineMode::Ticked);
    let mut events = build(EngineMode::EventDriven);
    let t = run_chunked(&mut ticked, 20_000, 6);
    let e = run_chunked(&mut events, 20_000, 6);
    for (i, (tj, ej)) in t.iter().zip(&e).enumerate() {
        assert_eq!(tj, ej, "busy-bus point: stats JSON diverged in chunk {i}");
    }
    assert!(
        ticked.memory().bus_stats().load() > 0.25,
        "the point is supposed to be busy: load {:.2}",
        ticked.memory().bus_stats().load()
    );
    let stats = events.engine_stats();
    assert!(stats.ticked_iterations > 0, "busy spans must run through the ticked micro-loop");
    assert!(stats.idle_skips > 0, "the short joint-idle windows must still be skipped");
    assert_eq!(ticked.save_snapshot().unwrap(), events.save_snapshot().unwrap());
}

/// Every arbitration policy × bus mode, both engines: the skip
/// predicate knows nothing about the arbiter, so pluggable arbitration
/// must not cost the event engine its bit-identity — under a rotating
/// grant state (round-robin, aging) and with two transactions pipelined
/// on the split bus alike. Runs the sweep under both the invalidating
/// workhorse (Firefly) and the timestamped protocol (Tardis), whose
/// data-less lease renewals add a bus-operation shape the skip
/// predicate has to schedule like any other transaction.
#[test]
fn engines_bit_identical_across_policies_and_bus_modes() {
    use firefly::core::{ArbiterKind, BusMode};

    for proto in [ProtocolKind::Firefly, ProtocolKind::Tardis] {
        for kind in ArbiterKind::ALL {
            for mode in [BusMode::Unified, BusMode::Split] {
                let build = |engine| {
                    FireflyBuilder::microvax(4)
                        .workload(Workload::Synthetic(LocalityParams::paper_calibrated()))
                        .protocol(proto)
                        .arbiter(kind)
                        .bus_mode(mode)
                        .seed(0x1bb ^ kind as u64)
                        .engine(engine)
                        .build()
                };
                let mut ticked = build(EngineMode::Ticked);
                let mut events = build(EngineMode::EventDriven);
                ticked.run(60_000);
                events.run(60_000);
                assert_eq!(
                    stats_json(&ticked),
                    stats_json(&events),
                    "{proto:?}/{kind:?}/{mode:?}: stats diverged"
                );
                assert_eq!(
                    ticked.save_snapshot().unwrap(),
                    events.save_snapshot().unwrap(),
                    "{proto:?}/{kind:?}/{mode:?}: snapshot bytes diverged"
                );
            }
        }
    }
}

/// The busy-bus shape under Tardis: the paper-mix point where the bus
/// is saturated, with lease renewals live in the transaction stream.
/// Chunk-by-chunk bit-identity between the engines, and the run must
/// actually renew — a renewal-free run would leave the new `Renew` bus
/// operation untested here.
#[test]
fn tardis_busy_bus_renewals_stay_bit_identical() {
    let build = |engine| {
        FireflyBuilder::microvax(4)
            .workload(Workload::Synthetic(LocalityParams::paper_calibrated()))
            .protocol(ProtocolKind::Tardis)
            .seed(0x8a8b ^ 0x7)
            .engine(engine)
            .build()
    };
    let mut ticked = build(EngineMode::Ticked);
    let mut events = build(EngineMode::EventDriven);
    let t = run_chunked(&mut ticked, 20_000, 6);
    let e = run_chunked(&mut events, 20_000, 6);
    for (i, (tj, ej)) in t.iter().zip(&e).enumerate() {
        assert_eq!(tj, ej, "Tardis busy-bus: stats JSON diverged in chunk {i}");
    }
    assert!(
        ticked.memory().bus_stats().renewals > 0,
        "the Tardis paper-mix run never renewed a lease — the differential misses Renew"
    );
    assert_eq!(ticked.save_snapshot().unwrap(), events.save_snapshot().unwrap());
}

/// An idle-heavy configuration (one CPU, high hit rate, long compute
/// gaps) is where the event engine actually skips; make sure the reached
/// state is still identical and the cycle counters add up exactly.
#[test]
fn idle_heavy_single_cpu_run_is_identical() {
    let build = |engine| {
        FireflyBuilder::microvax(1)
            .workload(Workload::Synthetic(LocalityParams::paper_calibrated()))
            .seed(42)
            .engine(engine)
            .build()
    };
    let mut ticked = build(EngineMode::Ticked);
    let mut events = build(EngineMode::EventDriven);
    ticked.run(200_000);
    events.run(200_000);
    assert_eq!(ticked.memory().cycle(), 200_000);
    assert_eq!(events.memory().cycle(), 200_000);
    assert_eq!(ticked.memory().bus_stats().total_cycles, 200_000);
    assert_eq!(events.memory().bus_stats().total_cycles, 200_000);
    assert_eq!(stats_json(&ticked), stats_json(&events));
    assert_eq!(ticked.save_snapshot().unwrap(), events.save_snapshot().unwrap());
}

/// Runs `ticked` and `events` in lockstep over `chunks` (odd lengths, so
/// chunk ends fall mid-transaction and mid-countdown), comparing the
/// stats JSON after every chunk and the snapshot bytes at the end.
fn assert_engines_agree(what: &str, ticked: &mut Firefly, events: &mut Firefly, chunks: &[u64]) {
    for (i, &chunk) in chunks.iter().enumerate() {
        ticked.run(chunk);
        events.run(chunk);
        assert_eq!(stats_json(ticked), stats_json(events), "{what}: stats diverged in chunk {i}");
    }
    assert_eq!(
        ticked.save_snapshot().unwrap(),
        events.save_snapshot().unwrap(),
        "{what}: snapshot bytes diverged"
    );
}

/// Odd chunk lengths, from a few cycles to tens of thousands.
const ODD_CHUNKS: [u64; 9] = [7_919, 1, 3, 12_347, 999, 5, 20_011, 77, 9_001];

/// CPUs machine-checked offline mid-run by double-bit ECC errors, on
/// every protocol and several seeds. A processor that waits on the bus
/// when its port goes offline is frozen at that cycle: the event engine
/// must credit its skipped wait ticks up to exactly there, and no
/// further.
#[test]
fn engines_bit_identical_when_cpus_go_offline_mid_run() {
    for kind in ProtocolKind::ALL {
        for seed in [1u64, 2, 3] {
            let plan = FaultConfig {
                ecc_double_ppm: 3_000,
                ..FaultConfig::correctable(seed ^ kind as u64, 5_000)
            };
            let build = |engine| {
                FireflyBuilder::microvax(4)
                    .protocol(kind)
                    .seed(seed)
                    .faults(plan)
                    .engine(engine)
                    .build()
            };
            let mut ticked = build(EngineMode::Ticked);
            let mut events = build(EngineMode::EventDriven);
            let what = format!("{kind:?} seed {seed}");
            assert_engines_agree(&what, &mut ticked, &mut events, &ODD_CHUNKS);
            assert!(ticked.fault_stats().cpus_offlined > 0, "{what}: no CPU went offline");
        }
    }
}

/// The CVAX machine (on-chip I-cache hits never leave the chip) and
/// the MicroVAX prefetcher on both variants (a wasted prefetch is issued
/// from the tick that completes the fetch before it).
#[test]
fn engines_bit_identical_with_onchip_icache_and_prefetch() {
    let prefetch = PrefetchConfig::microvax_chip();
    let machines = [
        ("CVAX", FireflyBuilder::cvax(4)),
        (
            "MicroVAX + prefetch",
            FireflyBuilder::microvax(4).cpu_config(CpuConfig::microvax().with_prefetch(prefetch)),
        ),
        (
            "CVAX + prefetch",
            FireflyBuilder::cvax(4).cpu_config(CpuConfig::cvax().with_prefetch(prefetch)),
        ),
    ];
    for (what, builder) in machines {
        let mut ticked = builder.clone().engine(EngineMode::Ticked).build();
        let mut events = builder.engine(EngineMode::EventDriven).build();
        assert_engines_agree(what, &mut ticked, &mut events, &ODD_CHUNKS);
        let cpu = ticked.processors()[0].stats();
        if what.starts_with("CVAX") {
            assert!(cpu.icache_hits > 0, "{what}: no on-chip I-cache hits");
        }
        if what.ends_with("prefetch") {
            assert!(cpu.wasted_prefetches > 0, "{what}: no wasted prefetches");
        }
    }
}

/// The seed the fleet scenarios run at in the bench bins and CI.
const FLEET_SEED: u64 = 0x000f_1ee7;

/// A scripted action applied to both fleets at a phase boundary.
#[derive(Copy, Clone, Debug)]
enum Act {
    Nothing,
    Kill(usize),
    Revive(usize),
}

/// The reference driver: one [`Fleet::step`] per cycle.
fn step_until(fleet: &mut Fleet, target: u64) {
    while fleet.cycle() < target {
        fleet.step();
    }
}

/// Holds two fleets to the skip contract: snapshot bytes, report and
/// stats JSON, trace, and the at-most-once oracle all identical.
fn assert_fleets_identical(what: &str, skipped: &Fleet, stepped: &Fleet) {
    assert_eq!(skipped.cycle(), stepped.cycle(), "{what}: cycle");
    assert_eq!(skipped.report(), stepped.report(), "{what}: report");
    assert_eq!(skipped.stats_json(), stepped.stats_json(), "{what}: stats JSON");
    assert_eq!(skipped.trace(), stepped.trace(), "{what}: trace");
    assert_eq!(skipped.check_at_most_once(), stepped.check_at_most_once(), "{what}: oracle");
    assert!(skipped.check_at_most_once().is_empty(), "{what}: at-most-once violated");
    assert!(skipped.save_snapshot() == stepped.save_snapshot(), "{what}: snapshot bytes differ");
}

/// Runs `cfg` under both drivers through `phases` — `(cycle, action)`:
/// run to the cycle, compare, then apply the action to both — and
/// returns the skipping fleet for scenario-specific checks.
fn fleet_drivers_agree(name: &str, cfg: FleetConfig, phases: &[(u64, Act)]) -> Fleet {
    let mut skipped = Fleet::new(cfg);
    let mut stepped = Fleet::new(cfg);
    for &(at, act) in phases {
        skipped.run_until(at);
        step_until(&mut stepped, at);
        assert_fleets_identical(&format!("{name} @ {at}"), &skipped, &stepped);
        for fleet in [&mut skipped, &mut stepped] {
            match act {
                Act::Nothing => {}
                Act::Kill(i) => fleet.kill_server(i),
                Act::Revive(i) => fleet.revive_server(i),
            }
        }
    }
    skipped
}

/// The phase boundaries of a scenario with no scripted actions.
fn boundaries(cycles: &[u64]) -> Vec<(u64, Act)> {
    cycles.iter().map(|&c| (c, Act::Nothing)).collect()
}

/// The budgeted retry storm over its whole timeline. Its servers spend
/// long spans with replies stuck behind a full TX ring, which the skip
/// credits as rejected enqueues instead of ticking.
#[test]
fn fleet_skip_matches_step_on_the_budgeted_storm() {
    let fleet = fleet_drivers_agree(
        "budgeted storm",
        FleetConfig::retry_storm(FLEET_SEED, false),
        &boundaries(&[
            storm::BASE_FROM,
            storm::SLOW_FROM,
            storm::SLOW_UNTIL,
            storm::RECOVERY_FROM,
            storm::RECOVERY_UNTIL,
        ]),
    );
    let stalled: u64 = (0..2).map(|i| fleet.server_stats(i).tx_ring_full).sum();
    assert!(stalled > 0, "the storm must exercise the stalled-server credit");
}

/// The naive storm into its collapse: thousands of retransmissions
/// re-polling full TX rings every `TX_RETRY_CYCLES`.
#[test]
fn fleet_skip_matches_step_on_the_naive_storm() {
    let fleet = fleet_drivers_agree(
        "naive storm",
        FleetConfig::retry_storm(FLEET_SEED, true),
        &boundaries(&[storm::BASE_FROM, storm::SLOW_FROM, 1_600_000]),
    );
    assert!(fleet.report().timeouts > 1_000, "the naive storm must be collapsing by now");
}

/// Crash failover: a server dies mid-run with calls in flight.
#[test]
fn fleet_skip_matches_step_across_a_kill() {
    let fleet = fleet_drivers_agree(
        "crash failover",
        FleetConfig::crash_failover(FLEET_SEED),
        &[
            (crash::BASE_FROM, Act::Nothing),
            (crash::KILL_AT, Act::Kill(crash::VICTIM)),
            (crash::KILL_AT + crash::WINDOW, Act::Nothing),
            (crash::END, Act::Nothing),
        ],
    );
    assert_eq!(fleet.online_servers(), 2);
}

/// Partition heal and the flapping partition: the severed windows are
/// read at delivery time, so they must land on the same cycles.
#[test]
fn fleet_skip_matches_step_through_partitions() {
    let mid_split = partition::SPLIT_FROM + (partition::SPLIT_UNTIL - partition::SPLIT_FROM) / 2;
    fleet_drivers_agree(
        "partition heal",
        FleetConfig::partition_heal(FLEET_SEED, true),
        &boundaries(&[
            partition::BASE_FROM,
            partition::SPLIT_FROM,
            mid_split,
            partition::SPLIT_UNTIL,
            partition::END,
        ]),
    );
    let mut flaps = vec![partition::BASE_FROM];
    for k in 0..partition::FLAPS as u64 {
        let from = partition::SPLIT_FROM + k * (partition::FLAP_SEVERED + partition::FLAP_HEALED);
        flaps.extend([from, from + partition::FLAP_SEVERED]);
    }
    flaps.push(partition::END);
    fleet_drivers_agree(
        "flapping partition",
        FleetConfig::flapping_partition(FLEET_SEED),
        &boundaries(&flaps),
    );
}

/// Kill then revive: the revived server restarts cold under a new
/// epoch and bounces stale requests.
#[test]
fn fleet_skip_matches_step_across_kill_and_revive() {
    let fleet = fleet_drivers_agree(
        "rejoin",
        FleetConfig::rejoin_after_crash(FLEET_SEED),
        &[
            (rejoin::BASE_FROM, Act::Nothing),
            (rejoin::KILL_AT, Act::Kill(rejoin::VICTIM)),
            (rejoin::REVIVE_AT, Act::Revive(rejoin::VICTIM)),
            (rejoin::REVIVE_AT + rejoin::WINDOW, Act::Nothing),
            (rejoin::END, Act::Nothing),
        ],
    );
    assert_eq!(fleet.server_epoch(rejoin::VICTIM), 1);
}

/// Brownout with the admission controller on (explicit `Shed` replies)
/// and off (silent queue drops).
#[test]
fn fleet_skip_matches_step_under_brownout() {
    for shedding in [true, false] {
        fleet_drivers_agree(
            &format!("brownout shedding={shedding}"),
            FleetConfig::brownout_overload(FLEET_SEED, shedding),
            &boundaries(&[brownout::BASE_FROM, brownout::END]),
        );
    }
}

/// `run_until` and `run` called with chunk ends drawn from a seeded RNG
/// — bursts of one- to three-cycle hops, short hops and long spans —
/// must land exactly where the per-cycle loop does. This catches
/// off-by-ones where the skip is capped at the target, and the bursts
/// query the horizon on the cycle just before an event. Every wire
/// fault class is on, so duplicated, corrupted and reordered frames
/// (released from the segment's delay queue) cross chunk boundaries
/// too.
#[test]
fn fleet_skip_matches_step_at_random_chunk_boundaries() {
    let mut cfg = FleetConfig::retry_storm(7, false);
    cfg.faults = NetFaultConfig::lossy(0x0dd5, 20_000);
    let mut skipped = Fleet::new(cfg);
    let mut stepped = Fleet::new(cfg);
    let mut rng = SmallRng::seed_from_u64(0xc4a2_7e11);
    let mut chunk = 0;
    while skipped.cycle() < storm::SLOW_FROM + 200_000 {
        let (hops, max_len) = match rng.gen_range(0..4u32) {
            0 => (5_000, 4),
            1 => (1, 700),
            2 => (1, 20_000),
            _ => (1, 150_000),
        };
        let mut target = skipped.cycle();
        for hop in 0..hops {
            let len = rng.gen_range(1..max_len);
            target += len;
            if (chunk + hop) % 2 == 0 {
                skipped.run_until(target);
            } else {
                skipped.run(len);
            }
            assert_eq!(skipped.cycle(), target, "chunk {chunk} hop {hop} missed its target");
        }
        step_until(&mut stepped, target);
        assert_eq!(skipped.stats_json(), stepped.stats_json(), "chunk {chunk} ending at {target}");
        assert_eq!(skipped.segment_stats(), stepped.segment_stats(), "chunk {chunk}");
        chunk += 1;
    }
    assert!(chunk > 50, "only {chunk} chunks");
    assert!(skipped.segment_stats().fault_reorders > 0, "no reordered frames exercised");
    assert_fleets_identical("random chunks", &skipped, &stepped);
}

/// A snapshot cut in the middle of an idle span — neither on an event
/// nor on the cycle before one — resumes identically under either
/// driver and matches the uninterrupted fleet.
#[test]
fn fleet_snapshot_mid_idle_span_resumes_under_either_driver() {
    let cfg = FleetConfig::crash_failover(FLEET_SEED);
    let end = crash::KILL_AT;
    let mut original = Fleet::new(cfg);
    original.run_until(crash::BASE_FROM);
    while original.next_event() < original.cycle() + 1_000 {
        original.step();
    }
    let (now, next) = (original.cycle(), original.next_event());
    original.run_until(now + (next - now) / 2);
    assert!(original.next_event() == next && next > original.cycle() + 1, "not mid-span");
    let snap = original.save_snapshot();

    let mut skipped = Fleet::new(cfg);
    skipped.load_snapshot(&snap).unwrap();
    let mut stepped = Fleet::new(cfg);
    stepped.load_snapshot(&snap).unwrap();
    assert_eq!(skipped.next_event(), next, "the event horizon is derived, not stored");
    original.run_until(end);
    skipped.run_until(end);
    step_until(&mut stepped, end);
    assert_fleets_identical("resumed, skipping", &skipped, &stepped);
    assert_fleets_identical("uninterrupted vs resumed", &original, &stepped);
}
