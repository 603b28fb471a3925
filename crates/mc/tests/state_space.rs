//! Pins the explored state spaces.
//!
//! The explorer hash-conses states by an encoded footprint and expands
//! each one on forks of a single prefix replay; a change to either that
//! merged or split states would move these counts. The sizes are the
//! §3 table of EXPERIMENTS.md (values = 2, BFS run to its fixpoint).

use firefly_core::protocol::{Protocol, ProtocolKind};
use firefly_mc::explore::{explore, explore_with, McConfig, McReport};
use firefly_mc::mutate::record_exercise;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Far past every closing depth in the table (the deepest, Tardis, is 14).
const DEPTH: usize = 24;

/// The table's columns: `(caches, words, cache lines)`.
const COLUMNS: [(usize, u32, usize); 4] = [(2, 1, 4), (3, 1, 4), (2, 2, 4), (2, 2, 1)];

/// `(states, transitions)` per protocol, in [`COLUMNS`] order.
const SPACES: [(ProtocolKind, [(usize, usize); 4]); 7] = [
    (ProtocolKind::Firefly, [(22, 132), (40, 360), (484, 5_808), (397, 4_764)]),
    (ProtocolKind::WriteThrough, [(12, 72), (24, 216), (144, 1_728), (81, 972)]),
    (ProtocolKind::WriteOnce, [(22, 132), (40, 360), (484, 5_808), (393, 4_716)]),
    (ProtocolKind::Berkeley, [(12, 72), (32, 288), (144, 1_728), (577, 6_924)]),
    (ProtocolKind::Illinois, [(18, 108), (34, 306), (324, 3_888), (397, 4_764)]),
    (ProtocolKind::Dragon, [(12, 72), (32, 288), (144, 1_728), (685, 8_220)]),
    (ProtocolKind::Tardis, [(66, 396), (394, 3_546), (34_184, 410_208), (18_679, 224_148)]),
];

fn column(kind: ProtocolKind, (caches, words, lines): (usize, u32, usize)) -> McConfig {
    McConfig::new(kind)
        .with_caches(caches)
        .with_words(words)
        .with_cache_lines(lines)
        .with_depth(DEPTH)
}

fn assert_clean(r: &McReport, what: &str) {
    assert!(r.violation.is_none(), "{what}: {:?}", r.violation);
    assert!(r.complete, "{what}: the space did not close by depth {DEPTH}");
}

#[test]
fn explored_spaces_match_the_published_table() {
    for (kind, sizes) in SPACES {
        for (col, want) in COLUMNS.into_iter().zip(sizes) {
            let what = format!("{kind:?} {col:?}");
            let r = explore(&column(kind, col));
            assert_clean(&r, &what);
            assert_eq!((r.states, r.transitions), want, "{what}: (states, transitions)");
        }
    }
}

/// A clean exploration builds one set of tables for the reset state and
/// one per transition, so a caller that meters work through the factory
/// (a benchmark sampling a clock every N builds) sees the same cadence
/// whether a state is expanded by replays or by forks.
#[test]
fn clean_exploration_builds_one_table_set_per_transition() {
    for cfg in [McConfig::new(ProtocolKind::Tardis), McConfig::new(ProtocolKind::Firefly)] {
        let what = format!("{:?} {}c x {}w", cfg.protocol, cfg.caches, cfg.words);
        let builds = AtomicUsize::new(0);
        let factory = || -> Box<dyn Protocol> {
            builds.fetch_add(1, Ordering::Relaxed);
            cfg.base_tables()
        };
        let r = explore_with(&cfg, Some(&factory));
        assert_clean(&r, &what);
        assert_eq!(builds.into_inner(), 1 + r.transitions, "{what}: factory calls");
    }
}

/// The recording pass sees every table entry a replay-per-transition
/// explorer saw: the mutation pass generates mutants from this log.
#[test]
fn exercise_logs_are_pinned() {
    let (log, r) = record_exercise(&McConfig::new(ProtocolKind::Firefly));
    assert_clean(&r, "Firefly");
    assert_eq!(log.read_fill_shared, [true, true]);
    assert_eq!(log.write_hit, [false, true, true, true, false]);
    assert_eq!(log.after_write, BTreeSet::from([(2, 2, true)]));
    assert_eq!(log.snoop, BTreeSet::from([(1, 0), (1, 2), (2, 2), (3, 0), (3, 2)]));
    assert!(!log.ts_write && !log.ts_fill_unequal && !log.ts_expired);

    let (log, r) = record_exercise(&McConfig::new(ProtocolKind::Tardis));
    assert_clean(&r, "Tardis");
    assert_eq!(log.read_fill_shared, [true, true]);
    assert_eq!(log.write_hit, [false, true, true, true, false]);
    assert_eq!(log.after_write, BTreeSet::from([(2, 5, false)]));
    assert_eq!(log.snoop, BTreeSet::from([(1, 0), (1, 1), (2, 5), (2, 6), (3, 0), (3, 1)]));
    assert!(log.ts_write && log.ts_fill_unequal && log.ts_expired);

    let cfg = column(ProtocolKind::Dragon, (2, 2, 1));
    let (log, r) = record_exercise(&cfg);
    assert_clean(&r, "Dragon 1-line");
    assert_eq!(log.read_fill_shared, [true, true]);
    assert_eq!(log.write_hit, [false, true, true, true, true]);
    assert_eq!(
        log.after_write,
        BTreeSet::from([(2, 4, false), (2, 4, true), (4, 4, false), (4, 4, true)])
    );
    assert_eq!(log.snoop, BTreeSet::from([(1, 0), (2, 0), (2, 3), (2, 4), (3, 0), (4, 0), (4, 4)]));
    assert!(!log.ts_write && !log.ts_fill_unequal && !log.ts_expired);
}
