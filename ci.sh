#!/usr/bin/env bash
# The canonical pre-PR check (see EXPERIMENTS.md). Fails fast, in the
# order cheapest-to-diagnose first: formatting, lints, then the tier-1
# build-and-test gate from ROADMAP.md, then the full workspace suite
# (integration tests, doctests, every crate).
#
# FIREFLY_JOBS controls the experiment harness's worker-pool width for
# any sweeps the tests run; the results are bit-identical at any width.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== cargo test --workspace -q"
cargo test --workspace -q

echo "== fault_sweep --smoke"
cargo run --release -p firefly-bench --bin fault_sweep -- --smoke

echo "== model_check --smoke"
cargo run --release -p firefly-bench --bin model_check -- --smoke

echo "== model_check --protocol tardis --smoke (two-word lease-expiry space)"
# A Tardis-only run defaults to two tracked words, reaching the lease
# renewal paths (and the renewal-dependent timestamp mutants) that the
# all-protocol single-word smoke cannot.
cargo run --release -p firefly-bench --bin model_check -- --protocol tardis --smoke

echo "== soak --smoke (chaos kill/restore + resume equivalence)"
cargo run --release -p firefly-bench --bin soak -- --smoke

echo "== checkpoint/resume equivalence gate (deterministic across widths)"
a="$(FIREFLY_JOBS=1 cargo run --release -q -p firefly-bench --bin soak -- --smoke --json)"
b="$(FIREFLY_JOBS=4 cargo run --release -q -p firefly-bench --bin soak -- --smoke --json)"
if [ "$a" != "$b" ]; then
    echo "soak --smoke --json differs between FIREFLY_JOBS=1 and 4" >&2
    exit 1
fi

echo "== rpc_bandwidth --smoke (§6 4.6 Mb/s claim)"
cargo run --release -p firefly-bench --bin rpc_bandwidth -- --smoke > /dev/null

echo "== bench: engine_bench --smoke -> BENCH_6.json + schema check"
cargo run --release -p firefly-bench --bin engine_bench -- --smoke --out BENCH_6.json
cargo run --release -p firefly-bench --bin bench_check -- BENCH_6.json

echo "== bench: fleet --smoke -> BENCH_7.json + schema/gate check"
cargo run --release -p firefly-bench --bin fleet -- --smoke --out BENCH_7.json
cargo run --release -p firefly-bench --bin bench_check -- BENCH_7.json

echo "== bench: arbiter_sweep --smoke -> BENCH_8.json + schema/gate check"
cargo run --release -p firefly-bench --bin arbiter_sweep -- --smoke --out BENCH_8.json
cargo run --release -p firefly-bench --bin bench_check -- BENCH_8.json

echo "== arbiter sweep determinism gate (bit-identical across widths)"
a="$(FIREFLY_JOBS=1 cargo run --release -q -p firefly-bench --bin arbiter_sweep -- --smoke --json --out /tmp/bench8-j1.json)"
b="$(FIREFLY_JOBS=4 cargo run --release -q -p firefly-bench --bin arbiter_sweep -- --smoke --json --out /tmp/bench8-j4.json)"
rm -f /tmp/bench8-j1.json /tmp/bench8-j4.json
if [ "$a" != "$b" ]; then
    echo "arbiter_sweep --smoke --json differs between FIREFLY_JOBS=1 and 4" >&2
    exit 1
fi

echo "== bench: partition --smoke -> BENCH_10.json + schema/gate check"
cargo run --release -p firefly-bench --bin partition -- --smoke --out BENCH_10.json
cargo run --release -p firefly-bench --bin bench_check -- BENCH_10.json

echo "== partition determinism gate (bit-identical across widths)"
a="$(FIREFLY_JOBS=1 cargo run --release -q -p firefly-bench --bin partition -- --smoke --json --out /tmp/bench10-j1.json)"
b="$(FIREFLY_JOBS=4 cargo run --release -q -p firefly-bench --bin partition -- --smoke --json --out /tmp/bench10-j4.json)"
rm -f /tmp/bench10-j1.json /tmp/bench10-j4.json
if [ "$a" != "$b" ]; then
    echo "partition --smoke --json differs between FIREFLY_JOBS=1 and 4" >&2
    exit 1
fi

echo "== fleet determinism gate (bit-identical across widths)"
a="$(FIREFLY_JOBS=1 cargo run --release -q -p firefly-bench --bin fleet -- --smoke --json --out /tmp/bench7-j1.json)"
b="$(FIREFLY_JOBS=4 cargo run --release -q -p firefly-bench --bin fleet -- --smoke --json --out /tmp/bench7-j4.json)"
rm -f /tmp/bench7-j1.json /tmp/bench7-j4.json
if [ "$a" != "$b" ]; then
    echo "fleet --smoke --json differs between FIREFLY_JOBS=1 and 4" >&2
    exit 1
fi

echo "== model_check determinism gate (bit-identical across widths)"
for args in "--smoke --json" "--protocol tardis --smoke --json"; do
    # shellcheck disable=SC2086 # $args is a flag list
    a="$(FIREFLY_JOBS=1 cargo run --release -q -p firefly-bench --bin model_check -- $args)"
    # shellcheck disable=SC2086
    b="$(FIREFLY_JOBS=4 cargo run --release -q -p firefly-bench --bin model_check -- $args)"
    if [ "$a" != "$b" ]; then
        echo "model_check $args differs between FIREFLY_JOBS=1 and 4" >&2
        exit 1
    fi
done

echo "== trace smoke: protocol_compare --smoke --trace + trace_check"
trace_file="$(mktemp /tmp/firefly-trace.XXXXXX.json)"
trap 'rm -f "$trace_file"' EXIT
cargo run --release -p firefly-bench --bin protocol_compare -- --smoke --trace "$trace_file"
cargo run --release -p firefly-bench --bin trace_check -- "$trace_file"

echo "ci.sh: all checks passed"
