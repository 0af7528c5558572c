#!/usr/bin/env bash
# The repo's verify command: everything CI (and a reviewer) needs to
# trust a change, runnable from a clean checkout with no network.
#
#   scripts/ci.sh
#
# Steps:
#   1. hermeticity check  — all deps are path-only (scripts/check_hermetic.sh)
#   2. offline release build
#   3. offline test run   — unit, integration, and property suites
#   4. fault-matrix smoke — KV/RS/TX under loss-only, crash-only, and
#                           loss+crash fault plans: progress, no panics
#   5. chaos gate         — fixed-seed chaos schedules (amnesia/client
#                           crashes, partitions, loss), on single-server
#                           and sharded topologies: linearizable
#                           histories, recovery protocols fired, replay
#                           bit-exact
#   5b. migration gate    — live 2→4 reshard fired mid-chaos-run by a
#                           control event: linearizable through the
#                           move, zero lost / duplicate blocks, replay
#                           bit-exact (run explicitly so a filter change
#                           in the chaos suite can't silently drop it)
#   6. corruption matrix  — seeded bit flips, torn writes, and at-rest
#                           rot: every injected fault detected or
#                           repaired, counter conservation holds, and a
#                           no-corruption plan stays bit-identical
#   6b. durability gate   — segment-log recovery economics: intact-log
#                           delta resync strictly below wiped-disk full
#                           resync, torn tails truncated and healed,
#                           rotted frames never served, KV write-ahead
#                           tears provably empty, and the preload-
#                           linearity gate (a KV preload writes the same
#                           disk bytes in each key quarter, within 5%);
#                           plus the segment format fuzz (mutated/
#                           truncated frames and manifest edit frames
#                           decode to typed errors, never panic or pass;
#                           legacy manifests still decode) and the
#                           manifest-edit checks (one edit frame per
#                           roll, bytes written per append bounded
#                           independent of history length)
#   7. open-loop smoke    — coordinated-omission regression (stalled
#                           server: open-loop p99 >> closed-loop p99),
#                           bit-exact open-loop sweep replay, and a
#                           bit-exact 4-shard sharded sweep replay
#                           (cluster routing + cross-shard doorbells)
#   7b. gray gate         — gray failures (stragglers, reply-leg
#                           partitions, flapping links) vs the
#                           tail-tolerance stack: linearizable hedged
#                           and unhedged, hedged p99 bounded under one
#                           straggling shard, goodput held at 2x past
#                           the knee, zero-knob plans bit-identical to
#                           the pre-gray golden schedule
#   8. second-seed pass   — fault matrix + chaos gate (incl. migration
#                           gate) + corruption matrix + durability gate
#                           (incl. the preload-linearity gate) + store
#                           properties (incl. the manifest-edit checks)
#                           + open-loop smoke + gray gate again under a
#                           different PRISM_TEST_SEED, so the gates
#                           don't ossify around one lucky schedule
#   9. bench smoke        — substrate benches at 50 ms/bench, so a perf
#                           regression that breaks the bench harness (or
#                           an arena change that deadlocks it) fails CI
#  10. cargo fmt --check  — skipped with a notice if rustfmt is absent
#  11. cargo clippy       — -D warnings; skipped with a notice if
#                           clippy is not installed
#
# The property suites print a PRISM_TEST_SEED on failure; re-run the
# named test with that env var to reproduce the exact failing input.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== hermeticity =="
./scripts/check_hermetic.sh

echo "== build (release, offline) =="
cargo build --release --offline

echo "== test (offline) =="
cargo test -q --offline

echo "== fault-matrix smoke (loss / crash / loss+crash) =="
cargo test -q --offline -p prism-harness --test fault_matrix

echo "== chaos gate (fixed-seed linearizability under amnesia) =="
cargo test -q --offline -p prism-harness --test chaos_gate

echo "== migration gate (live 2->4 reshard under chaos) =="
cargo test -q --offline -p prism-harness --test chaos_gate \
    rs_migration_chaos_stays_linearizable_through_live_reshard

echo "== corruption matrix (bit flips / torn writes / rot) =="
cargo test -q --offline -p prism-harness --test corruption_matrix

echo "== durability gate (segment replay vs delta resync, preload linearity, manifest edits) =="
cargo test -q --offline -p prism-harness --test durability_gate \
    --test store_properties

echo "== open-loop smoke (CO regression + bit-exact replay) =="
cargo test -q --offline -p prism-harness --test openloop_smoke

echo "== gray gate (stragglers / hedging / shedding / zero-knob identity) =="
cargo test -q --offline -p prism-harness --test gray_gate

echo "== second-seed pass (fault matrix + chaos gate + corruption matrix + durability gate + store properties + open-loop smoke + gray gate) =="
PRISM_TEST_SEED=1806242025 cargo test -q --offline -p prism-harness \
    --test fault_matrix --test chaos_gate --test corruption_matrix \
    --test durability_gate --test store_properties \
    --test openloop_smoke --test gray_gate

echo "== migration gate, second seed =="
PRISM_TEST_SEED=1806242025 cargo test -q --offline -p prism-harness \
    --test chaos_gate \
    rs_migration_chaos_stays_linearizable_through_live_reshard

echo "== bench smoke (substrate, 50 ms/bench) =="
PRISM_BENCH_MS=50 cargo bench -q --offline -p prism-bench --bench substrate

if command -v rustfmt >/dev/null 2>&1; then
    echo "== fmt =="
    cargo fmt --check
else
    echo "== fmt skipped (rustfmt not installed) =="
fi

if command -v cargo-clippy >/dev/null 2>&1; then
    echo "== clippy (-D warnings) =="
    cargo clippy -q --offline --all-targets -- -D warnings
else
    echo "== clippy skipped (clippy not installed) =="
fi

echo "ci.sh: all checks passed"
