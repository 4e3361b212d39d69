#!/usr/bin/env bash
# Tier-1 verification: the workspace must build and test fully offline,
# with no registry dependencies anywhere. Run from any directory.
#
#   scripts/verify.sh
#
# Exits non-zero if (a) any Cargo.toml declares a non-path dependency,
# (b) a Cargo.lock references a crate outside the tree, (c) the offline
# build or test run fails, (d) the entrant roster is spelled out in a second
# file, (e) an event record or a registry lookup bypasses the typed/pre-resolved
# obs path, (f) a driver drains the sim engine outside ProtocolSim::settle, or
# (g) any wall below — allocation wall, byte-stability, paper evidence,
# cluster parity, model check (and its pinned counts), shard parity, fault
# matrix, benchmark smoke — does. The semantic lint wall is a tier-1 test
# (crates/doma-lint/tests/tree_wall.rs), run by the workspace test step.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

# ---------------------------------------------------------------------------
# Guard 1: every dependency in every manifest must be a path (or workspace =
# true, which resolves to a path in the root manifest). A version string,
# git URL or registry field means someone reintroduced a network dep.
# ---------------------------------------------------------------------------
fail=0
while IFS= read -r manifest; do
    # Inspect only dependency sections; flag entries that carry neither
    # `path = ...` nor `workspace = true`.
    bad=$(awk '
        /^\[/ { indeps = ($0 ~ /dependencies/) }
        indeps && /^[A-Za-z0-9_-]+[ \t]*=/ {
            if ($0 !~ /path[ \t]*=/ && $0 !~ /workspace[ \t]*=[ \t]*true/) print FILENAME ": " $0
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "error: non-path dependency found:" >&2
        echo "$bad" >&2
        fail=1
    fi
done < <(find . -name Cargo.toml -not -path "./target/*")

if [ "$fail" -ne 0 ]; then
    echo "verify: FAILED (hermetic-dependency guard)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Guard 2: the lockfiles (the workspace's and the benchmark crate's own) must
# contain only path packages — every package entry must carry no `source`
# field (registry packages always do). Read-only: neither file is rewritten.
# ---------------------------------------------------------------------------
for lock in Cargo.lock benchmark/Cargo.lock; do
    if grep -q '^source = ' "$lock"; then
        echo "error: $lock references external sources:" >&2
        grep -B2 '^source = ' "$lock" >&2
        echo "verify: FAILED (lockfile guard)" >&2
        exit 1
    fi
done

# ---------------------------------------------------------------------------
# Guard 3: the roster is declared once. Outside doma-algorithms, the
# contenders' constructors and the entrant label table live in
# doma-protocol's roster module only (unit-test modules included), so a
# harness cannot quietly grow its own copy of the deployment decision.
# ---------------------------------------------------------------------------
roster=crates/doma-protocol/src/roster.rs
for needle in 'CostOblivious::new' 'MobileMirror::new' 'SlidingWindowConvergent::new' \
    'WriteInvalidateCache::new' '"write-invalidate"'; do
    sites=$(grep -rlF -- "$needle" crates/*/src | grep -v '^crates/doma-algorithms/' || true)
    if [ "$sites" != "$roster" ]; then
        echo "error: $needle belongs in $roster alone, found in:" >&2
        echo "${sites:-<nowhere>}" >&2
        echo "verify: FAILED (roster declared-once guard)" >&2
        exit 1
    fi
done

# ---------------------------------------------------------------------------
# Guard 4: obs at handle price. Outside doma-obs, (a) every event record is
# an `event!`/`span!` over typed values — no direct `.record(`/`.span_enter(`
# call, which is where hand-built `("key".to_string(), v.to_string())`
# vectors came from — and (b) the metrics registry is looked up by name only
# where handles are resolved: doma-protocol's `NodeObs` (lazily, once per
# cell) and doma-sim's `Engine::set_obs`/`EngineObs`. A `.metrics().add(…)`
# on a request path is ≈200 ns of key strings, mutex and B-tree per call.
# ---------------------------------------------------------------------------
obs_src=$(find crates/*/src -name '*.rs' -not -path 'crates/doma-obs/*')
# shellcheck disable=SC2086
stringly=$(grep -nE '\.(record|span_enter)\(' $obs_src | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$stringly" ]; then
    echo "error: record events through event!/span! (typed fields), not:" >&2
    echo "$stringly" >&2
    echo "verify: FAILED (typed event record guard)" >&2
    exit 1
fi
# shellcheck disable=SC2086
by_name=$(awk '
    /\.metrics\(\)[ \t]*(;|\.(add|counter)\()/ { print FILENAME }
    chained && /^[ \t]*\.(add|counter)\(/ { print FILENAME }
    { chained = ($0 ~ /\.metrics\(\)[ \t]*$/) }
' $obs_src | sort -u | tr '\n' ' ')
if [ "$by_name" != "crates/doma-protocol/src/obs.rs crates/doma-sim/src/engine.rs " ]; then
    echo "error: the metrics registry is resolved by name outside NodeObs / Engine::set_obs:" >&2
    echo "${by_name:-<nowhere>}" >&2
    echo "verify: FAILED (pre-resolved counter guard)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Guard 5: one budgeted settle. Outside doma-sim, the engine is drained only
# by `ProtocolSim::settle`, which turns a tripped event budget into an error;
# a bare `run_until_idle()` elsewhere would let the budget trip silently and
# leave a half-run queue for the next request. Unit-test modules, tests/ and
# examples/ included.
# ---------------------------------------------------------------------------
idle_files=$(grep -rlF --include='*.rs' 'run_until_idle(' crates/*/src tests examples |
    grep -v '^crates/doma-sim/' || true)
# shellcheck disable=SC2086
idle=$(awk '
    /fn [A-Za-z0-9_]+[<(]/ { match($0, /fn [A-Za-z0-9_]+/); f = substr($0, RSTART + 3, RLENGTH - 3) }
    /run_until_idle\(/ && !/^[ \t]*\/\// { print FILENAME ": fn " f }
' $idle_files < /dev/null | sort -u | tr '\n' ' ')
if [ "$idle" != "crates/doma-protocol/src/sim.rs: fn settle " ]; then
    echo "error: drain the engine through ProtocolSim::settle, not run_until_idle():" >&2
    echo "${idle:-<nowhere>}" >&2
    echo "verify: FAILED (one budgeted settle guard)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Static-analysis wall: formatting, and clippy at -D warnings — which also
# enforces the per-file bans (clippy.toml: threads, wall clock, env, hash
# iteration, sockets; crate pragmas: no panics, ad hoc prints or wildcard
# enum arms in protocol code). A sanctioned exception is an #[expect] at its
# site, and one that stops firing fails here as unfulfilled_lint_expectations.
# ---------------------------------------------------------------------------
if ! cargo fmt --check; then
    echo "verify: FAILED (cargo fmt --check; run 'cargo fmt' and re-verify)" >&2
    exit 1
fi
if ! cargo clippy --workspace --offline --all-targets -q -- -D warnings; then
    echo "verify: FAILED (clippy -D warnings)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Build + test, fully offline. `--workspace`: the root package alone does
# not build the `domactl` binary the walls below drive.
# ---------------------------------------------------------------------------
cargo build --release --offline --workspace

# ---------------------------------------------------------------------------
# Determinism helper: `same_bytes <label> <cmd…>` runs the command twice,
# keeps the first run's stdout in $out/<label> for the key-presence checks
# below, and fails the wall unless both runs exit 0 with identical bytes —
# the bar every byte-stable export (obs, tournament, scenario, trace)
# is held to, checked end to end through the CLI.
# ---------------------------------------------------------------------------
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
domactl=./target/release/domactl

same_bytes() {
    local label=$1
    shift
    if ! "$@" > "$out/$label"; then
        cat "$out/$label" >&2
        echo "verify: FAILED ($label: '$*' exited non-zero)" >&2
        exit 1
    fi
    if ! "$@" > "$out/$label.again" || ! cmp -s "$out/$label" "$out/$label.again"; then
        echo "verify: FAILED ($label: '$*' differs across identical runs)" >&2
        exit 1
    fi
}

# `has_keys <label> <key…>`: every key must appear in $out/<label>.
has_keys() {
    local label=$1 key
    shift
    for key in "$@"; do
        if ! grep -qF -- "$key" "$out/$label"; then
            echo "verify: FAILED ($label output missing $key)" >&2
            exit 1
        fi
    done
}

# ---------------------------------------------------------------------------
# Tier-1 tests, the semantic lint wall among them: doma-lint's token-tree
# rules (lock-order, message-flow, obs/span catalogs, fp-ordering, lint
# headers) over this checkout must report no finding
# (crates/doma-lint/tests/tree_wall.rs).
# ---------------------------------------------------------------------------
cargo test -q --offline --workspace

# ---------------------------------------------------------------------------
# Allocation wall, in the build the benchmark measures: with obs attached,
# and with request spans on top, a warm request allocates exactly as often
# as a detached one (tests/alloc_wall.rs) — the regression gate for Guard
# 4's mechanisms that needs no quiet box.
# ---------------------------------------------------------------------------
if ! cargo test -q --offline --release --test alloc_wall; then
    echo "verify: FAILED (allocation wall, release build)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Byte-stability table: each row is one CLI export that must be identical
# across two invocations, plus the keys its JSON must carry.
#   obs        — the doma-obs snapshot contract.
#   tournament — a small six-entrant tournament through the protocol sim:
#                the stable-bench contract for BENCH_tournament.json. It
#                must name exactly the six roster labels, so a roster change
#                updates this wall on purpose.
#   scenario   — every builtin scenario with obs attached; `domactl scenario`
#                exits non-zero if any expected-invariant block (cost vs OPT,
#                t-availability, churn ceilings, obs parity, golden digest)
#                is violated.
#   trace      — the doma-trace contract (virtual-tick timestamps, stable
#                span/message ordering) on the Chrome trace-event export.
# ---------------------------------------------------------------------------
same_bytes obs "$domactl" obs --schedule "r2 w3 r2 r1 w0 r3 w2 r0" --algo da
has_keys obs '"metrics"' '"events"' '"dropped_events"'

same_bytes tournament "$domactl" tournament --n 5 --len 12 --seed 3 --format json
has_keys tournament '"group": "tournament"' '"attachment": "tournament/spec"'
roster_labels='sa da convergent write-invalidate cost-oblivious mobile-mirror'
algos=$(grep -o '"algo": "[^"]*"' "$out/tournament" | cut -d'"' -f4 | sort -u | tr '\n' ' ')
# shellcheck disable=SC2086
expected=$(printf '%s\n' $roster_labels | sort | tr '\n' ' ')
if [ "$algos" != "$expected" ]; then
    echo "error: tournament entrants are '$algos', expected exactly: $roster_labels" >&2
    echo "verify: FAILED (tournament roster labels)" >&2
    exit 1
fi

same_bytes scenario "$domactl" scenario all --format json
has_keys scenario '"scenario": "append-only-6-2"' '"scenario": "trace-replay"' \
    '"scenario": "mobile-handoff"' '"passed": true' '"digest": "0x'
if grep -qF '"passed": false' "$out/scenario"; then
    echo "verify: FAILED (a builtin scenario reported passed: false)" >&2
    exit 1
fi

same_bytes trace "$domactl" trace append-only-6-2 --format chrome
has_keys trace '"traceEvents"' '"ph": "X"' '"protocol.request"' '"cp": "1"'
if ! "$domactl" trace append-only-6-2 --top 5 > "$out/trace_table"; then
    echo "verify: FAILED (domactl trace table report)" >&2
    exit 1
fi
has_keys trace_table "slowest 5 of"

# ---------------------------------------------------------------------------
# Paper evidence: `repro all` (every figure, theorem and extension row that
# EXPERIMENTS.md quotes) must reproduce the committed repro_full_output.md
# byte for byte. A deliberate change regenerates the file in the same commit
# and says in CHANGES.md which rows moved and why.
# ---------------------------------------------------------------------------
if ! ./target/release/repro all > "$out/repro" || ! cmp -s "$out/repro" repro_full_output.md; then
    diff repro_full_output.md "$out/repro" | head -40 >&2 || true
    echo "verify: FAILED (repro all differs from repro_full_output.md)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Cluster-parity wall: the real runtime (doma-net) must reproduce the
# deterministic sim twin exactly — §6.2 append-only scenario over Unix
# domain sockets on loopback, 3 nodes, same seed and request schedule ⇒
# identical allocation-scheme trajectory, cost totals and protocol obs
# metrics. Fully offline (loopback only). Sandboxes that refuse sockets
# print a notice and skip; anything else is a wall failure.
# ---------------------------------------------------------------------------
if ! "$domactl" cluster append-only-6-2 --nodes 3 --transport uds > "$out/cluster" 2>&1; then
    cat "$out/cluster" >&2
    echo "verify: FAILED (cluster diverged from the sim oracle)" >&2
    exit 1
fi
sockets=1
if grep -q "notice: sockets unavailable" "$out/cluster"; then
    echo "verify: NOTICE (sockets unavailable in this sandbox; cluster-parity wall skipped)"
    sockets=0
elif ! grep -q "parity: MATCH" "$out/cluster"; then
    cat "$out/cluster" >&2
    echo "verify: FAILED (cluster run produced no parity verdict)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Exhaustive small-bound model check: every built-in checker scenario
# (3–5 processors, up to 6 requests) must be explored to completion with
# zero violations by doma-fault's `doma-check` binary. Exit 1 =
# counterexample (the tool prints the replayable trace); exit 2 = a budget
# was hit, which also fails tier-1 because the built-ins are sized to finish.
# Its report — state, transition, dedup and prune counts per scenario —
# must equal tests/golden/doma_check.txt, which EXPERIMENTS.md cites: a
# change that moves a count regenerates it and says why.
# ---------------------------------------------------------------------------
if ! cargo run -q --release --offline -p doma-fault --bin doma-check > "$out/doma_check"; then
    cat "$out/doma_check" >&2
    echo "verify: FAILED (doma-check exhaustive small-bound scenarios)" >&2
    exit 1
fi
cat "$out/doma_check"
if ! cmp -s "$out/doma_check" tests/golden/doma_check.txt; then
    diff tests/golden/doma_check.txt "$out/doma_check" >&2 || true
    echo "regenerate: cargo run -q --release --offline -p doma-fault --bin doma-check > tests/golden/doma_check.txt" >&2
    echo "verify: FAILED (doma-check differs from tests/golden/doma_check.txt)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Shard parity: object-sharded execution must reproduce the sequential
# driver exactly — report, holders and obs registry — for every shard
# count × placement cell (K=1 runs the serial in-thread worker path).
# ---------------------------------------------------------------------------
if ! cargo test -q --offline -p doma-protocol --test shard_parity; then
    echo "verify: FAILED (shard parity matrix)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Fault matrix: 32 seeded fault plans per cell over the full tournament
# roster — every entrant × {crash,partition,drop} and the pinned
# per-allocator regression episodes —
# with the invariant checker auditing every step. On a violation the
# harness itself prints the exact `DOMA_FAULT_SEED=…` replay line; the hint
# below covers infrastructure failures (build breaks, panics outside the
# harness).
# ---------------------------------------------------------------------------
if ! DOMA_FAULT_SEEDS=32 cargo test -q --offline --test fault_torture; then
    echo "verify: FAILED (fault matrix)" >&2
    echo "hint: rerun one episode with DOMA_FAULT_SEED=0x<seed> cargo test --test fault_torture <cell>," >&2
    echo "      using the seed from the 'replay:' line above; its report shows every replica." >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Perf wall: the one stopwatch. `benchmark/run.sh --smoke` builds the
# benchmark crate against this tree (so a change under crates/ that stops
# it compiling fails here, not only in the pipeline) and runs all three
# workloads at one-tenth size with every check on — sim/shard/cluster
# agreement, ok_share, cost_per_req, layer attribution; then the
# benchmark's own unit tests. Neither may leave a trace in benchmark/
# (a rewritten benchmark/Cargo.lock means a dependency edge among the
# crates it links changed). The smoke run opens sockets, so it is skipped
# with the cluster-parity wall's notice where the sandbox refuses them.
# ---------------------------------------------------------------------------
if [ "$sockets" -eq 0 ]; then
    echo "verify: NOTICE (sockets unavailable in this sandbox; benchmark smoke skipped)"
else
    if ! benchmark/run.sh --smoke > "$out/smoke" 2> "$out/smoke.err"; then
        cat "$out/smoke.err" "$out/smoke" >&2
        echo "verify: FAILED (benchmark/run.sh --smoke)" >&2
        exit 1
    fi
    if ! (cd benchmark && cargo test --offline -q); then
        echo "verify: FAILED (benchmark crate unit tests)" >&2
        exit 1
    fi
fi
dirty=$(git status --porcelain benchmark/ 2> /dev/null || true) # no-op outside a git checkout
if [ -n "$dirty" ]; then
    echo "$dirty" >&2
    echo "verify: FAILED (benchmark/ is not clean after the smoke run)" >&2
    exit 1
fi

echo "verify: OK"
