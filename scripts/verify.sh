#!/usr/bin/env bash
# The checks tier 1 cannot run. `cargo build --release && cargo test -q` at
# the root is the wall: the root manifest's `default-members` puts every
# crate in it, so the lint wall (tree rules included), the golden scenario
# and model-checker walls, shard parity and every crate's unit tests run
# there. This script keeps only what needs more than a debug `cargo test`:
#
#   scripts/verify.sh
#
#   Guards 1–2     no registry dependency in any manifest or lockfile — a
#                  fact about the files cargo reads before any test exists;
#   fmt, clippy    the linters (clippy.toml's per-file bans at -D warnings);
#   build + test   the release build the walls below drive, then tier 1;
#   alloc wall     tests/alloc_wall.rs in release, the build the benchmark
#                  measures;
#   repro all      == repro_full_output.md (≈15 s in release, too slow for
#                  a debug test run);
#   cluster        sim/socket parity, every scenario over UDS and TCP;
#   fault matrix   32 seeds per cell (tier 1 runs the default count);
#   benchmark      the standalone benchmark crate's release build and unit
#                  tests, always; benchmark/run.sh --smoke, which opens
#                  sockets, where the sandbox allows them.
#
# Ends in `verify: OK`. Run from any directory.
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
if ! cargo clippy --offline --all-targets -q -- -D warnings; then
    echo "verify: FAILED (clippy -D warnings)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Tier 1, fully offline: the release build (domactl, doma-check) and every
# test of every crate.
# ---------------------------------------------------------------------------
cargo build --release --offline
cargo test -q --offline

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
domactl=./target/release/domactl

# ---------------------------------------------------------------------------
# Allocation wall, in the build the benchmark measures: with obs attached,
# and with request spans on top, a warm request allocates exactly as often
# as a detached one (tests/alloc_wall.rs) — the regression gate for the
# pre-resolved counter handles that needs no quiet box.
# ---------------------------------------------------------------------------
if ! cargo test -q --offline --release --test alloc_wall; then
    echo "verify: FAILED (allocation wall, release build)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Paper evidence: `repro all` (every figure, theorem and extension row that
# EXPERIMENTS.md quotes) must reproduce the committed repro_full_output.md
# byte for byte. A deliberate change regenerates the file in the same commit
# and says in CHANGES.md which rows moved and why.
# ---------------------------------------------------------------------------
if ! "$domactl" repro all > "$out/repro" || ! cmp -s "$out/repro" repro_full_output.md; then
    diff repro_full_output.md "$out/repro" | head -40 >&2 || true
    echo "regenerate: ./target/release/domactl repro all > repro_full_output.md" >&2
    echo "verify: FAILED (repro all differs from repro_full_output.md)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Cluster-parity wall: the real runtime (doma-net) must reproduce the
# deterministic sim twin exactly — every failure-free built-in scenario
# (`cluster all`) over Unix domain sockets and over TCP on loopback, same
# seed and request schedule ⇒ identical allocation-scheme trajectory, cost
# totals and protocol obs metrics, one `parity: MATCH` per scenario. Fully
# offline (loopback only). Sandboxes that refuse sockets print a notice and
# skip; anything else is a wall failure.
# ---------------------------------------------------------------------------
sockets=1
failed=" "
"$domactl" cluster all --transport uds > "$out/cluster-uds" 2>&1 || failed+="uds "
"$domactl" cluster all --transport tcp > "$out/cluster-tcp" 2>&1 || failed+="tcp "
for transport in uds tcp; do
    log="$out/cluster-$transport"
    if [[ "$failed" == *" $transport "* ]]; then
        cat "$log" >&2
        echo "verify: FAILED (cluster over $transport diverged from the sim oracle)" >&2
        exit 1
    fi
    if grep -q "notice: sockets unavailable" "$log"; then
        echo "verify: NOTICE (sockets unavailable in this sandbox; cluster-parity wall skipped)"
        sockets=0
        break
    fi
    runs=$(grep -c "^cluster .* requests)$" "$log" || true)
    matches=$(grep -c "parity: MATCH" "$log" || true)
    if [ "$runs" -eq 0 ] || [ "$matches" -ne "$runs" ]; then
        cat "$log" >&2
        echo "verify: FAILED (cluster over $transport: $matches parity verdicts for $runs scenarios)" >&2
        exit 1
    fi
done

# ---------------------------------------------------------------------------
# Fault matrix: 32 seeded fault plans per cell over the full tournament
# roster — every entrant × {crash,partition,drop} and the pinned
# per-allocator regression episodes — with the invariant checker auditing
# every step. On a violation the harness itself prints the exact
# `DOMA_FAULT_SEED=…` replay line; the hint below covers infrastructure
# failures (build breaks, panics outside the harness).
# ---------------------------------------------------------------------------
if ! DOMA_FAULT_SEEDS=32 cargo test -q --offline --test fault_torture; then
    echo "verify: FAILED (fault matrix)" >&2
    echo "hint: rerun one episode with DOMA_FAULT_SEED=0x<seed> cargo test --test fault_torture <cell>," >&2
    echo "      using the seed from the 'replay:' line above; its report shows every replica." >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Perf wall: the one stopwatch. The benchmark crate is built against this
# tree and its own unit tests run (none opens a socket), whatever the
# sandbox allows, so a change under crates/ that stops it compiling fails
# here, not only in the pipeline. `benchmark/run.sh --smoke` then runs all
# three workloads at one-tenth size with every check on — sim/shard/cluster
# agreement, ok_share, cost_per_req, layer attribution. It opens sockets,
# so it is skipped with the cluster-parity wall's notice where the sandbox
# refuses them. Nothing may leave a trace in benchmark/ (a rewritten
# benchmark/Cargo.lock means a dependency edge among the crates it links
# changed).
# ---------------------------------------------------------------------------
if ! (cd benchmark && cargo build --release --offline -q && cargo test --offline -q); then
    echo "verify: FAILED (benchmark crate build or unit tests)" >&2
    exit 1
fi
if [ "$sockets" -eq 0 ]; then
    echo "verify: NOTICE (sockets unavailable in this sandbox; benchmark smoke skipped)"
elif ! benchmark/run.sh --smoke > "$out/smoke" 2> "$out/smoke.err"; then
    cat "$out/smoke.err" "$out/smoke" >&2
    echo "verify: FAILED (benchmark/run.sh --smoke)" >&2
    exit 1
fi
dirty=$(git status --porcelain benchmark/ 2> /dev/null || true) # no-op outside a git checkout
if [ -n "$dirty" ]; then
    echo "$dirty" >&2
    echo "verify: FAILED (benchmark/ is not clean after the smoke run)" >&2
    exit 1
fi

echo "verify: OK"
