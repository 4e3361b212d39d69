#!/usr/bin/env bash
# benchmark/README.md's "Comparing two commits", automated: this tree
# against one of its ancestors, measured by this tree's benchmark.
#
#   scripts/bench_pairs.sh <parent-ref> [workload…]     # default: all three
#   PAIRS=10 SEED=7 KEEP=1 scripts/bench_pairs.sh HEAD~1 mix64
#
# Both sides are frozen copies under a temporary directory — the parent
# from `git archive`, this tree from its tracked and untracked files as
# they are now — each with this tree's benchmark/ and BENCHMARK.json and
# each built into a target directory of its own, so nothing is rebuilt
# between runs and editing the checkout meanwhile changes nothing. Runs
# alternate (A B, B A, …). Every run of a series takes the same --seed,
# because `--agree` compares runs of one seed only: pass a SEED nobody
# used while writing the change (default: the clock). Prints, per
# workload and end-to-end metric, both medians, the parent's
# interquartile range, the change's interquartile range as a share of
# the parent's median (marked `!` where it exceeds the metric's bound in
# BENCHMARK.json: spread that wide leaves the benchmark's check unable
# to resolve the change) and how many pairs the change won, then the
# benchmark's own `--agree` verdicts (set A = parent, set B = change).
# Exits non-zero if a run fails or `--agree` says `outside`.
#
# Takes about 70 s per run: 2 × PAIRS × workloads of them. The copies and
# results are deleted on exit unless KEEP=1 (their path is printed).
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
parent="${1:?usage: scripts/bench_pairs.sh <parent-ref> [workload…]}"
shift
workloads=("$@")
[ "${#workloads[@]}" -gt 0 ] || workloads=(mix64 mix64w append62)
pairs="${PAIRS:-10}"
seed="${SEED:-$(date +%s)}"

work="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
[ -n "${KEEP:-}" ] || trap 'rm -rf "$work"' EXIT
echo "bench_pairs: $parent (A) against this tree (B), seed $seed, $pairs pairs, under $work" >&2

mkdir -p "$work/a" "$work/b" "$work/out/a" "$work/out/b"
git -C "$repo" archive "$parent" | tar -x -C "$work/a"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard) |
    while IFS= read -r -d '' file; do
        # A tracked file deleted in the working tree is listed but absent.
        if [ -f "$repo/$file" ]; then
            (cd "$repo" && cp --parents "$file" "$work/b/")
        fi
    done
rm -rf "$work/a/benchmark"
cp -r "$work/b/benchmark" "$work/a/benchmark"
cp "$work/b/BENCHMARK.json" "$work/a/BENCHMARK.json"

for side in a b; do
    (cd "$work/$side/benchmark" &&
        CARGO_TARGET_DIR="$work/target-$side" cargo build --release --offline --quiet)
done

# One run: its stdout's last line (the result) goes to out/<side>/<w>.<i>.line.
run() {
    local side=$1 w=$2 i=$3
    CARGO_TARGET_DIR="$work/target-$side" "$work/$side/benchmark/run.sh" \
        --workload "$w" --seed "$seed" --out "$work/out/$side" \
        2>> "$work/out/$side.err" | tail -n 1 > "$work/out/$side/$w.$i.line"
    if ! grep -q '"correct": true' "$work/out/$side/$w.$i.line"; then
        echo "bench_pairs: $side $w run $i gave no correct result; see $work/out/$side.err" >&2
        trap - EXIT
        exit 1
    fi
}

for w in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then order="a b"; else order="b a"; fi
        for side in $order; do
            run "$side" "$w" "$i"
        done
        echo "bench_pairs: $w pair $((i + 1))/$pairs done" >&2
    done
done

# The value of metric $2 in result line file $1.
value() {
    grep -o "\"$2\": {\"value\": [^,}]*" "$1" | sed 's/.*: //'
}

# Which way each end-to-end metric is better, and its bound, from
# BENCHMARK.json.
directions="$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, ""); name = $2 }
    on && /"better"/ { gsub(/[",]/, ""); better = $2 }
    on && /"bound"/ { gsub(/[",]/, ""); print name, better, $2 }
' "$repo/BENCHMARK.json")"

printf '\n%-9s %-17s %14s %14s %7s %12s %13s  %s\n' \
    workload metric "median A" "median B" "B/A" "IQR A" "IQR B/med A" "B wins"
for w in "${workloads[@]}"; do
    while read -r metric better bound; do
        for ((i = 0; i < pairs; i++)); do
            echo "$(value "$work/out/a/$w.$i.line" "$metric") $(value "$work/out/b/$w.$i.line" "$metric")"
        done | awk -v w="$w" -v m="$metric" -v better="$better" -v bound="$bound" -v n="$pairs" '
            function quantile(v, q,    pos, lo) {
                pos = 1 + (n - 1) * q; lo = int(pos)
                return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
            }
            function sorted(src, dst,    i, j, t) {
                for (i = 1; i <= n; i++) dst[i] = src[i]
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
                        t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
                    }
            }
            {
                a[NR] = $1 + 0; b[NR] = $2 + 0
                if (better == "higher" ? $2 > $1 : $2 < $1) wins++
                else if ($1 != $2) losses++
            }
            END {
                sorted(a, sa); sorted(b, sb)
                ma = quantile(sa, 0.5); mb = quantile(sb, 0.5)
                spread = ma ? (quantile(sb, 0.75) - quantile(sb, 0.25)) / ma : 0
                mark = spread > bound ? "!" : " "
                printf "%-9s %-17s %14.4f %14.4f %7.3f %12.4f %10.1f%% %s  %d of %d (%d lost)\n", \
                    w, m, ma, mb, ma ? mb / ma : 0, \
                    quantile(sa, 0.75) - quantile(sa, 0.25), 100 * spread, mark, \
                    wins, n, losses
            }'
    done <<< "$directions"
done

echo
CARGO_TARGET_DIR="$work/target-b" "$work/b/benchmark/run.sh" --agree "$work/out/a" "$work/out/b"
