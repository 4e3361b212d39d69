#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark crate from source
# (offline, release) and runs it from the root of the checkout:
#
#   benchmark/run.sh --workload <mix64|mix64w|append62> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
#   benchmark/run.sh --smoke [--seed N] [--out DIR]
#   benchmark/run.sh --agree <setA> <setB>
#
# The last line of stdout is the result; the table a person reads goes to
# stderr. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR means "relative to where I was called from".
if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
# Without one, benchmark/.cargo/config.toml shares the root workspace's.
target="${CARGO_TARGET_DIR:-$root/target}"

# cargo reads .cargo/config.toml from the directory it runs in.
(cd "$here" && cargo build --release --offline --quiet) >&2

# Unix-socket paths hold about 100 bytes: keep the clusters' socket
# directories inside the checkout when its path leaves room for that.
sockets="$here/out/tmp"
if (( ${#sockets} <= 60 )); then
    mkdir -p "$sockets"
    export TMPDIR="$sockets"
fi

cd "$root"
exec "$target/release/doma-benchmark" "$@"
