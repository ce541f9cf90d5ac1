#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash perfbench/run.sh --workload <transductive|serve_open|propagate_large> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The build is offline against the
# repository's vendored crates; without the repository's sources next
# to this directory there is nothing to measure, so it stops here.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/crates/core/Cargo.toml" || ! -f "$root/.cargo/config.toml" ]]; then
    echo "perfbench: repository sources not found next to $here; nothing to build" >&2
    exit 2
fi
cd "$root"
exec cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- "$@"
