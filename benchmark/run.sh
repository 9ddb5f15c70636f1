#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repository
# root. Flags are the runner's; see benchmark/README.md.
#
#   benchmark/run.sh                        every workload, report, benchmark/out/latest.json
#   benchmark/run.sh --smoke                the same at 1/50 size (<20 s)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                           one workload in this process, JSON result on the last line
#   benchmark/run.sh --compare A.json B.json
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build chatter goes to stderr so the last stdout line stays the result.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
# Ticks per second of the utime/stime fields in /proc/self/stat.
CLK_TCK="$(getconf CLK_TCK)"
export CLK_TCK
exec "$target/release/dpdpu-benchmark" "$@"
