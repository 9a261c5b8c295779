#!/usr/bin/env bash
# Prints "<workload> <outcome digest>" for the benchmark's five workloads at
# `run --tiny --seed 7`, sorted by name.  CI diffs this against
# benchmark_tiny_digests.txt, so a change to simulated behaviour has to
# update that file on purpose:
#
#     tests/golden/benchmark_tiny_digests.sh > tests/golden/benchmark_tiny_digests.txt
set -euo pipefail
cd "$(dirname "$0")/../.."

cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --tiny --seed 7 \
    | tail -n 1 \
    | python3 -c '
import json, sys
for name, workload in sorted(json.load(sys.stdin)["workloads"].items()):
    print(name, workload["digest"])
'
