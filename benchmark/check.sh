#!/usr/bin/env bash
# Smoke test of the benchmark: build offline, run the unit tests, run every
# workload in --tiny mode with all output checks on, and verify that the
# printed JSON carries exactly the workload and metric names (with units,
# directions and bounds) that BENCHMARK.json declares.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --quiet --manifest-path "$manifest"

summary=$(cargo run --release --offline --quiet --manifest-path "$manifest" -- run --tiny | tail -n 1)

SUMMARY="$summary" python3 - <<'EOF'
import json, os, sys

raw = os.environ["SUMMARY"]
summary = json.loads(raw)
declared = json.load(open("BENCHMARK.json"))

def fail(message):
    sys.exit(f"check.sh: {message}")

if not raw.endswith('"claim":null}'):
    fail("the summary does not end with a null claim")
if summary["correct"] is not True:
    fail("an output check failed")
if summary["stamp"]["tiny"] is not True:
    fail("the summary is not a --tiny run")

names = [w["name"] for w in declared["workloads"]]
if sorted(summary["workloads"]) != sorted(names):
    fail(f"workloads {sorted(summary['workloads'])} != declared {sorted(names)}")

end_to_end = {m["name"]: m for m in declared["end_to_end"]}
per_layer = {m["name"]: m for m in declared["per_layer"]}
for name, result in summary["workloads"].items():
    if result["failures"]:
        fail(f"{name}: {result['failures']}")
    if sorted(result["end_to_end"]) != sorted(end_to_end):
        fail(f"{name}: end-to-end metrics differ from BENCHMARK.json")
    for metric, d in result["end_to_end"].items():
        want = end_to_end[metric]
        got = (d["unit"], d["better"], d["bound"])
        if got != (want["unit"], want["better"], want["bound"]):
            fail(f"{name}.{metric}: {got} != declared {want}")
    if sorted(result["per_layer"]) != sorted(per_layer):
        fail(f"{name}: per-layer metrics differ from BENCHMARK.json")
    for metric, m in result["per_layer"].items():
        if m["unit"] != per_layer[metric]["unit"]:
            fail(f"{name}.{metric}: unit {m['unit']} != declared {per_layer[metric]['unit']}")

print(f"check.sh: {len(names)} workloads, {len(end_to_end)} end-to-end and "
      f"{len(per_layer)} per-layer metrics match BENCHMARK.json; all output checks pass")
EOF
