#!/usr/bin/env bash
# Do two sets of runs of the same code agree within the benchmark's own
# bounds? Runs the full command twice on the default seed and once on seed 7,
# then compares: every gated (workload, end-to-end metric) pair must agree
# within the metric's bound, every ratio within 15 %. About 19 minutes.
set -euo pipefail
cd "$(dirname "$0")/.."
out=benchmark/out
run() { cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }
run --seed 42 --json "$out/agree_1.json"
run --seed 42 --json "$out/agree_2.json"
run --seed 7 --json "$out/agree_3.json"
run --agree "$out/agree_1.json" "$out/agree_2.json" "$out/agree_3.json"
