#!/usr/bin/env bash
# Scripted perf run for the concurrent admission service: regenerates
# BENCH_service.json (8 concurrent clients through SchedService::submit
# vs the same journaled epoch stream through a serial front end (one
# client thread at pipeline depth 1), on the 3072-transaction / 384-cluster churn workload's
# smallest disjoint islands). The binary asserts the concurrent service
# clearly beats the serial front end, so this doubles as a perf
# regression gate. CI runs it on every push; commit the refreshed JSON
# when the numbers move materially.
set -euo pipefail
cd "$(dirname "$0")/.."

# Run metadata for the JSON's "meta" block (the binary takes no VCS or
# clock dependency of its own).
export HSCHED_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export HSCHED_BENCH_DATE="$(date -u +%Y-%m-%d)"

cargo run --release --quiet --locked -p hsched-bench --bin service_perf BENCH_service.json
