#!/usr/bin/env bash
# Runs every workload, untraced (end-to-end metrics) and then traced
# (per-layer metrics). Run it from the repository root:
#
#   bash tagperf/all.sh [seed] [seconds]
set -euo pipefail

seed=${1:-1}
secs=${2:-30}
for workload in tag-questions analytic-sql wire-oltp; do
	for trace in 0 1; do
		echo "== $workload trace=$trace"
		bash tagperf/run.sh --workload "$workload" --seed "$seed" --seconds "$secs" --trace "$trace"
	done
done
