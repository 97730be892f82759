#!/usr/bin/env bash
# Runs every workload once, each in a fresh process, from the root of a
# checkout:
#
#   bash perfbench/all.sh [seed] [seconds] [trace]
set -euo pipefail
for w in crawl-live crawl-offline crawl-chaos replay-bundle; do
    echo "== $w"
    bash perfbench/run.sh --workload "$w" --seed "${1:-1}" --seconds "${2:-10}" --trace "${3:-0}"
done
