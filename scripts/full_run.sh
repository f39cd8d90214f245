#!/usr/bin/env bash
# Canonical pipeline: sample a self-touch dataset, train the masked map,
# score it, and export the heatmap/report artifacts. Everything lands under
# out/seed-<SEED>/ and is byte-reproducible for a fixed seed.
set -euo pipefail

SEED="${1:-1}"
N="${2:-3216}"
OUT="out/seed-${SEED}"

run() { python3 -m rfsom "$@"; }

run generate --seed "$SEED" --n "$N" --out "$OUT/gen"
run train --seed "$SEED" --dataset "$OUT/gen/dataset.csv" --out "$OUT/run"
run evaluate --model "$OUT/run/model.json" --dataset-path "$OUT/gen/dataset.csv" \
    --out "$OUT/eval"
run export --model "$OUT/run/model.json" --out "$OUT/exp"

echo "artifacts in $OUT/"
