#!/bin/sh
# Full command-line pipeline on synthetic data: generate views, fit a
# map, run both evaluation protocols, build the compatibility matrix,
# cluster it, and sweep the training size.
#
# Run:  sh demos/05_cli_pipeline.sh
#
# Without the installed console script, the package is run from this
# checkout's src directory with $PYTHON (default python3).
set -e

if ! command -v embalign >/dev/null 2>&1; then
    PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
    export PYTHONPATH
    embalign() { "${PYTHON:-python3}" -m embalign.cli "$@"; }
fi

OUT=$(mktemp -d)
echo "writing to $OUT"

embalign synth --ids 60 --per-id 5 --dim 32 --intrinsic-dim 8 \
    --views 3 --seed 1 --out "$OUT/data"

embalign fit --source "$OUT/data/view0.emb" --target "$OUT/data/view1.emb" \
    --method procrustes --out "$OUT/map.bin"

embalign eval-id --source "$OUT/data/view0.emb" --target "$OUT/data/view1.emb" \
    --seeds 0,1,2 --out-dir "$OUT/ident" --dump-splits

embalign eval-verif --source "$OUT/data/view0.emb" --target "$OUT/data/view1.emb" \
    --seeds 0,1,2 --out-dir "$OUT/verif"

embalign matrix --inputs "$OUT"/data/view*.emb --seeds 0 --out-dir "$OUT/matrix"

embalign cluster --matrix "$OUT/matrix/compatibility_matrix.json" \
    --linkage average --out-dir "$OUT/cluster"

embalign sweep --source "$OUT/data/view0.emb" --target "$OUT/data/view1.emb" \
    --seeds 0 --fractions 0.25,0.5,1.0 --out-dir "$OUT/sweep"

echo
echo "artifacts:"
find "$OUT" -type f | sort
