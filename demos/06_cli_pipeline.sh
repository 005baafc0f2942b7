#!/usr/bin/env bash
# The whole pipeline through the command-line tool: simulate benchmark data,
# train privately, sample synthetic rows, score them, and audit the budget.
# Every output directory gets a manifest.json recording the resolved config,
# seed, input hashes, and tool version, so any run can be re-derived.
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
echo "working in $work"

echo; echo "== simulate: 2000 rows from a random 8-node linear SEM =="
dpsynth simulate --d 8 --n 2000 --graph er --kind linear --seed 5 --out "$work/sim"
head -3 "$work/sim/data.csv"

echo; echo "== train: 1500 private steps at sigma = 1.5 =="
dpsynth train --data "$work/sim/data.csv" --steps 1500 --batch 100 --t-g 5 \
    --eta-theta 0.05 --eta-nu 0.1 --clamp 0.5 \
    --sigma 1.5 --seed 5 --out "$work/run"

echo; echo "== generate: 2000 synthetic rows, mapped back to the data scale =="
dpsynth generate --model "$work/run/checkpoint.json" --n 2000 --seed 9 \
    --preprocessor "$work/run/preprocessor.json" --out "$work/gen"
head -3 "$work/gen/synthetic.csv"

echo; echo "== evaluate: synthetic vs the (here: training) table =="
dpsynth evaluate --synthetic "$work/gen/synthetic.csv" --test "$work/sim/data.csv" \
    --target x8 --out "$work/eval"
python3 -c "import json; r = json.load(open('$work/eval/metrics.json'));
print('wd', round(r['wd'], 4), ' tvd_2way', round(r['tvd_2way'], 4),
      ' js', round(r['js'], 4), ' ridge r2', round(r['downstream'][0]['r2'], 3))"

echo; echo "== account: what would a tighter budget have required? =="
dpsynth account --n 2000 --batch 100 --steps 1000 --epsilon 1.0 | python3 -c \
    "import json, sys; r = json.load(sys.stdin);
print('epsilon target 1.0 -> sigma', round(r['calibrated_sigma'], 3))"

echo; echo "== benchmark: two lambda values, one seed, sigma in {0, 2} =="
dpsynth benchmark --sweep lambda --grid 0,0.003 --sigmas 0,2 --repeats 1 \
    --d 4 --n 400 --steps 300 --batch 50 --t-g 5 --out "$work/bench"
cat "$work/bench/sweep.csv"

echo; echo "== every output folder carries its manifest =="
for f in sim run gen eval bench; do
    python3 -c "import json; m = json.load(open('$work/$f/manifest.json'));
print('$f'.ljust(6), m['command'].ljust(10), 'seed', m['seed'])"
done
