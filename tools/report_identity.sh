#!/usr/bin/env bash
# Run the report-identity set with the sprayform package sources at SRC and
# write, under OUT, each run's exit code, stderr, report JSON, residual CSV,
# convergence CSV and eval output:
#
#   - `check` on every bundled config in configs/;
#   - `check` on so3 at acceptance numerics (100 multiplicativity pairs,
#     50 associativity triples) and on dirac_twisted, nijenhuis_r2, gcs_r2
#     and jacobi_line, each at seeds 20240 and 7319, written from configs/
#     at run time;
#   - `check` on configs/so3.json with `--seed 7319`, the command-line
#     override of the config seed;
#   - two config errors (exit 2): `check` on nijenhuis_r2 with a
#     `christoffel` coefficient, which the kind does not read, and on so3
#     with `mult_pairs: 0`, both written from configs/ at run time;
#   - `check` on so3 with `mu_steps: 3`, written from configs/ at run time,
#     a product sweep cap that its rows exceed (exit 3, naming the check
#     and the row);
#   - `convergence` on so3 and jacobi_line over rungs 32..1024, and on so3
#     over the NxM rungs 16x8..128x1, which hold the step fixed and move
#     the quadrature nodes and the RK4 substeps against each other;
#   - `eval` on every kind's build, and `eval --pair` on so3 with a
#     composable pair written at 17 digits, a nonlinear product;
#   - `schema`, the generated config schema.
#
# Usage (from the repository root, whose configs/ both sides read):
#
#   tools/report_identity.sh BASE_CHECKOUT/src OUT/base
#   tools/report_identity.sh src OUT/head
#   diff -r OUT/base OUT/head
#
# stdout of `check` and `convergence` names the output path, which differs
# by side, so it is not kept; the stdout of `eval` and `schema` is their
# result.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 SRC OUT" >&2
  exit 2
fi
src=$(cd "$1" && pwd)
out=$2
seeded=$(mktemp -d)
trap 'rm -rf "$seeded"' EXIT

for seed in 20240 7319; do
  for name in so3 dirac_twisted nijenhuis_r2 gcs_r2 jacobi_line; do
    python3 - "$seed" "$name" "$seeded" <<'EOF'
import json, sys
seed, name, out = int(sys.argv[1]), sys.argv[2], sys.argv[3]
with open(f"configs/{name}.json") as f:
    cfg = json.load(f)
if name == "so3":
    cfg["numerics"].update(mult_pairs=100, assoc_triples=50)
    name = "so3_acceptance"
cfg["numerics"]["seed"] = seed
cfg["outputs"] = {"report": "report.json", "csv": "residuals.csv"}
with open(f"{out}/{name}_{seed}.json", "w") as f:
    json.dump(cfg, f, indent=2)
EOF
  done
done

python3 - "$seeded" <<'EOF'
import json, sys
out = sys.argv[1]
with open("configs/nijenhuis_r2.json") as f:
    cfg = json.load(f)
n = cfg["chart"]["dim"]
cfg["coefficients"]["christoffel"] = [[["0"] * n] * n] * n
with open(f"{out}/nijenhuis_r2_christoffel.json", "w") as f:
    json.dump(cfg, f, indent=2)
with open("configs/so3.json") as f:
    cfg = json.load(f)
cfg["numerics"]["mult_pairs"] = 0
with open(f"{out}/so3_mult_pairs_0.json", "w") as f:
    json.dump(cfg, f, indent=2)
with open("configs/so3.json") as f:
    cfg = json.load(f)
cfg["numerics"]["mu_steps"] = 3
with open(f"{out}/so3_mu_steps_3.json", "w") as f:
    json.dump(cfg, f, indent=2)
EOF

# run NAME SUBCOMMAND ARGS...: one CLI run into $out/NAME; stdout is kept
# only for eval and schema, whose output is the result
run() {
  local dir="$out/$1" cmd=$2 status=0 stdout
  shift 2
  mkdir -p "$dir"
  case $cmd in
    check|convergence) set -- "$@" --out-dir "$dir"; stdout=/dev/null ;;
    *) stdout="$dir/stdout" ;;
  esac
  PYTHONPATH="$src" OPENBLAS_NUM_THREADS=1 python3 -m sprayform.cli "$cmd" \
    "$@" > "$stdout" 2> "$dir/stderr" || status=$?
  echo "$status" > "$dir/exit_code"
}

for cfg in configs/*.json "$seeded"/*.json; do
  run "$(basename "$cfg" .json)" check --config "$cfg"
done
run so3_seed_7319 check --config configs/so3.json --seed 7319
for name in so3 jacobi_line; do
  run "convergence_$name" convergence --config "configs/$name.json" \
    --ladder 32,64,128,256,512,1024
done
run convergence_so3_quadrature_axis convergence --config configs/so3.json \
  --ladder 16x8,32x4,64x2,128x1
run eval_constant_poisson_vectors eval --config configs/constant_poisson.json \
  --point 0.1,0.2,0.3,-0.1 --vectors "1,0.5,0,-0.2;0.3,0,1,0.7"
run eval_constant_poisson_pair eval --config configs/constant_poisson.json \
  --point 0.1,0.2,0.3,-0.1 --pair "0.2,0.5,0.2,0.1|0.1,0.2,0.3,-0.1"
run eval_so3_vectors eval --config configs/so3.json \
  --point 0.1,0.2,-0.1,0.2,0.1,-0.1 \
  --vectors "1,0,0.2,0,0.5,0;0,1,0,0.3,0,-0.4"
# a = (tau(b), y_a): tau(b) at 17 digits is composable with b to roundoff
run eval_so3_pair eval --config configs/so3.json \
  --point 0.1,0.2,-0.1,0.2,0.1,-0.1 \
  --pair "0.092089720406810585,0.18661716546571916,-0.12920339372065978,0.1,-0.2,0.15|0.1,0.2,-0.1,0.2,0.1,-0.1"
run eval_jacobi_line eval --config configs/jacobi_line.json --point 0.0,0.3,0.5
run eval_nijenhuis_r2 eval --config configs/nijenhuis_r2.json \
  --point 0.1,0.2,0.3,-0.1 --vectors "1,0.5,0,-0.2;0.3,0,1,0.7" \
  --pair "0.2,0.5,0.2,0.1|0.1,0.2,0.3,-0.1"
run eval_dirac_twisted eval --config configs/dirac_twisted.json \
  --point 0.1,0.2,-0.1,0.2,0.1,-0.1
run eval_gcs_r2 eval --config configs/gcs_r2.json \
  --point 0.1,0.2,0.3,-0.1 --pair "0.2,0.5,0.2,0.1|0.1,0.2,0.3,-0.1"
run eval_bad_poisson eval --config configs/bad_poisson.json \
  --point 0.1,0.2,-0.1,0.2,0.1,-0.1
run schema schema
