#!/usr/bin/env bash
# Byte-compare the default CLI outputs of two source trees (criterion 10).
#
#   bash .github/outputs-match.sh BASE_TREE HEAD_TREE
#
# Each tree is a checkout holding src/diracfock.  Seventeen commands run on
# both: example --json (default, and --a 0.7 --kappa 1.3), verify --json
# (--seed 0 to 9, and --seed 3 --kappa 1.7 for the charge conjugation at a
# second kappa), and sample-field on every built-in profile: the flat
# tabulated one, sech2 with occupied mode 3 and constant phases, gaussian
# with occupied mode 2, and a step with occupied mode 4 and a phase; every
# output must match byte for byte.
set -euo pipefail
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
printf '%s\n' '{"profile": "tabulated", "k": [0.0, 1.0], "rho": [0.5, 0.5],
  "grid": {"t": [0.0, 1.0, 3], "x": [0.0, 1.0, 3]}}' > flat.json
printf '%s\n' '{"profile": "sech2", "occupied": 3, "chi": 0.4, "xi": -1.2}' > sech2.json
printf '%s\n' '{"profile": "gaussian", "occupied": 2}' > gaussian.json
printf '%s\n' '{"profile": "step", "kmax": 1.5, "occupied": 4, "xi": 0.3}' > step.json
commands=(
  "example --json"
  "example --json --a 0.7 --kappa 1.3"
  "verify --json --seed "{0..9}
  "verify --json --seed 3 --kappa 1.7"
  "sample-field --config flat.json"
  "sample-field --config sech2.json"
  "sample-field --config gaussian.json"
  "sample-field --config step.json"
)
status=0
for i in "${!commands[@]}"; do
  for side in base head; do
    # word splitting of the command string is intended
    # shellcheck disable=SC2086
    PYTHONPATH="${!side}/src" python -m diracfock ${commands[$i]} > "$side-$i.out"
  done
  if cmp "base-$i.out" "head-$i.out"; then
    echo "same bytes: ${commands[$i]}"
  else
    echo "outputs differ: ${commands[$i]}"
    status=1
  fi
done
exit "$status"
