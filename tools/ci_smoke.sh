#!/usr/bin/env bash
# Console-script smoke checks of an installed kamtori: `kamtori solve`
# (1-DOF, a 1-DOF libration torus of winding 0, and a 3-DOF coupled rotator
# that must converge), `kamtori verify`, `kamtori smooth`, `kamtori run` (1-DOF and 2-DOF rough cascades) and
# `kamtori diophantine`, with their reruns, named config errors and
# certificate fields, and `kamtori solve` and `kamtori run` on a model
# without twist and on a near-resonant frequency, which must name those
# failures.
#
# Usage: tools/ci_smoke.sh   (with the package installed, e.g. pip install .)
# Works in a fresh temporary directory and leaves the source tree alone.
set -euo pipefail

# refused OUT REASON COMMAND...: COMMAND must refuse its input with exit 1
# and exactly one stderr line, "config error: REASON" (only its start where
# REASON ends in "..."), and write nothing: OUT is the run directory it must
# not create or, as stdout:FILE, the file its stdout goes to, which must
# stay empty
refused() {
  local out=$1 reason=$2 code=0
  shift 2
  if [[ $out == stdout:* ]]; then
    "$@" > "${out#stdout:}" 2> err.txt || code=$?
  else
    "$@" 2> err.txt || code=$?
  fi
  cat err.txt
  test "$code" -eq 1
  test "$(wc -l < err.txt)" -eq 1
  if [[ $reason == *... ]]; then
    [[ $(< err.txt) == "config error: ${reason%...}"* ]]
  else
    grep -qxF "config error: $reason" err.txt
  fi
  if [[ $out == stdout:* ]]; then test ! -s "${out#stdout:}"; else test ! -e "$out"; fi
}

kamtori --help > /dev/null
python -c "import kamtori.cli"
cd "$(mktemp -d)"
echo "working in $PWD"

cat > model.json <<'EOF'
{"n": 1, "terms": [{"k": [0], "m": [2], "re": 0.5, "im": 0.0},
                   {"k": [1], "m": [0], "re": 5e-4, "im": 0.0}]}
EOF
cat > config.json <<'EOF'
{"hamiltonian": "model.json", "omega": [0.6180339887498949],
 "y0": [0.6180339887498949], "trunc": 16, "out": "out"}
EOF
kamtori solve --config config.json
# the echoed config reproduces the run byte for byte
kamtori solve --config out/config.json --out again
cmp out/config.json again/config.json
cmp out/certificate.json again/certificate.json
# a config command takes --config and --out only: any other flag is a
# usage error (exit 2, argparse's reason, no output)
for flag in "--hamiltonian model.json" "--max-iter 3" "--tol 1e-3" "--trunc 16"; do
  code=0
  kamtori solve --config config.json --out rejected $flag 2> err.txt || code=$?
  cat err.txt
  test "$code" -eq 2
  grep -q "unrecognized arguments: $flag\$" err.txt
  test ! -e rejected
done
# the a-posteriori check of the torus that solve wrote passes (exit 0),
# and its echoed config reproduces the certificate byte for byte
cat > verify-config.json <<'EOF'
{"hamiltonian": "model.json", "omega": [0.6180339887498949],
 "torus_file": "out/torus_final.csv", "out": "verified"}
EOF
kamtori verify --config verify-config.json
kamtori verify --config verified/config.json --out verified-again
cmp verified/certificate.json verified-again/certificate.json
# a torus file that does not parse: exit 1, one named reason, no output
echo "not a torus" > bad-torus.csv
cat > bad-torus-config.json <<'EOF'
{"hamiltonian": "model.json", "omega": [0.6180339887498949],
 "torus_file": "bad-torus.csv", "out": "bad-torus"}
EOF
refused bad-torus "torus file does not parse: ..." \
  kamtori verify --config bad-torus-config.json
# a torus file with a NaN amplitude (np.loadtxt reads "nan"): exit 1, one
# named reason, no output
cat > nan-torus.csv <<'EOF'
# winding=1 0
# n=1 m=2 trunc_order=8 canonical=1
k0,re0,im0,re1,im1
0,0.0,0.0,0.6180339887498949,0.0
1,nan,0.0,0.0,0.0
EOF
sed 's/bad-torus/nan-torus/g' bad-torus-config.json > nan-torus-config.json
refused nan-torus "torus file does not parse: amplitude entry nan is not finite" \
  kamtori verify --config nan-torus-config.json
# the frequency is certified once, where the config is read, and nowhere
# else: a resonant omega, and a gamma above the scan's worst margin, each
# exit 1 with one named reason and write nothing
cat > resonant-config.json <<'EOF'
{"hamiltonian": "model.json", "omega": [0.5], "out": "resonant"}
EOF
cat > gamma-config.json <<'EOF'
{"hamiltonian": "model.json", "omega": [0.6180339887498949], "gamma": 10.0,
 "out": "gamma"}
EOF
# so do a config that is valid JSON but no object, and a trunc of 5000 at
# n = 2, refused by the horizon before its circle (about 6 GiB) is built
echo "[1, 2]" > list-config.json
cat > rotor2.json <<'EOF'
{"n": 2, "terms": [{"k": [0, 0], "m": [2, 0], "re": 0.5, "im": 0.0},
                   {"k": [0, 0], "m": [0, 2], "re": 0.5, "im": 0.0}]}
EOF
cat > trunc-config.json <<'EOF'
{"hamiltonian": "rotor2.json", "omega": [0.6180339887498949, 0.41421356237309515],
 "trunc": 5000, "out": "trunc"}
EOF
# and a torus file whose header order 200 at n = 2 lies beyond the horizon
# 256, refused before its rows are folded onto the (2M + 1)^n grid, and a
# model file that is not of the documented form; so do a misspelled model
# key, and an omega entry of 401 digits, an integer beyond the largest float
cat > far.csv <<'EOF'
# winding=1 0 0 1 0 0 0 0
# n=2 m=4 trunc_order=200 canonical=1
k0,k1,re0,im0,re1,im1,re2,im2,re3,im3
0,0,0.0,0.0,0.0,0.0,0.5,0.0,0.5,0.0
EOF
cat > far-config.json <<'EOF'
{"hamiltonian": "rotor2.json", "omega": [0.6180339887498949, 0.41421356237309515],
 "torus_file": "far.csv", "out": "far"}
EOF
echo '{"n": 1, "terms": 5}' > malformed.json
cat > malformed-config.json <<'EOF'
{"hamiltonian": "malformed.json", "omega": [0.6180339887498949], "out": "malformed"}
EOF
cat > misspelled.json <<'EOF'
{"n": 1, "smoothnes_class": 5, "terms": [{"k": [0], "m": [2], "re": 0.5, "im": 0.0}]}
EOF
sed 's/malformed/misspelled/g' malformed-config.json > misspelled-config.json
big=$(python -c 'print(10**400)')
echo "{\"hamiltonian\": \"model.json\", \"omega\": [$big], \"out\": \"big\"}" > big-config.json
for case in "resonant|omega is resonant within the horizon" \
            "gamma|omega fails the Diophantine bound: worst k=(1,) margin=3.820e-01 < gamma=1.000e+01" \
            "list|config must be a JSON object, got list" \
            "trunc|K0 truncation order 5000 on T^2 reaches |k|_1 = 10000 beyond the Diophantine horizon 256" \
            "far|K0 truncation order 200 on T^2 reaches |k|_1 = 400 beyond the Diophantine horizon 256" \
            "malformed|hamiltonian file does not parse: terms must be a list of objects, got 5" \
            "misspelled|hamiltonian file does not parse: model has unknown keys ['smoothnes_class']" \
            "big|omega must be a list of numbers, got [$big]"; do
  name=${case%%|*}
  refused "$name" "${case#*|}" kamtori solve --config "$name-config.json" --out "$name"
done

# a libration torus of the pendulum H = y^2/2 + 0.06 cos 2 pi x, winding 0
# around x = 1/2, from the harmonic guess x = 1/2 + A cos 2 pi theta,
# y = -2 pi nu A sin 2 pi theta at nu = 1/(4 + golden), with A the
# elliptic-function amplitude of that frequency: solve converges in 4
# iterations (exit 0)
cat > lib.json <<'EOF'
{"n": 1, "terms": [{"k": [0], "m": [2], "re": 0.5, "im": 0.0},
                   {"k": [1], "m": [0], "re": 0.03, "im": 0.0}]}
EOF
cat > lib0.csv <<'EOF'
# winding=0 0
# n=1 m=2 trunc_order=32 canonical=1
k0,re0,im0,re1,im1
0,0.5,0.0,0.0,0.0
1,0.10882127689796273,0.0,0.0,0.1480595963086211
EOF
cat > lib-config.json <<'EOF'
{"hamiltonian": "lib.json", "omega": [0.21654236465910046],
 "torus_file": "lib0.csv", "out": "lib"}
EOF
kamtori solve --config lib-config.json
python -c 'import json; c = json.load(open("lib/certificate.json")); assert c["status"] == "converged" and c["iterations"] == 4, c'
# verify reads the solved torus back: the literal strict condition 2 misses
# by about 7.5e10 (exit 1), its grid defect is the solve's, bit for bit, and
# the Lagrangian defect of a 1-DOF torus is 0
sed 's/"torus_file": "lib0.csv", "out": "lib"}/"torus_file": "lib\/torus_final.csv", "out": "lib-verified"}/' lib-config.json > lib-verify.json
code=0
kamtori verify --config lib-verify.json || code=$?
test "$code" -eq 1
python -c 'import json; v = json.load(open("lib-verified/certificate.json")); s = json.load(open("lib/certificate.json")); assert v["conditions"]["condition2_ok"] is False, v; assert v["error_grid"] == s["error"], (v["error_grid"], s["error"]); assert v["nondegeneracy"]["lagrangian_defect"] == 0, v'

# a model without twist, H = omega y + 1e-3 cos 2 pi x from y0 = 0: its
# averaged torsion <S> is singular, so no Newton step exists; solve and run
# each exit 1 with the failed hypothesis named in their certificate, and
# no traceback
cat > twistless.json <<'EOF'
{"n": 1, "terms": [{"k": [0], "m": [1], "re": 0.6180339887498949, "im": 0.0},
                   {"k": [1], "m": [0], "re": 5e-4, "im": 0.0}]}
EOF
cat > twistless-config.json <<'EOF'
{"hamiltonian": "twistless.json", "omega": [0.6180339887498949],
 "y0": [0.0], "trunc": 16}
EOF
for cmd in solve run; do
  code=0
  kamtori "$cmd" --config twistless-config.json --out "twistless-$cmd" 2> err.txt || code=$?
  cat err.txt
  test "$code" -eq 1
  ! grep -q "Traceback" err.txt
done
python -c 'import json; c = json.load(open("twistless-solve/certificate.json")); assert c["status"] == "torsion_singular", c'
python -c 'import json; c = json.load(open("twistless-run/certificate.json")); assert c["converged"] is False and c["termination_reason"] == "torsion_singular", c'

# a certified but near-resonant omega = (1, 1 + 2^-49): the (1, -1) divisor
# that the model couples lies below the cohomological solve's resonance
# guard, so no Newton step exists; solve and run each exit 1 with the
# status named in their certificate, and no traceback
cat > near.json <<'EOF'
{"n": 2, "terms": [{"k": [0, 0], "m": [2, 0], "re": 0.5, "im": 0.0},
                   {"k": [0, 0], "m": [0, 2], "re": 0.5, "im": 0.0},
                   {"k": [1, -1], "m": [0, 0], "re": 1e-3, "im": 0.0}]}
EOF
cat > near-config.json <<'EOF'
{"hamiltonian": "near.json", "omega": [1.0, 1.0000000000000018],
 "sigma": 2.1, "horizon": 8, "trunc": 2}
EOF
for cmd in solve run; do
  code=0
  kamtori "$cmd" --config near-config.json --out "near-$cmd" 2> err.txt || code=$?
  cat err.txt
  test "$code" -eq 1
  ! grep -q "Traceback" err.txt
done
python -c 'import json; c = json.load(open("near-solve/certificate.json")); assert c["status"] == "resonant_divisor", c'
python -c 'import json; c = json.load(open("near-run/certificate.json")); assert (c["converged"], c["termination_reason"], c["failed_stage"]) == (False, "resonant_divisor_at_stage_1", 1), c'

# the rough cascade: cutoff, smoothing ladder and staged solves on the free
# rotator plus a C^4 B-spline term of amplitude 1e-4
cat > rough.json <<'EOF'
{"n": 1, "smoothness_class": null,
 "terms": [{"k": [0], "m": [2], "re": 0.5, "im": 0.0}],
 "rough": [{"coordinate": 0, "amplitude": 1e-4,
            "profile": {"type": "bspline", "degree": 5,
                        "coefficients": [0.0, 0.52, 0.55, 0.05, -0.48, -0.55]}}]}
EOF
cat > rough-config.json <<'EOF'
{"hamiltonian": "rough.json", "omega": [0.6180339887498949], "y0": [0.4],
 "rho": 0.02, "r": 0.8, "sigma": 1.1, "horizon": 256,
 "target_error": 1e-8, "out": "rough"}
EOF
# the cutoff and smoothing ladder alone exit 0, and the echoed config
# reproduces the gap table, the approximants, the certificate and itself
kamtori smooth --config rough-config.json --out smoothed
kamtori smooth --config smoothed/config.json --out smoothed-again
diff -r smoothed smoothed-again
kamtori run --config rough-config.json
kamtori run --config rough/config.json --out rough-again
# every output of the rerun is byte-identical, config.json too: the echo
# names the run's inputs, not the directory it was written to
diff -r rough rough-again
# the rungs are smooth across the angle seam: the smoothed stage converges,
# and its start defect has no spectral tail above round-off
python -c 'import json; c = json.load(open("rough/certificate.json")); s = c["stages"][0]["status"]; assert s == "converged", s; e = c["e0_stage1"]; assert e["tail_max"] <= e["round_off"], e'
# every defect record carries the one tail record the refinement rule reads:
# the run's e0_original, e0_stage1 and final, and verify's certificate
python -c 'import json; c = json.load(open("rough/certificate.json")); v = json.load(open("verified/certificate.json")); keys = {"tail_max", "tail_sum", "tail_beyond", "round_off"}; recs = [c["e0_original"], c["e0_stage1"], c["final"], v]; assert all(keys <= r.keys() and "tail_flag" not in r for r in recs), recs'
# the ladder anchors at its first rung, and the certificate names how each
# C^3 number (gaps, tails, mu0, mu_k) was taken
python -c 'import json; c = json.load(open("rough/certificate.json")); assert c["k0"]["index"] == 0, c["k0"]; m = c["c3_methods"]; assert {"rule", "gaps_c3", "gaps_c0", "ladder_gaps_c3", "tails_c3", "mu0", "mu_k"} <= set(m), m; assert len(m["mu_k"]) == len(c["stages"]), m'
# the measured gate reads stage 1's first Newton step, which it took
python -c 'import json; c = json.load(open("rough/certificate.json")); g = c["conditions_measured"]; assert g["quadratic_constant"] == c["stages"][0]["measured_quadratic"], (g, c["stages"][0]["measured_quadratic"]); assert g["vacuous"] is False, g'
# at gamma = 1e-20 the schedule's beta ~ gamma^-2 enters d, v and tau, and
# inequality (10) blocks every sequence index: the run ends before its
# cascade (exit 1) with a certificate that names the blocking inequality
sed 's/"out": "rough"}/"out": "rough-nok0", "gamma": 1e-20}/' rough-config.json > nok0.json
code=0
kamtori run --config nok0.json || code=$?
test "$code" -eq 1
python -c 'import json; c = json.load(open("rough-nok0/certificate.json")); assert c["termination_reason"] == "no_admissible_k0", c["termination_reason"]; assert c["stages"] == [], c["stages"]; assert "ineq10" in c["k0"]["error"], c["k0"]'

# the 2-DOF rough cascade: B-spline terms of amplitude 1e-4 on both angles;
# V_N on every rung axis anchors its ladder by degree 128
cat > rough2.json <<'EOF'
{"n": 2, "smoothness_class": null,
 "terms": [{"k": [0, 0], "m": [2, 0], "re": 0.5, "im": 0.0},
           {"k": [0, 0], "m": [0, 2], "re": 0.5, "im": 0.0}],
 "rough": [{"coordinate": 0, "amplitude": 1e-4,
            "profile": {"type": "bspline", "degree": 5,
                        "coefficients": [0.0, 0.52, 0.55, 0.05, -0.48, -0.55]}},
           {"coordinate": 1, "amplitude": 1e-4,
            "profile": {"type": "bspline", "degree": 5,
                        "coefficients": [0.0, 0.52, 0.55, 0.05, -0.48, -0.55]}}]}
EOF
cat > rough2-config.json <<'EOF'
{"hamiltonian": "rough2.json", "omega": [0.6180339887498949, 0.41421356237309515],
 "rho": 0.02, "r": 0.8, "sigma": 1.1, "horizon": 256,
 "target_error": 1e-8, "out": "rough2"}
EOF
kamtori run --config rough2-config.json
kamtori run --config rough2/config.json --out rough2-again
diff -r rough2 rough2-again
python -c 'import json; c = json.load(open("rough2/certificate.json")); assert c["converged"] is True, c["termination_reason"]; assert c["k0"]["index"] >= 0, c["k0"]; assert max(c["smoothing"]["ladder_degrees"]) <= 128, c["smoothing"]'
# the final torus reads back from its CSV and writes the same bytes
python -c 'from kamtori import TorusEmbedding; raw = open("rough2/torus_final.csv", "rb").read(); assert TorusEmbedding.from_csv(raw.decode()).to_csv().encode() == raw'
# inequality (10) of every k0 witness, recomputed from the certificate's
# schedule, tails and kept gaps: 4 d^2 v^2 tau^2 (tail_j + remaining gaps)
for run in rough rough2; do
python - "$run/certificate.json" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))
s, tails, gaps = c["schedule"], c["tails_c3"], c["smoothing"]["gaps_c3"]
for w in c["k0"]["witnesses"]:
    j = w["index"]
    x = tails[j] + sum(gaps[j:])
    want = 0.0 if x == 0 else 4.0 * s["d"] ** 2 * s["v"] ** 2 * s["tau"] ** 2 * x
    assert abs(w["ineq10_lhs"] - want) <= 1e-12 * abs(want), (sys.argv[1], j, w, want)
EOF
done
# a model of declared class C^5 without rough terms is not cut off: the run
# converges at l = 5 on the constant sequence of H itself (exit 0)
cat > c5.json <<'EOF'
{"n": 1, "smoothness_class": 5,
 "terms": [{"k": [0], "m": [2], "re": 0.5, "im": 0.0},
           {"k": [1], "m": [0], "re": 5e-4, "im": 0.0}]}
EOF
cat > c5-config.json <<'EOF'
{"hamiltonian": "c5.json", "omega": [0.6180339887498949],
 "y0": [0.6180339887498949], "trunc": 16, "out": "c5"}
EOF
kamtori run --config c5-config.json
python -c 'import json; c = json.load(open("c5/certificate.json")); assert c["converged"] is True, c["termination_reason"]; assert c["analytic_input"] is False and c["l"] == 5, (c["analytic_input"], c["l"]); d = c["smoothing"]["degrees"]; assert d and set(d) == {0}, d'
# a y0 of two components on a 1-DOF model: exit 1, named reason
sed 's/"y0": \[0.4\]/"y0": [0.1, 0.2]/' rough-config.json > bad-y0.json
refused rough-rejected "y0 must have n = 1 components, got 2" \
  kamtori run --config bad-y0.json --out rough-rejected
# the lambda-form conditions are reported, never gated on: a strict
# condition mode is no key of a config (exit 1, one named reason)
sed 's/"out": "rough"}/"out": "rough-strict", "condition_mode": "strict"}/' rough-config.json > strict.json
refused rough-strict "unknown key: condition_mode" kamtori run --config strict.json
# the ladder's degrees and length, the cascade's stage cap and each solve's
# Newton-step cap are constants, no keys of a config either (exit 1, one
# named reason, no output)
for knob in start_degree count max_stages max_degree max_iter; do
  sed "s/\"out\": \"rough\"}/\"out\": \"rough-$knob\", \"$knob\": 8}/" rough-config.json > knob.json
  refused "rough-$knob" "unknown key: $knob" kamtori run --config knob.json
done

# the 3-DOF coupled rotator at eps = 1e-3 from the M = 8 circle (sigma 2.1,
# horizon 120, tol 1e-10): its order grows 8 -> 10 -> 22 -> 24, each read
# off the torus's own spectrum, and then, where that spectrum decays too
# slowly for any order below 2 x 24, to the horizon's cap 120 // 3 = 40;
# the solve converges there (exit 0)
cat > rotor3.json <<'EOF'
{"n": 3, "terms": [{"k": [0, 0, 0], "m": [2, 0, 0], "re": 0.5, "im": 0.0},
                   {"k": [0, 0, 0], "m": [0, 2, 0], "re": 0.5, "im": 0.0},
                   {"k": [0, 0, 0], "m": [0, 0, 2], "re": 0.5, "im": 0.0},
                   {"k": [1, 0, 0], "m": [0, 0, 0], "re": 5e-4, "im": 0.0},
                   {"k": [0, 1, 0], "m": [0, 0, 0], "re": 5e-4, "im": 0.0},
                   {"k": [0, 0, 1], "m": [0, 0, 0], "re": 5e-4, "im": 0.0},
                   {"k": [1, -1, 0], "m": [0, 0, 0], "re": 5e-4, "im": 0.0},
                   {"k": [0, 1, -1], "m": [0, 0, 0], "re": 5e-4, "im": 0.0}]}
EOF
cat > rotor3-config.json <<'EOF'
{"hamiltonian": "rotor3.json",
 "omega": [0.6180339887498949, 0.41421356237309515, 0.2320508075688772],
 "sigma": 2.1, "horizon": 120, "tol": 1e-10, "trunc": 8, "out": "rotor3"}
EOF
kamtori solve --config rotor3-config.json
# every step row's order, and the iteration count, are pinned; the last row
# is the converged iterate's, which takes no step
python -c 'import json; rows = [json.loads(r) for r in open("rotor3/trace.jsonl")]; m = [r["trunc_order"] for r in rows[:-1]]; assert m == [8, 8, 10, 22, 24, 40], m; assert "trunc_order" not in rows[-1], rows[-1]'
python -c 'import json; c = json.load(open("rotor3/certificate.json")); assert c["status"] == "converged" and c["iterations"] == 6, c'
# verify reads that n = 3 torus file back: the literal strict conditions
# miss by about 1e34 (exit 1), and its grid defect is the solve's, bit for bit
sed 's/"tol": 1e-10, "trunc": 8, "out": "rotor3"}/"torus_file": "rotor3\/torus_final.csv", "out": "rotor3-verified"}/' rotor3-config.json > rotor3-verify.json
code=0
kamtori verify --config rotor3-verify.json || code=$?
test "$code" -eq 1
python -c 'import json; v = json.load(open("rotor3-verified/certificate.json")); s = json.load(open("rotor3/certificate.json")); assert v["passed"] is False, v; assert v["error_grid"] == s["error"], (v["error_grid"], s["error"])'
# its one torus CSV, the M = 40 modes on T^3, takes about 76 MB
rm -r rotor3 rotor3-verified

# the 2-DOF Diophantine scan at the default horizon 10000 (10^8 wavevectors,
# a few candidate last components per first one) finds the worst mode of
# golden, sqrt2 - 1
timeout 120 kamtori diophantine --omega 0.6180339887498949,0.41421356237309515 > dio.json
cat dio.json
python -c 'import json; d = json.load(open("dio.json")); assert d["worst_k"] == [63, -94], d'
# the 3-DOF scan at horizon 256, which an M = 64 torus needs, finds the worst
# mode of golden, sqrt2 - 1, sqrt3 - 1.5
timeout 120 kamtori diophantine --omega 0.6180339887498949,0.41421356237309515,0.2320508075688772 --sigma 2.1 --horizon 256 > dio3.json
cat dio3.json
python -c 'import json; d = json.load(open("dio3.json")); assert d["worst_k"] == [3, -14, 17], d'
# a bad diophantine flag: exit 1, named reason, nothing on stdout
refused stdout:dio-bad.json "omega must be comma-separated numbers, got '0.618,abc'" \
  kamtori diophantine --omega 0.618,abc
# a sigma that is not finite: exit 1, one named reason, nothing on stdout
refused stdout:dio-nan.json "sigma must be finite, got nan" \
  kamtori diophantine --omega 0.618,0.414 --sigma nan
echo "console-script smoke checks passed"
