#!/usr/bin/env bash
# Repo gate: warnings-as-errors build, the tier-1 ctest suite, an
# ASan+UBSan pass over the solver/simulator core (the sparse LU and the
# Newton restamp path are pointer-heavy index juggling — exactly what the
# address sanitizer is for), a ThreadSanitizer pass over the batch
# engine (the components with real cross-thread sharing: the table
# store behind the characterization cache and the driver tables, and the
# worker pool),
# a fuzz smoke stage over
# the SPEF parser, and a chaos stage that runs a batch under injected
# faults at every site and demands degraded-not-crashed, job-count-
# independent output (DESIGN.md §10), fault-free jobs-1 vs jobs-4
# determinism checks (adaptive, fixed grid and exhaustive search), a
# cross-process cache-file round trip, a trace-attribution gate, a
# JSON-output stage over net names that need escaping or are not UTF-8,
# plus server and CLI smokes.
#
# Usage: scripts/check.sh [--no-asan] [--no-tsan] [--no-fuzz] [--no-chaos]
#                         [--no-bench]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
run_asan=1
run_tsan=1
run_fuzz=1
run_chaos=1
run_bench=1
for arg in "$@"; do
  case "$arg" in
    --no-asan) run_asan=0 ;;
    --no-tsan) run_tsan=0 ;;
    --no-fuzz) run_fuzz=0 ;;
    --no-chaos) run_chaos=0 ;;
    --no-bench) run_bench=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== build (DN_WERROR=ON) =="
cmake -B build -S . -DDN_WERROR=ON >/dev/null
cmake --build build -j "$jobs"

echo "== tier-1 tests =="
ctest --test-dir build -L tier1 --output-on-failure -j "$jobs"

if [[ "$run_asan" == 1 ]]; then
  echo "== Address+UB sanitizer: solver, simulator, waveform and driver-model core =="
  cmake -B build-asan -S . -DDN_SANITIZE=address,undefined -DDN_WERROR=ON >/dev/null
  cmake --build build-asan -j "$jobs" \
    --target test_matrix test_sparse test_linear_sim test_nonlinear_sim \
             test_adaptive_sim test_pwl test_numeric test_thevenin test_ceff \
             test_rtr test_extensions test_gate test_alignment \
             test_delay_noise test_fault_tolerance test_estimators \
             test_persistence
  ./build-asan/tests/test_matrix
  ./build-asan/tests/test_sparse
  ./build-asan/tests/test_linear_sim
  ./build-asan/tests/test_nonlinear_sim
  ./build-asan/tests/test_adaptive_sim
  # The waveform algebra's forward cursors index raw spans.
  ./build-asan/tests/test_pwl
  ./build-asan/tests/test_numeric
  # The driver-model numerics: closed-form crossing solve, secant Ceff
  # iteration, and the paired driver sim behind both area-matching
  # recipes (Rtr, and the quiet holding resistance of functional noise).
  ./build-asan/tests/test_thevenin
  ./build-asan/tests/test_ceff
  # The driver tables: interpolation-weight indexing, the store's fills,
  # and load() of hand-edited and corrupt table files.
  ./build-asan/tests/test_estimators
  ./build-asan/tests/test_persistence
  ./build-asan/tests/test_rtr
  ./build-asan/tests/test_extensions
  # GateSim owns the circuit its re-driven simulator references; these
  # cover every kind of it and the receiver evaluations built on it.
  ./build-asan/tests/test_gate
  ./build-asan/tests/test_alignment
  ./build-asan/tests/test_delay_noise
  # Every fault site under chaos; any UB there must fail the stage, not
  # just print.
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ./build-asan/tests/test_fault_tolerance
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "== ThreadSanitizer: batch engine =="
  cmake -B build-tsan -S . -DDN_SANITIZE=thread -DDN_WERROR=ON >/dev/null
  cmake --build build-tsan -j "$jobs" \
    --target test_batch_analyzer test_metrics test_fault_tolerance test_server \
             test_estimators
  # The table store behind driver and alignment tables: eight threads on
  # shared and distinct keys, and on one failing key.
  ./build-tsan/tests/test_estimators --gtest_filter='TableStore.*'
  ./build-tsan/tests/test_batch_analyzer
  ./build-tsan/tests/test_metrics
  ./build-tsan/tests/test_fault_tolerance
  ./build-tsan/tests/test_server
fi

if [[ "$run_fuzz" == 1 ]]; then
  echo "== fuzz smoke: SPEF parser (~30 s budget) =="
  # The standalone driver is deterministic: the seed corpus plus a fixed
  # mutation seed. Iteration count sized to finish well inside 30 s.
  timeout 30 ./build/tools/fuzz_spef tests/corpus/spef --iters 40000 --seed 1

  echo "== fuzz smoke: JSON parser + NDJSON request surface (~30 s budget) =="
  # Dual-target: every input goes through json::parse AND a resident
  # Session::handle_line with tight protocol limits. Iteration count is
  # lower than the SPEF stage because mutated seeds routinely form valid
  # load_design/analyze requests that do real work.
  timeout 30 ./build/tools/fuzz_json tests/corpus/json --iters 4000 --seed 1
fi

if [[ "$run_chaos" == 1 ]]; then
  echo "== chaos: injected faults must degrade, not crash =="
  # A batch over SPEF decks so all four live sites fire: parse (deck
  # load) and cache/factor/newton (analysis). There is no task site and
  # no retry flag: each net gets exactly one analysis attempt. The
  # decks are distinct variants (the parse probe keys on deck content).
  # Three seeds x one mixed spec. Demands per seed: exit 0 (isolation
  # kept at least one net analyzable) and stdout byte-identical between
  # --jobs 1 and --jobs 8 (the injection hashes stable identities, never
  # the schedule).
  chaosdir=build/chaos-decks
  mkdir -p "$chaosdir"
  rm -f "$chaosdir"/*.spef
  for i in 1 2 3 4 5 6 7 8; do
    { head -1 tests/corpus/spef/minimal.spef
      echo "*DESIGN chaos$i"
      tail -n +2 tests/corpus/spef/minimal.spef
    } > "$chaosdir/net$i.spef"
  done
  chaos_args=(--batch "$chaosdir"/net*.spef --top 5 --solver sparse
              --inject-faults parse:0.25,cache:0.4,factor:0.4,newton:0.02)
  for fault_seed in 1 2 3; do
    out1=$(./build/tools/dnoise_cli "${chaos_args[@]}" --fault-seed "$fault_seed" --jobs 1 2>/dev/null)
    out8=$(./build/tools/dnoise_cli "${chaos_args[@]}" --fault-seed "$fault_seed" --jobs 8 2>/dev/null)
    if [[ "$out1" != "$out8" ]]; then
      echo "chaos: output differs between --jobs 1 and --jobs 8 (seed $fault_seed)" >&2
      diff <(printf '%s\n' "$out1") <(printf '%s\n' "$out8") >&2 || true
      exit 1
    fi
    echo "chaos seed $fault_seed: $(printf '%s\n' "$out1" | head -1)"
  done
  # Same invariant with the fidelity ladder enabled: tier decisions and
  # pruning are per-net and deterministic, so ladder output must also be
  # byte-identical across job counts under injected faults.
  ladder_args=("${chaos_args[@]}" --fidelity 2 --fidelity-threshold 5)
  lout1=$(./build/tools/dnoise_cli "${ladder_args[@]}" --fault-seed 2 --jobs 1 2>/dev/null)
  lout8=$(./build/tools/dnoise_cli "${ladder_args[@]}" --fault-seed 2 --jobs 8 2>/dev/null)
  if [[ "$lout1" != "$lout8" ]]; then
    echo "chaos: ladder output differs between --jobs 1 and --jobs 8" >&2
    diff <(printf '%s\n' "$lout1") <(printf '%s\n' "$lout8") >&2 || true
    exit 1
  fi
  echo "chaos ladder: $(printf '%s\n' "$lout1" | head -1)"

  echo "== chaos: crash recovery (kill -9 + SIGTERM against --state-dir) =="
  # One scripted ECO session run to completion as the reference, then
  # interrupted at seeded points: kill -9 at acked-request boundaries
  # (restart with --recover, finish the script, final report must be
  # byte-identical), a raced kill mid-mutation (recovery must come up
  # clean), and a SIGTERM drain (exit 0, valid snapshot, byte-identical
  # finish). DESIGN.md section 15.
  python3 scripts/chaos_recovery.py
fi

if [[ "$run_bench" == 1 ]]; then
  echo "== perf gate: transient engine (bench_perf_sim) =="
  # Fixed-step full Newton vs adaptive + modified Newton + warm start on
  # the 5000-node coupled bus. The binary exits nonzero unless the e2e
  # speedup is >= 10x, newton_iters and solver.refactors are cut >= 5x,
  # and the reported delays stay within tolerance (DESIGN.md §12).
  ./build/bench/bench_perf_sim --out build/BENCH_perf_sim.json

  echo "== perf gate: fidelity ladder (bench_perf_ladder) =="
  # Ladder on vs off over a quiet-heavy population. The binary exits
  # nonzero unless NO pruned net shows a violation in the ladder-off run
  # (zero missed violations), the pruning rate is >= 60%, and the
  # end-to-end speedup is >= 5x (DESIGN.md §13).
  ./build/bench/bench_perf_ladder --out build/BENCH_perf_ladder.json

  echo "== perf gate: batch engine throughput (perfbench batch_warm) =="
  # The benchmark's batch_warm workload checks its own output (jobs-1 vs
  # jobs-P reports byte-identical, every net analyzed, the golden
  # accuracy guard) and prints one JSON result as its last stdout line.
  # On top of that, a single-job throughput floor: 24.1 nets/s is the
  # pre-kernel-fast-path baseline (DESIGN.md §14) — dipping below it
  # means the unrolled dense solves / batched probing regressed.
  python3 perfbench/run.py --workload batch_warm --seed 1 --seconds 10 \
    > build/perfbench_batch_warm.out
  python3 - build/perfbench_batch_warm.out <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    r = json.loads(f.read().strip().splitlines()[-1])
assert r["correct"] is True, "batch_warm output check failed"
assert r["failed"] == 0, f"batch_warm: {r['failed']} failed operations"
ops = r["metrics"]["ops_per_s"]["value"]
floor = 24.1
assert ops >= floor, (
    f"batch throughput regression: {ops:.1f} nets/s at --jobs 1 "
    f"(floor {floor}, pre-fast-path baseline)")
print(f"batch perf gate: {ops:.1f} nets/s at --jobs 1 (floor {floor})")
PY

  echo "== native-codegen build (DN_NATIVE=ON): one dense LU =="
  # -march=native changes instruction selection (FMA contraction, AVX).
  # LuFactor's unrolled (n <= 16) and runtime-loop solves must still agree
  # bit for bit within the build, so the matrix and adaptive-sim suites
  # run again under host-tuned codegen.
  cmake -B build-native -S . -DDN_NATIVE=ON -DDN_WERROR=ON >/dev/null
  cmake --build build-native -j "$jobs" --target test_matrix test_adaptive_sim
  ./build-native/tests/test_matrix
  ./build-native/tests/test_adaptive_sim
fi

echo "== determinism: fault-free random batch, --jobs 1 vs --jobs 4 =="
# Per-net state (the paired Rtr driver sim, the receiver warm-start
# chain, the characterization cache) must never leak across nets or
# depend on the schedule: the JSON report is byte-identical at any job
# count.
./build/tools/dnoise_cli --batch --random 40 --seed 3 --json --jobs 1 \
  2>/dev/null > build/determinism_j1.json
./build/tools/dnoise_cli --batch --random 40 --seed 3 --json --jobs 4 \
  2>/dev/null > build/determinism_j4.json
if ! cmp -s build/determinism_j1.json build/determinism_j4.json; then
  echo "determinism: --batch --random 40 --seed 3 --json differs between" \
       "--jobs 1 and --jobs 4" >&2
  exit 1
fi
echo "determinism: 40-net report byte-identical at --jobs 1 and --jobs 4"
# The same on the fixed grid: --lte-tol 0 puts every sim family, the Rtr
# driver sims included, back on the fixed 1 ps grid (the path the
# fixed-grid Rtr tests take).
./build/tools/dnoise_cli --batch --random 10 --seed 3 --lte-tol 0 --json \
  --jobs 1 2>/dev/null > build/determinism_fixed_j1.json
./build/tools/dnoise_cli --batch --random 10 --seed 3 --lte-tol 0 --json \
  --jobs 4 2>/dev/null > build/determinism_fixed_j4.json
if ! cmp -s build/determinism_fixed_j1.json build/determinism_fixed_j4.json; then
  echo "determinism: --batch --random 10 --seed 3 --lte-tol 0 --json differs" \
       "between --jobs 1 and --jobs 4" >&2
  exit 1
fi
echo "determinism: 10-net fixed-grid report byte-identical at --jobs 1 and --jobs 4"
# The same on the exhaustive alignment path: each search chains its own
# receiver warm start across its probes, which no schedule may perturb.
./build/tools/dnoise_cli --batch --random 10 --seed 3 --exhaustive --json \
  --jobs 1 2>/dev/null > build/determinism_exhaustive_j1.json
./build/tools/dnoise_cli --batch --random 10 --seed 3 --exhaustive --json \
  --jobs 4 2>/dev/null > build/determinism_exhaustive_j4.json
if ! cmp -s build/determinism_exhaustive_j1.json \
     build/determinism_exhaustive_j4.json; then
  echo "determinism: --batch --random 10 --seed 3 --exhaustive --json" \
       "differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
echo "determinism: 10-net exhaustive report byte-identical at --jobs 1 and --jobs 4"

echo "== cache file: cross-process round trip =="
# The cache file carries alignment and driver tables: a second process
# that loads it must print the same report and fill no table of either
# kind.
./build/tools/dnoise_cli --batch --random 40 --seed 3 --json \
  --save-cache build/roundtrip.cache 2>/dev/null > build/roundtrip_save.json
./build/tools/dnoise_cli --batch --random 40 --seed 3 --json \
  --load-cache build/roundtrip.cache --metrics-json build/roundtrip.metrics \
  2>/dev/null > build/roundtrip_load.json
if ! cmp -s build/roundtrip_save.json build/roundtrip_load.json; then
  echo "cache round trip: the loading run's report differs" >&2
  exit 1
fi
python3 - build/roundtrip.metrics <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    counters = json.load(f)["counters"]
for name in ("thevenin.tables", "characterize.tables"):
    assert counters.get(name) == 0, f"cache round trip: {name} = {counters.get(name)}, want 0"
print("cache round trip: same report, no table refilled")
PY

echo "== trace attribution: library spans cover net.analyze =="
# Where a net's time went must be answerable from the trace alone: the
# top-level child spans of each net.analyze (same thread, nested by
# ts/dur: ceff.driver, cache.table, superposition.linear, receiver.eval,
# rtr.solve) must cover >= 95% of the total net.analyze time.
./build/tools/dnoise_cli --batch --random 40 --seed 1 --jobs 1 \
  --trace-out build/attribution.trace >/dev/null 2>&1
python3 - build/attribution.trace <<'PY'
import json, sys
from collections import defaultdict
with open(sys.argv[1]) as f:
    events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
by_tid = defaultdict(list)
for e in events:
    by_tid[e["tid"]].append(e)
eps = 1e-3  # us; ts and dur are printed at ns resolution.
total = covered = 0.0
nets = 0
for spans in by_tid.values():
    spans.sort(key=lambda e: (e["ts"], -e["dur"]))
    for a in (e for e in spans if e["name"] == "net.analyze"):
        lo, hi = a["ts"], a["ts"] + a["dur"]
        end = lo  # End of the last top-level child so far.
        for c in spans:
            if c is a or c["ts"] < lo - eps or c["ts"] + c["dur"] > hi + eps:
                continue
            if c["ts"] >= end - eps:  # Not nested in an earlier child.
                covered += c["dur"]
                end = c["ts"] + c["dur"]
        total += a["dur"]
        nets += 1
assert nets == 40, f"trace attribution: {nets} net.analyze spans, want 40"
share = covered / total
assert share >= 0.95, (
    f"trace attribution: child spans cover {share:.1%} of net.analyze "
    f"time (gate 95%)")
print(f"trace attribution: child spans cover {share:.1%} of {nets} "
      f"net.analyze spans ({total / 1e6:.2f} s)")
PY

echo "== JSON output: net names that need escaping =="
# Every JSON document comes from one writer (util/json). A failing deck
# and a good one, each copied under a name holding '"' and '\', must give
# a --json report and a --metrics-json file that both parse, with each
# net's "net" field equal to its path.
jsondir=build/json-names
rm -rf "$jsondir"
mkdir -p "$jsondir"
bad_deck="$jsondir/bad\"deck\\1.spef"
good_deck="$jsondir/good\"deck\\2.spef"
printf 'not a spef deck\n' > "$bad_deck"
cp tests/corpus/spef/minimal.spef "$good_deck"
./build/tools/dnoise_cli --batch "$bad_deck" "$good_deck" --json \
  --metrics-json build/json_names.metrics 2>/dev/null > build/json_names.json
python3 - build/json_names.json build/json_names.metrics "$bad_deck" \
  "$good_deck" <<'PY'
import json, sys
report_path, metrics_path, bad, good = sys.argv[1:]
with open(report_path) as f:
    report = json.loads(f.read())
with open(metrics_path) as f:
    json.loads(f.read())
by_net = {n["net"]: n for n in report["nets"]}
assert sorted(by_net) == sorted([bad, good]), f"net names differ: {list(by_net)}"
assert "error" in by_net[bad], by_net[bad]
assert "delay_noise_ps" in by_net[good], by_net[good]
print("JSON output: report and metrics parse, both net names read back exactly")
PY
# A deck name holding a byte that is not UTF-8: the report must still be
# valid UTF-8 JSON, the byte written as U+FFFD.
ff_deck="$jsondir/n"$'\xff'".spef"
cp tests/corpus/spef/minimal.spef "$ff_deck"
./build/tools/dnoise_cli --batch "$ff_deck" --json 2>/dev/null \
  > build/json_ff.json
python3 - build/json_ff.json "$jsondir" <<'PY'
import json, sys
with open(sys.argv[1], "rb") as f:
    report = json.loads(f.read().decode("utf-8"))
[net] = report["nets"]
assert net["net"] == sys.argv[2] + "/n\ufffd.spef", net["net"]
assert "delay_noise_ps" in net, net
print("JSON output: a non-UTF-8 deck name reads back with U+FFFD")
PY

echo "== server smoke: scripted NDJSON session against --serve =="
# A pipelined session: load a design, analyze, apply an ECO, re-analyze
# (must touch only the dirty closure), run one fault-injected request
# (must degrade/fail cleanly, not crash) and one plain analyze after it
# (must recompute the faulted victims: no degradation outlives its
# request), then shut down. The python
# shim validates the protocol invariants — one response per request,
# ids echoed in order, schema_version everywhere — and exits nonzero on
# any violation, which fails this stage.
printf '%s\n' \
  '{"id":1,"verb":"ping"}' \
  '{"id":2,"verb":"load_design","design":{"random":{"seed":7,"nets":10,"neighbors":2}}}' \
  '{"id":3,"verb":"analyze"}' \
  '{"id":4,"verb":"update_net","net":"n4","scale_c":1.3}' \
  '{"id":5,"verb":"analyze"}' \
  '{"id":6,"verb":"update_net","net":"n7","scale_c":1.2}' \
  '{"id":7,"verb":"analyze","inject_faults":"newton:0.5,cache:0.5","fault_seed":3}' \
  '{"id":8,"verb":"analyze"}' \
  '{"id":9,"verb":"not_a_verb"}' \
  '{"id":10,"verb":"stats"}' \
  '{"id":11,"verb":"shutdown"}' \
  | ./build/tools/dnoise_cli --serve --jobs 2 2>/dev/null \
  > build/serve_smoke.ndjson
python3 - build/serve_smoke.ndjson src/clarinet/report.hpp <<'PY'
import json, re, sys
with open(sys.argv[1]) as f:
    resps = [json.loads(line) for line in f if line.strip()]
# The expected version is the library's own constant, so a deliberate
# schema bump needs no edit here while any drift still fails exactly.
with open(sys.argv[2]) as f:
    schema = int(re.search(r"kReportSchemaVersion\s*=\s*(\d+)\s*;",
                           f.read()).group(1))
assert len(resps) == 11, f"expected 11 responses, got {len(resps)}"
for i, r in enumerate(resps, 1):
    assert r["id"] == i, f"response order broken at {i}: {r}"
    assert r["schema_version"] == schema, f"schema_version != {schema}: {r}"
ok = {i: r["ok"] for i, r in enumerate(resps, 1)}
assert all(ok[i] for i in (1, 2, 3, 4, 5, 6, 8, 10, 11)), f"unexpected failure: {ok}"
# The fault-injected analyze must degrade or fail CLEANLY: either an ok
# report (per-net failures recorded inside it) or a Status error.
assert ok[7] or resps[6]["error"]["code"], resps[6]
# The plain analyze after it recomputes the faulted victims.
after = resps[7]["result"]
assert after["reanalyzed"] > 0, after["reanalyzed"]
assert not any("degradations" in n for n in after["report"]["nets"]), after
assert not ok[9] and resps[8]["error"]["code"] == "INVALID_ARGUMENT", resps[8]
assert resps[4]["result"]["reanalyzed"] == 5, resps[4]["result"]["reanalyzed"]
assert resps[9]["result"]["requests"] == 10, resps[9]["result"]
print("server smoke: 11 responses, in order, dirty closure = 5 nets, "
      "fault-injected request handled " + ("ok" if ok[7] else "as clean error")
      + f", {after['reanalyzed']} faulted victims recomputed clean")
PY

echo "== CLI smoke: unknown flags and malformed numbers exit 2 =="
# An unknown flag or a numeric value that does not parse whole must stop
# the run with usage naming the flag (exit 2), never fall back to a
# silent default.
cli_reject() {
  local flag=$1 rc=0
  shift
  ./build/tools/dnoise_cli "$@" >/dev/null 2>build/cli_smoke.err || rc=$?
  if [[ $rc -ne 2 ]] || ! grep -q -- "$flag" build/cli_smoke.err; then
    echo "CLI smoke: 'dnoise_cli $*' exited $rc, want 2 naming $flag" >&2
    cat build/cli_smoke.err >&2
    exit 1
  fi
}
cli_reject --prereduce --batch --random 2 --prereduce
cli_reject --jobs --batch --random 2 --jobs four
# The retry budget and the capped ladder are gone: their flags are
# refused, never ignored.
cli_reject --max-retries --batch --random 2 --max-retries 2
cli_reject --fidelity --batch --random 2 --fidelity 1
# So is the inner Rtr iteration cap: a --config file carrying its key is
# refused as an unknown key, naming it.
printf '{"rtr_max_iterations": 4}\n' > build/removed_key.json
cli_reject 'INVALID_ARGUMENT.*rtr_max_iterations' --batch --random 2 \
  --config build/removed_key.json
./build/tools/dnoise_cli --batch --random 2 --seed 1 --jobs 1 >/dev/null 2>&1
echo "CLI smoke: unknown flags, malformed numbers, removed values and removed keys rejected, valid run ok"

# A weak victim driver (INV 0.1) cannot switch its driver table's heaviest
# loads within the first reference-sim tail; the deck must still analyze.
sed 's/^\*DRIVER INV 4 50 RISE$/*DRIVER INV 0.1 50 RISE/' \
  tests/corpus/spef/minimal.spef > build/weak_driver.spef
grep -q '^\*DRIVER INV 0.1 50 RISE$' build/weak_driver.spef
if ! ./build/tools/dnoise_cli build/weak_driver.spef >/dev/null 2>build/cli_smoke.err; then
  echo "CLI smoke: the INV 0.1 victim-driver deck failed" >&2
  cat build/cli_smoke.err >&2
  exit 1
fi
echo "CLI smoke: INV 0.1 victim-driver deck analyzed"

# --screen keeps the --batch error policy: the readable corpus decks are
# ranked and each unreadable one is listed after them by status code.
if ! ./build/tools/dnoise_cli --screen tests/corpus/spef/*.spef \
    > build/screen_smoke.out 2>build/cli_smoke.err; then
  echo "CLI smoke: --screen over the corpus failed" >&2
  cat build/cli_smoke.err >&2
  exit 1
fi
if ! grep -q 'est_dn_ps' build/screen_smoke.out ||
   ! grep -q '^tests/corpus/spef/minimal.spef .* [0-9.]*$' build/screen_smoke.out ||
   ! grep -q '^tests/corpus/spef/dup_net.spef  *INVALID_ARGUMENT$' build/screen_smoke.out; then
  echo "CLI smoke: --screen did not rank the corpus or list dup_net.spef" >&2
  cat build/screen_smoke.out >&2
  exit 1
fi
echo "CLI smoke: --screen ranked the readable corpus decks, listed the rest"

echo "== all checks passed =="
