#!/usr/bin/env bash
# Repo gate: warnings-as-errors build, the tier-1 ctest suite, an
# ASan+UBSan pass over the solver/simulator core (the sparse LU and the
# Newton restamp path are pointer-heavy index juggling — exactly what the
# address sanitizer is for), a ThreadSanitizer pass over the batch
# engine (the one component with real cross-thread sharing: the
# characterization cache and the worker pool), a fuzz smoke stage over
# the SPEF parser, and a chaos stage that runs a batch under injected
# faults at every site and demands degraded-not-crashed, job-count-
# independent output (DESIGN.md §10), plus server and CLI smokes.
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
  echo "== Address+UB sanitizer: solver, simulator and waveform core =="
  cmake -B build-asan -S . -DDN_SANITIZE=address,undefined -DDN_WERROR=ON >/dev/null
  cmake --build build-asan -j "$jobs" \
    --target test_matrix test_sparse test_linear_sim test_nonlinear_sim \
             test_adaptive_sim test_pwl test_numeric test_fault_tolerance
  ./build-asan/tests/test_matrix
  ./build-asan/tests/test_sparse
  ./build-asan/tests/test_linear_sim
  ./build-asan/tests/test_nonlinear_sim
  ./build-asan/tests/test_adaptive_sim
  # The waveform algebra's forward cursors index raw spans.
  ./build-asan/tests/test_pwl
  ./build-asan/tests/test_numeric
  # Deep retry ladders scale the backoff by 2^attempt; any UB there (an
  # int shift past its width) must fail the stage, not just print.
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ./build-asan/tests/test_fault_tolerance
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "== ThreadSanitizer: batch engine =="
  cmake -B build-tsan -S . -DDN_SANITIZE=thread -DDN_WERROR=ON >/dev/null
  cmake --build build-tsan -j "$jobs" \
    --target test_batch_analyzer test_metrics test_fault_tolerance test_server
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
  # A batch over SPEF decks so all five sites are live: parse (deck
  # load), cache/factor/newton (analysis), task (worker boundary). The
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
              --max-retries 2 --inject-faults
              parse:0.25,cache:0.4,factor:0.4,newton:0.02,task:0.3)
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

  echo "== perf gate: batch engine throughput (bench_perf_batch) =="
  # Byte-identical reports across job counts (the binary enforces that
  # itself) plus a single-job throughput floor: 24.1 nets/s is the
  # pre-kernel-fast-path baseline (DESIGN.md §14) — dipping below it
  # means the small-dense kernels / batched probing regressed.
  ./build/bench/bench_perf_batch --out build/BENCH_perf_batch.json
  python3 - build/BENCH_perf_batch.json <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
one = [row for row in r["runs"] if row["jobs"] == 1]
assert one, "no single-job run recorded"
nps = one[0]["nets_per_s"]
floor = 24.1
assert nps >= floor, (
    f"batch throughput regression: {nps:.1f} nets/s at --jobs 1 "
    f"(floor {floor}, pre-fast-path baseline)")
print(f"batch perf gate: {nps:.1f} nets/s at --jobs 1 (floor {floor})")
PY

  echo "== native-codegen build (DN_NATIVE=ON): kernel equivalence =="
  # -march=native changes instruction selection (FMA contraction, AVX);
  # the small-dense bit-identity contract must hold WITHIN any one build,
  # so the BackendEquivalence suite runs again under host-tuned codegen.
  cmake -B build-native -S . -DDN_NATIVE=ON -DDN_WERROR=ON >/dev/null
  cmake --build build-native -j "$jobs" --target test_matrix test_arena
  ./build-native/tests/test_matrix
  ./build-native/tests/test_arena
fi

echo "== server smoke: scripted NDJSON session against --serve =="
# A pipelined session: load a design, analyze, apply an ECO, re-analyze
# (must touch only the dirty closure), run one fault-injected request
# (must degrade/fail cleanly, not crash), then shut down. The python
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
  '{"id":8,"verb":"not_a_verb"}' \
  '{"id":9,"verb":"stats"}' \
  '{"id":10,"verb":"shutdown"}' \
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
assert len(resps) == 10, f"expected 10 responses, got {len(resps)}"
for i, r in enumerate(resps, 1):
    assert r["id"] == i, f"response order broken at {i}: {r}"
    assert r["schema_version"] == schema, f"schema_version != {schema}: {r}"
ok = {i: r["ok"] for i, r in enumerate(resps, 1)}
assert all(ok[i] for i in (1, 2, 3, 4, 5, 6, 9, 10)), f"unexpected failure: {ok}"
# The fault-injected analyze must degrade or fail CLEANLY: either an ok
# report (per-net failures recorded inside it) or a Status error.
assert ok[7] or resps[6]["error"]["code"], resps[6]
assert not ok[8] and resps[7]["error"]["code"] == "INVALID_ARGUMENT", resps[7]
assert resps[4]["result"]["reanalyzed"] == 5, resps[4]["result"]["reanalyzed"]
assert resps[8]["result"]["requests"] == 9, resps[8]["result"]
print("server smoke: 10 responses, in order, dirty closure = 5 nets, "
      "fault-injected request handled " + ("ok" if ok[7] else "as clean error"))
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
./build/tools/dnoise_cli --batch --random 2 --seed 1 --jobs 1 >/dev/null 2>&1
echo "CLI smoke: unknown flag and malformed number rejected, valid run ok"

echo "== all checks passed =="
