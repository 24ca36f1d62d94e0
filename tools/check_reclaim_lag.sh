#!/usr/bin/env bash
# Enforces the bounded-garbage contract (DESIGN.md §5c): under an injected thread
# stall and thread death, reclamation lag for the robust schemes must return below a
# fixed ceiling once the fault clears, and inline StackTrack's lag must stay within
# its documented free-set bound throughout.
#
# Usage: tools/check_reclaim_lag.sh [binary]
#   binary  path to robustness_lag (default build/bench/robustness_lag; built via the
#           `default` preset when missing)
#
# Gates (hard, exit non-zero on violation):
#   * every scheme, every scenario: final_lag <= FINAL_CEILING        (garbage drains)
#   * stacktrack:                   max_lag   <= STACKTRACK_MAX_CEILING (bounded peak)
# STACKTRACK_MAX_CEILING is the documented bound threads x (free_highwater_mult + 1)
# x max_free at the default StConfig: each thread's free set stays below the
# back-pressure high water plus one batch. Candidates spilled to the global deferred
# list count toward the lag too, so a run that spills past the bound fails the gate.
# hyaline's max_lag is reported but ungated: on an oversubscribed host its peak is
# dominated by genuine OS-preemption transients (see BENCH_robustness.json).
set -euo pipefail

cd "$(dirname "$0")/.."

BIN="${1:-build/bench/robustness_lag}"
THREADS=4
MAX_FREE=32             # StConfig::max_free default
FREE_HIGHWATER_MULT=4   # StConfig::free_highwater_mult default
FINAL_CEILING=256
STACKTRACK_MAX_CEILING=$(( THREADS * (FREE_HIGHWATER_MULT + 1) * MAX_FREE ))

if [[ ! -x "$BIN" ]]; then
  echo "== building $BIN (default preset) =="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$(nproc)" --target robustness_lag >/dev/null
fi

fail=0

check_scenario() {
  local scenario="$1"
  echo "== scenario: $scenario =="
  local out
  out="$("$BIN" --scenario="$scenario" --threads="$THREADS" --smoke --json)"
  echo "$out"
  while IFS= read -r line; do
    local scheme max_lag final_lag
    scheme=$(sed -n 's/.*"scheme":"\([^"]*\)".*/\1/p' <<<"$line")
    max_lag=$(sed -n 's/.*"max_lag":\([0-9]*\).*/\1/p' <<<"$line")
    final_lag=$(sed -n 's/.*"final_lag":\([0-9]*\).*/\1/p' <<<"$line")
    [[ -n "$scheme" ]] || continue
    if (( final_lag > FINAL_CEILING )); then
      echo "FAIL: $scheme/$scenario final_lag=$final_lag exceeds ceiling $FINAL_CEILING"
      fail=1
    fi
    if [[ "$scheme" == "stacktrack" ]] && (( max_lag > STACKTRACK_MAX_CEILING )); then
      echo "FAIL: $scheme/$scenario max_lag=$max_lag exceeds ceiling $STACKTRACK_MAX_CEILING"
      fail=1
    fi
  done <<<"$out"
}

check_scenario stall
check_scenario death

if (( fail )); then
  echo "FAIL: bounded-garbage gate violated"
  exit 1
fi
echo "OK: reclamation lag within ceilings (final<=$FINAL_CEILING, stacktrack max<=$STACKTRACK_MAX_CEILING)"
