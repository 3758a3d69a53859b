#!/usr/bin/env bash
# Regenerates a committed BENCH_*.json file from this checkout.
#
# Targets:
#   obs  bench/micro_obs_overhead built in Release twice, with
#        -DFLASHQOS_OBS=ON and -DFLASHQOS_OBS=OFF (into .bench_build/obs-on
#        and .bench_build/obs-off), then 2 batches of 15 ON/OFF pairs run
#        alternately (even pairs ON first, odd pairs OFF first). Each run
#        reports the min of 7 in-process reps per leg. Writes BENCH_obs.json:
#        per build and leg the floor (min over runs) and the quartiles; per
#        leg the ON/OFF floor delta, the median delta and the count of pairs
#        in which ON was slower; and one provenance block (nproc, build
#        type, commit, command).
#
# Usage: scripts/bench.sh obs
#
# Timings from a shared host move together in slow spells, so compare
# floors and pair counts, not single runs, and only between runs of the
# same host.
set -euo pipefail

cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/bench.sh obs" >&2
  exit 2
}

[[ $# -eq 1 ]] || usage

build_micro() {  # <dir> <ON|OFF>
  cmake -S . -B "$1" -DCMAKE_BUILD_TYPE=Release -DFLASHQOS_OBS="$2" \
    -DFLASHQOS_BUILD_TESTS=OFF -DFLASHQOS_BUILD_EXAMPLES=OFF >&2
  cmake --build "$1" -j "$(( $(nproc) < 4 ? $(nproc) : 4 ))" \
    --target micro_obs_overhead >&2
}

bench_obs() {
  local on=.bench_build/obs-on off=.bench_build/obs-off
  build_micro "$on" ON
  build_micro "$off" OFF
  runs=$(mktemp)  # global: the EXIT trap runs after this function returns
  trap 'rm -f "$runs"' EXIT
  local batches=2 pairs=15
  for ((b = 0; b < batches; ++b)); do
    for ((p = 0; p < pairs; ++p)); do
      local order=("$on" "$off")
      (( p % 2 == 1 )) && order=("$off" "$on")
      for dir in "${order[@]}"; do
        "$dir/bench/micro_obs_overhead" | sed -n 's/^machine-readable: //p' >> "$runs"
      done
      echo "bench.sh obs: batch $((b + 1))/$batches, pair $((p + 1))/$pairs" >&2
    done
  done
  local commit
  if commit=$(git rev-parse --short HEAD 2>/dev/null); then
    git diff --quiet HEAD || commit="$commit (with uncommitted changes)"
  else
    commit=unknown
  fi
  python3 - "$runs" "$commit" "$(nproc)" > BENCH_obs.json <<'EOF'
import datetime, json, statistics, sys

path, commit, nproc = sys.argv[1], sys.argv[2], int(sys.argv[3])
rows = [json.loads(line) for line in open(path)]
on = [r for r in rows if r["obs"] == "on"]
off = [r for r in rows if r["obs"] == "off"]
legs = ["online_s", "aligned_s", "overload_s", "sparse_s"]

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(v, 6) for v in q]

def block(runs, with_traced):
    out = {"runs": len(runs)}
    for leg in legs + (["traced_s"] if with_traced else []):
        out[leg] = round(min(r[leg] for r in runs), 6)
    out["quartiles"] = {leg: quartiles([r[leg] for r in runs]) for leg in legs}
    return out

def pct(a, b):
    return round(100.0 * (a - b) / b, 1)

name = {leg: leg[:-2] for leg in legs}
print(json.dumps({
    "benchmark": "micro_obs_overhead",
    "description": (
        "Cost of the src/obs instrumentation on the replay hot path: "
        "bench/micro_obs_overhead built with -DFLASHQOS_OBS=ON and OFF and "
        "run alternately. Each run reports the min of 7 in-process reps per "
        "leg; floors are the min over runs, quartiles are over runs. Legs: "
        "online and aligned replay of an exchange-like and a 5-per-interval "
        "trace; overload, an on/off stream shaped like perfbench's "
        "onoff_overload (online); sparse, one read per QoS interval "
        "(aligned). traced_s is the online leg with the tracer enabled (ON "
        "build only; an opt-in, not part of the always-on cost)."),
    "date": datetime.date.today().isoformat(),
    "host": {
        "nproc": nproc,
        "build_type": "Release",
        "commit": commit,
        "command": "scripts/bench.sh obs",
    },
    "workload": {"requests": on[0]["requests"], "leg_requests": on[0]["leg_requests"]},
    "obs_on": block(on, True),
    "obs_off": block(off, False),
    "overhead": {
        "floor_pct": {name[l]: pct(min(r[l] for r in on), min(r[l] for r in off))
                      for l in legs},
        "median_pct": {name[l]: pct(statistics.median(r[l] for r in on),
                                    statistics.median(r[l] for r in off))
                       for l in legs},
        "on_slower_pairs": {name[l]: "%d/%d" % (sum(a[l] > b[l] for a, b in zip(on, off)),
                                                len(on))
                            for l in legs},
        "target_pct": 3.0,
    },
}, indent=2))
EOF
  echo "bench.sh obs: wrote BENCH_obs.json" >&2
}

case "$1" in
  obs) bench_obs ;;
  *) usage ;;
esac
