#!/usr/bin/env bash
# Full verification gate: release build, tests (incl. golden traces and
# property suites), lint-clean clippy, and a fleet-bench baseline diff.
# Run from the repository root: ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q

# The deterministic test harness, run explicitly so a filtered `cargo
# test` invocation can never silently skip it.
cargo test -q --test golden_traces
cargo test -q --test fleet_props
cargo test -q --test recovery_props
cargo test -q --test survival_props
cargo test -q -p wiot --test transport_edges
# The wiot package's own unit and property tests (attacker, campaign
# read spans, scenario validation, fleet engine); a root `cargo test`
# never runs them.
cargo test -q -p wiot
cargo test -q --test resample_props
# The campaign engine enrolls its victim pool on the fleet engine's
# ordered-parallel core, so its thread-count invariance is part of the
# harness too.
cargo test -q --test campaign_props
# Reference synthesis is bit-exact against its historical per-sample
# kernels (bank and 1,024-subject population sweeps, a proptest over
# random morphologies, pinned sample hashes); every digest below rests
# on it.
cargo test -q -p physio-sim
# The Amulet flavor's fused ADC front end is bit-exact against the
# previous three-buffer front end, kept as a test oracle (bank windows,
# a proptest over hostile snippets, exhaustive code boundaries); the
# flavor's own unit tests live in the sift package too.
cargo test -q -p sift

# Detector-zoo certification: the backend-parameterized conformance
# suite (runs every property against BackendKind::ALL) plus the
# Tsetlin backend's own clause-logic and codec-fuzz properties.
cargo test -q --test detector_conformance
cargo test -q -p ml --test tsetlin_props

# Repository benchmark: its conformance suite builds against the public
# APIs of the simulation crates (attack materialization, device
# provisioning, model-bank enrollment), so an API break there fails
# here rather than only when the benchmark runs.
cargo test --release --manifest-path perfbench/Cargo.toml

cargo clippy --workspace -- -D warnings

# Workspace static analysis: embedded-profile, determinism, call-graph,
# and budget invariants, with warnings promoted to failures. Also
# regenerates results/ANALYZER_footprint.json — including the certified
# worst-case stack section, which is diffed against the committed copy
# below: a moved stack bound is a real behaviour change (new call edge,
# new frame) and must be reviewed like any other baseline.
footprint=results/ANALYZER_footprint.json
stack_before=""
if [[ -f "$footprint" ]]; then
  stack_before=$(sed -n '/"stack": {/,/^  }/p' "$footprint")
fi
cargo run -q -p analyzer -- --deny warnings
if [[ -n "$stack_before" ]]; then
  stack_after=$(sed -n '/"stack": {/,/^  }/p' "$footprint")
  if [[ "$stack_before" != "$stack_after" ]]; then
    echo "verify: FAIL certified worst-case stack drifted in $footprint:"
    diff -u <(printf '%s\n' "$stack_before") <(printf '%s\n' "$stack_after") || true
    echo "verify: review the new call chain; commit the regenerated footprint if intended"
    exit 1
  fi
  echo "verify: certified stack section matches committed footprint"
fi

# Crash-recovery soak: 50 devices x ~21 seeded random power cycles
# (brownout reboots, torn checkpoint commits, FRAM bit rot) — over 1000
# reboots fleet-wide. The bin exits nonzero unless every reboot
# recovered from its FRAM checkpoint, nothing was refused, every device
# is operational at exit, and the report digest is identical between
# the single-threaded and multi-threaded runs.
cargo run --release -q -p bench --bin recovery -- --threads 8

# Telemetry gates: the bin exits nonzero if enabling the sink perturbs
# the fleet digest at any thread count, if the merged fleet telemetry
# depends on the thread count, or if the observed per-stage span cycles
# disagree with the cost model. The disabled-sink overhead check prints
# a warning only (wall-clock noise). Also regenerates
# results/TELEMETRY_pipeline.json and results/TELEMETRY_trace.ndjson.
cargo run --release -q -p bench --bin telemetry

# Fleet throughput check: regenerate results/BENCH_fleet.json with the
# baseline's parameters and diff against the committed numbers. The
# report digest is a hard gate — it only moves when the simulation
# itself changed — while the wall-clock fields legitimately differ
# between machines and runs, so any other drift stays warn-only.
baseline=results/BENCH_fleet_baseline.json
fleet_out=results/BENCH_fleet.json
if [[ -f "$baseline" ]]; then
  cargo run --release -q -p bench --bin fleet -- \
    --devices 100 --threads 8 --seed 61455 --duration 30 \
    --out "$fleet_out" >/dev/null
  base_digest=$(grep -o '"digest": "[^"]*"' "$baseline" || true)
  new_digest=$(grep -o '"digest": "[^"]*"' "$fleet_out" || true)
  if [[ "$base_digest" != "$new_digest" ]]; then
    echo "verify: FAIL fleet report digest drifted: baseline $base_digest vs $new_digest"
    diff -u "$baseline" "$fleet_out" || true
    exit 1
  fi
  if diff -u "$baseline" "$fleet_out" >/dev/null 2>&1; then
    echo "verify: fleet bench matches baseline exactly"
  else
    echo "verify: fleet digest matches baseline ($base_digest)"
    echo "verify: WARN wall-clock fields drifted from $baseline (expected between runs):"
    diff -u "$baseline" "$fleet_out" || true
  fi
else
  echo "verify: WARN no fleet baseline at $baseline; skipping bench diff"
fi

# Slab streaming engine gate: re-run the 100k-device fleet_xl bench with
# the baseline's parameters. The bin itself exits nonzero if the slab
# digest differs between 1, 2, and 8 worker threads or if the reorder
# window overflows its bound; on top of that, the digest must match the
# committed baseline byte-for-byte — it is a pure function of the seed,
# device count, and duration. The Turbo/Reference throughput ratio (the
# bin times a Reference-synthesis slice of the same spec in the same
# process) against the 10x target is warn-only: wall-clock ratios are
# machine-dependent.
xl_baseline=results/BENCH_fleet_xl.json
if [[ -f "$xl_baseline" ]]; then
  cargo run --release -q -p bench --bin fleet_xl -- \
    --devices 100000 --threads 8 --seed 61455 --duration 30 \
    --out /tmp/BENCH_fleet_xl.verify.json >/dev/null
  base_digest=$(grep -o '"slab_digest": "[^"]*"' "$xl_baseline" || true)
  new_digest=$(grep -o '"slab_digest": "[^"]*"' /tmp/BENCH_fleet_xl.verify.json || true)
  if [[ "$base_digest" != "$new_digest" ]]; then
    echo "verify: FAIL fleet_xl slab digest drifted: baseline $base_digest vs $new_digest"
    diff -u "$xl_baseline" /tmp/BENCH_fleet_xl.verify.json || true
    exit 1
  fi
  echo "verify: fleet_xl slab digest matches baseline ($base_digest)"
  speedup=$(grep -o '"turbo_vs_reference_speedup": [0-9.]*' \
    /tmp/BENCH_fleet_xl.verify.json | grep -o '[0-9.]*$' || echo 0)
  if awk -v s="$speedup" 'BEGIN { exit !(s < 10.0) }'; then
    echo "verify: WARN fleet_xl Turbo/Reference ratio ${speedup}x below the 10x target (wall-clock, machine-dependent)"
  else
    echo "verify: fleet_xl Turbo/Reference ratio ${speedup}x meets the 10x target"
  fi
else
  echo "verify: WARN no fleet_xl baseline at $xl_baseline; skipping slab gate"
fi

# Survival-policy lifetime gate: regenerate results/BENCH_lifetime.json
# and compare against the committed baseline. The bin itself exits
# nonzero if the lifetime ordering breaks (adaptive < 1.5x Original,
# Reduced outside the ~2x band), the adaptive policy costs more than
# 2 pp of accuracy, a policy snapshot fails to round-trip, or the
# survival-enabled fleet digest moves with the thread count. On top of
# that, digest drift against the committed baseline is a hard failure
# here — every field of the JSON is deterministic, so any other drift
# is also worth a failing diff.
lifetime_baseline=results/BENCH_lifetime_baseline.json
if [[ -f "$lifetime_baseline" ]]; then
  cargo run --release -q -p bench --bin lifetime >/dev/null
  base_digest=$(grep -o '"digest": "[^"]*"' "$lifetime_baseline" || true)
  new_digest=$(grep -o '"digest": "[^"]*"' results/BENCH_lifetime.json || true)
  if [[ "$base_digest" != "$new_digest" ]]; then
    echo "verify: FAIL survival fleet digest drifted: baseline $base_digest vs $new_digest"
    diff -u "$lifetime_baseline" results/BENCH_lifetime.json || true
    exit 1
  fi
  if diff -u "$lifetime_baseline" results/BENCH_lifetime.json >/dev/null 2>&1; then
    echo "verify: lifetime bench matches baseline exactly"
  else
    echo "verify: FAIL lifetime bench drifted from $lifetime_baseline:"
    diff -u "$lifetime_baseline" results/BENCH_lifetime.json || true
    exit 1
  fi
else
  echo "verify: WARN no lifetime baseline at $lifetime_baseline; skipping bench diff"
fi

# Detector-zoo report gate: regenerate the backend x flavor comparison
# and diff against the committed report. Every field is derived from
# seeded training, the cost model, and the resource profiler — fully
# deterministic — so *any* drift is a hard failure. (The bin itself
# exits nonzero if the observed telemetry span cycles disagree with the
# cost model for either backend, or if a flavor ladder stops shrinking.)
zoo_baseline=results/DETECTOR_zoo.json
if [[ -f "$zoo_baseline" ]]; then
  cargo run --release -q -p bench --bin detector_zoo -- \
    --out /tmp/DETECTOR_zoo.verify.json >/dev/null
  if diff -u "$zoo_baseline" /tmp/DETECTOR_zoo.verify.json >/dev/null 2>&1; then
    echo "verify: detector zoo matches committed report exactly"
  else
    echo "verify: FAIL detector zoo drifted from $zoo_baseline:"
    diff -u "$zoo_baseline" /tmp/DETECTOR_zoo.verify.json || true
    exit 1
  fi
else
  echo "verify: WARN no zoo report at $zoo_baseline; skipping zoo diff"
fi

# Adversary-campaign gate: regenerate the per-attack-class detection
# matrix (population x backend cells, each digest-checked at 1/2/8
# threads inside the bin) and diff against the committed baseline.
# Every field — counts, permille rates, Wilson bounds, digests — is a
# pure function of the seeds, so any drift is a hard failure.
campaign_baseline=results/BENCH_campaign.json
if [[ -f "$campaign_baseline" ]]; then
  cargo run --release -q -p bench --bin campaign -- \
    --out /tmp/BENCH_campaign.verify.json >/dev/null
  if diff -u "$campaign_baseline" /tmp/BENCH_campaign.verify.json >/dev/null 2>&1; then
    echo "verify: campaign matrix matches committed baseline exactly"
  else
    echo "verify: FAIL campaign matrix drifted from $campaign_baseline:"
    diff -u "$campaign_baseline" /tmp/BENCH_campaign.verify.json || true
    exit 1
  fi
else
  echo "verify: WARN no campaign baseline at $campaign_baseline; skipping campaign diff"
fi

# Paper results: regenerate the six committed paper tables and figures
# and hard-diff each against results/. Every bin is seeded, so any drift
# means the simulation (for table2, over 1200 s Reference records) moved.
# table2 prints its wall time on a `completed in` line; only that line is
# exempt from the diff.
for bin in table1 table2 table3 fig3 roc ablation; do
  committed=results/$bin.txt
  fresh=/tmp/$bin.verify.txt
  cargo run --release -q -p bench --bin "$bin" >"$fresh"
  if diff -u <(grep -v '^completed in ' "$committed") \
             <(grep -v '^completed in ' "$fresh") >/dev/null; then
    echo "verify: $committed matches the regenerated output"
  else
    echo "verify: FAIL $committed drifted from bench --bin $bin:"
    diff -u "$committed" "$fresh" || true
    exit 1
  fi
done

echo "verify: OK"
