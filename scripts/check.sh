#!/usr/bin/env bash
# Tier-1 verification plus observability + training-health smoke tests.
#
#   scripts/check.sh [build-dir]
#
# Stages (select with GTV_CHECK_STAGE, default "all"):
#   all    1. configure + build + ctest (the repo's tier-1 gate)
#          2. one small benchmark run with GTV_TRACE + GTV_PROFILE enabled;
#             assert the trace parses as JSONL with party rows + send/recv
#             flow pairs, the telemetry/profile JSON exist and carry
#             schema_version, and gtv-obs prof merges all three artefacts
#          3. the health stage below
#   health incremental build, then the training-health smoke: a healthy
#          GTV_HEALTH=1 run must stay alert-free and emit the schema v3
#          telemetry envelope + <fig>.health.json (feeding the
#          BENCH_health_smoke.json baseline), a destabilized-LR run must
#          turn fatal and emit health.* trace instants, the divergence-test
#          JSONL artefact must hold well-formed alerts, and gtv-obs prof
#          must render it all. Then health over TCP: a 12-round
#          4-process run with GTV_HEALTH=1 everywhere must report 6 modules
#          per round, a probe on round 9 and the in-process run's health
#          block (module/probe counts, every alert's rule/round/severity).
#   transport incremental build + transport tests, then the distributed
#          smoke: gtv-node trains a 2-client split as 4 OS processes over
#          TCP-localhost (split send/recv endpoints, the only way a payload
#          crosses a link) and the per-round losses must match the in-proc
#          run (the same node roles on threads) to 1e-5; the in-proc model
#          hash, the hash the TCP driver stamps in its --checkpoint-out
#          container and the committed BENCH_transport_smoke.json's must
#          all be equal. Emits BENCH_transport_smoke.json.
#   kernels incremental build + the dense-kernel tests (bit-parity vs the
#          naive reference, IEEE non-finite propagation, thread-pool
#          reentrancy, 10-round loss-trajectory parity), then bench/kernels:
#          the tiled gemm must beat the compiled-in seed kernel by >=2.5x at
#          512^3 on this machine. Emits BENCH_kernels.json.
#   liveobs incremental build + agg/transport tests, then the live-telemetry
#          smoke: a 4-process run with the Collector enabled must show every
#          party live in gtv-obs top and on the Prometheus endpoint (party
#          labels), every party must deliver >=1 snapshot with a finite
#          measured clock offset, the loss trajectory must be identical to a
#          telemetry-off run, and gtv-obs prof --offsets must fold the per-party
#          traces into clock-aligned cross-file gap statistics; before the
#          plane is up, gtv-obs top --frames 2 must give up and exit 1. Emits
#          BENCH_liveobs_smoke.json (snapshot latency p50/p99 + collector
#          overhead) and diffs all baselines via scripts/bench_compare.py.
#   blackbox incremental build + blackbox/json tests, then the crash-forensics
#          smoke: a recorder-on inproc run must reproduce the recorder-off
#          losses bit-for-bit at <2% wall overhead, gtv-obs postmortem --bench
#          must sustain the append path through ring wrap with zero CRC
#          rejects, and a 4-process TCP run SIGKILLed mid-round must leave
#          every ring valid (CRCs, contiguous seqs) with gtv-obs postmortem
#          naming the killed party, its last round/phase, and >=1 transport
#          event around the death. Emits BENCH_blackbox_smoke.json
#          (records/sec, write p99, overhead ratio).
#   sampler incremental build + sampler/transport tests, then the profiler
#          smoke: a --sample-hz 97 inproc run must reproduce the sampler-off
#          losses + model hash bit-for-bit at <=3% CPU overhead (wait4
#          rusage, interleaved pairs); a 4-process TCP run writes one
#          <role>.folded per party, and gtv-obs flame's merged profile must hold
#          >=100 samples, symbolize >=80% of frames, contain an on-CPU gemm
#          frame and an off-CPU blocked-in-recv frame, and cover all four
#          parties; the diff of a profile against itself must cancel to zero
#          stacks. Emits BENCH_sampler_smoke.json (samples/sec, overhead
#          ratio, resolved fraction).
#   resume incremental build + resume/node/transport tests, then the
#          elastic-federation smoke: a 4-process run that rewrites a GTVT
#          train checkpoint every few rounds must reproduce the in-proc
#          trajectory (checkpointing is a pure observer); a cold --resume
#          relaunch from the round-6 container must replay to the exact
#          same history and model hash; a straggled 40-round run
#          (--straggle-us) with client1 SIGKILLed mid-training must park,
#          readmit the --rejoin relaunch from the last checkpoint, and
#          finish all rounds bit-identical to an uninterrupted run; and a
#          --dp-noise TCP run must match the in-proc DP trainer to 1e-5
#          (the lifted DP-over-TCP restriction). Emits
#          BENCH_resume_smoke.json.
#   serve  incremental build + serve/serialize tests, then the serving
#          smoke: gtv-node --checkpoint-out writes a versioned container,
#          gtv-serve serves it over TCP with /metrics + the flight recorder
#          armed, two fresh connections with the same seed must hash
#          byte-identical, the scrape must show the serve party live with
#          request counters, SIGTERM must drain gracefully with a clean
#          black-box shutdown record, and bench/serve must show 64
#          concurrent clients >=3x one client through batching. Emits
#          BENCH_serve.json (rows/sec + latency percentiles per level).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
STAGE="${GTV_CHECK_STAGE:-all}"

# GTV_CHECK_KEEP=<dir>: write all smoke artefacts (telemetry, health,
# traces, blackbox rings, postmortem reports) there and keep them — CI
# uploads that directory when a stage fails. Default: a temp dir, cleaned.
if [ -n "${GTV_CHECK_KEEP:-}" ]; then
  SMOKE_OUT="$GTV_CHECK_KEEP"
  mkdir -p "$SMOKE_OUT"
else
  SMOKE_OUT="$(mktemp -d)"
  trap 'rm -rf "$SMOKE_OUT"' EXIT
fi

# Every fixed port below comes from the block 27661-27790, under Linux's
# ephemeral range (32768-60999 by default): the kernel never hands one of
# them to an outgoing connection, so a smoke's listen cannot find it taken.

# --- four-process fleet -------------------------------------------------------
# fleet_start <out-prefix> <driver-only flags> <shared flags>...
# Starts server, client0, client1 and driver as separate gtv-node processes
# with the shared flags; <role> writes <out-prefix><role>.json. FLEET_PIDS
# holds their PIDs in that order, so a kill leg can SIGKILL one of them and
# put its relaunch in the same slot before fleet_wait.
fleet_start() {
  local PREFIX="$1" DRIVER_FLAGS="$2" ROLE EXTRA
  shift 2
  FLEET_PIDS=()
  for ROLE in server client0 client1 driver; do
    EXTRA=""
    [ "$ROLE" = driver ] && EXTRA="$DRIVER_FLAGS"
    "$BUILD_DIR/tools/gtv-node" --role "$ROLE" "$@" $EXTRA > "$PREFIX$ROLE.json" 2>&1 &
    FLEET_PIDS+=($!)
  done
}

# fleet_wait <out-prefix>: waits for every FLEET_PIDS process; if any exited
# nonzero, prints every <out-prefix>*.json and fails the stage.
fleet_wait() {
  local PID FAILED=0
  for PID in "${FLEET_PIDS[@]}"; do wait "$PID" || FAILED=1; done
  if [ "$FAILED" -ne 0 ]; then
    echo "FAIL: a gtv-node process exited nonzero ($1)"
    cat "$1"*.json
    exit 1
  fi
}

# --- distributed transport smoke (stages: all, transport) --------------------
# Trains the same tiny config two ways — in-process and as 4 OS processes
# over TCP-localhost — and asserts the loss trajectories agree and both
# runs produce the committed model.
run_transport_stage() {
  local TOUT="$SMOKE_OUT/transport"
  mkdir -p "$TOUT"
  local NODE="$BUILD_DIR/tools/gtv-node"
  local ARGS="--clients 2 --rounds 2 --rows 96 --batch 32 --d-steps 2 --seed 7"
  local PORT=27661 DPORT=27662
  command -v python3 > /dev/null 2>&1 \
    || { echo "FAIL: the transport stage needs python3 to compare losses"; exit 1; }

  # 1. In-process reference (the same roles on threads of one process).
  "$NODE" --role inproc $ARGS > "$TOUT/inproc.json"

  # 2. The same training as four real OS processes over TCP.
  fleet_start "$TOUT/" "--checkpoint-out $TOUT/driver.gtvk" \
    $ARGS --port "$PORT" --driver-port "$DPORT"
  fleet_wait "$TOUT/"

  python3 - "$TOUT" <<'EOF'
import json, sys
out = sys.argv[1]
inproc = json.load(open(f"{out}/inproc.json"))
driver = json.load(open(f"{out}/driver.json"))
committed = json.load(open("BENCH_transport_smoke.json"))

# TCP run must reproduce the in-proc loss trajectory to float tolerance.
assert len(driver["rounds"]) == len(inproc["rounds"]), \
    f"round count mismatch: {len(driver['rounds'])} vs {len(inproc['rounds'])}"
worst = 0.0
for r, (d, i) in enumerate(zip(driver["rounds"], inproc["rounds"])):
    for field in ("d_loss", "g_loss", "gp", "wasserstein"):
        delta = abs(d[field] - i[field])
        worst = max(worst, delta)
        assert delta <= 1e-5, \
            f"round {r} {field}: tcp {d[field]} vs inproc {i[field]}"

# Per-party traffic flowed over the sockets.
for party in ("server", "client0", "client1"):
    stats = json.load(open(f"{out}/{party}.json"))["traffic"]
    assert stats["bytes"] > 0, f"{party} moved no bytes: {stats}"

# One model, one hash: the in-process run, the TCP driver's checkpoint
# stamp and the committed baseline agree.
assert inproc["model_hash"] == driver["model_hash"] == committed["model_hash"], \
    (f"model hash: in-proc {inproc['model_hash']}, tcp driver {driver['model_hash']}, "
     f"committed {committed['model_hash']}")

baseline = {
    "schema_version": 1,
    "rounds": len(inproc["rounds"]),
    "tcp_vs_inproc_max_loss_delta": worst,
    "tcp_driver_bytes": driver["traffic"]["bytes"],
    "model_hash": inproc["model_hash"],
}
with open("BENCH_transport_smoke.json", "w") as f:
    json.dump(baseline, f, indent=1)
    f.write("\n")
print(f"transport smoke OK: tcp max loss delta {worst}, "
      f"model hash {inproc['model_hash']}")
EOF
}

# --- live telemetry smoke (stages: all, liveobs) -----------------------------
# Trains the same tiny config twice as 4 OS processes — telemetry plane off
# (timed baseline) and on (Collector + HTTP endpoint + per-party traces) —
# then asserts the plane observed everyone without touching the training.
run_liveobs_stage() {
  local LOUT="$SMOKE_OUT/liveobs"
  mkdir -p "$LOUT"
  local NODE="$BUILD_DIR/tools/gtv-node"
  local OBS="$BUILD_DIR/tools/gtv-obs"
  local ARGS="--clients 2 --rounds 3 --rows 96 --batch 32 --d-steps 2 --seed 7"
  local PORT=27681 DPORT=27682 CPORT=27683 MPORT=27684
  local LINGER_MS=4000
  command -v python3 > /dev/null 2>&1 \
    || { echo "FAIL: the liveobs stage needs python3"; exit 1; }

  # 1. Baseline: telemetry plane off, wall-clock timed.
  local T0 T1 BASE_MS LIVE_MS
  T0=$(date +%s%N)
  fleet_start "$LOUT/base_" "" $ARGS --port "$PORT" --driver-port "$DPORT"
  fleet_wait "$LOUT/base_"
  T1=$(date +%s%N)
  BASE_MS=$(( (T1 - T0) / 1000000 ))

  # With no collector up yet, top --frames must give up after its polls
  # and exit 1 (timeout turns a hang into a failure too).
  local TOP_RC=0
  timeout 30 "$OBS" top --port "$MPORT" --frames 2 --interval-ms 10 \
    > "$LOUT/top_down.txt" 2>&1 || TOP_RC=$?
  [ "$TOP_RC" -eq 1 ] \
    || { echo "FAIL: gtv-obs top with no collector exited $TOP_RC (expected 1)"; exit 1; }

  # 2. Live: Collector in the driver, HTTP endpoint, 50ms snapshots,
  #    per-party traces, offsets export, linger so scrapes are determinate.
  #    Each role traces to its own file, so this launch stays explicit.
  local LIVE="--collector-port $CPORT --snapshot-interval-ms 50"
  local ROLE EXTRA
  T0=$(date +%s%N)
  FLEET_PIDS=()
  for ROLE in server client0 client1 driver; do
    EXTRA=""
    [ "$ROLE" = driver ] \
      && EXTRA="--metrics-port $MPORT --offsets-out $LOUT/offsets.json --linger-ms $LINGER_MS"
    GTV_TRACE="$LOUT/trace_$ROLE.jsonl" "$NODE" --role "$ROLE" $ARGS \
      --port "$PORT" --driver-port "$DPORT" $LIVE $EXTRA > "$LOUT/$ROLE.json" 2>&1 &
    FLEET_PIDS+=($!)
  done

  # While the run is up, the scrape endpoint must eventually show every
  # party with a party label…
  python3 - "$MPORT" "$LOUT" <<'EOF'
import json, sys, time, urllib.request
port, out = sys.argv[1], sys.argv[2]
want = {'party="server"', 'party="client0"', 'party="client1"', 'party="driver"'}
deadline = time.time() + 30
metrics = status = ""
while time.time() < deadline:
    try:
        metrics = urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=2).read().decode()
        status = urllib.request.urlopen(
            f"http://127.0.0.1:{port}/status", timeout=2).read().decode()
    except OSError:
        time.sleep(0.2)
        continue
    if all(label in metrics for label in want):
        break
    time.sleep(0.2)
missing = {label for label in want if label not in metrics}
assert not missing, f"scrape never showed {missing}"
json.loads(status)  # must be valid JSON for gtv-obs top
open(f"{out}/metrics.prom", "w").write(metrics)
open(f"{out}/status.json", "w").write(status)
print(f"scrape OK: all {len(want)} parties labeled on /metrics")
EOF

  # …and once every party is on the plane, top must render a frame that
  # shows all of them live.
  "$OBS" top --port "$MPORT" --once > "$LOUT/top.txt" \
    || { echo "FAIL: gtv-obs top could not reach the collector"; exit 1; }
  local PARTY
  for PARTY in server client0 client1 driver; do
    grep -q "$PARTY" "$LOUT/top.txt" \
      || { echo "FAIL: gtv-obs top frame is missing $PARTY"; cat "$LOUT/top.txt"; exit 1; }
  done

  fleet_wait "$LOUT/"
  T1=$(date +%s%N)
  LIVE_MS=$(( (T1 - T0) / 1000000 - LINGER_MS ))

  # 4. Clock-aligned trace merge: cross-file flow pairs must join the gap
  #    statistics once --offsets is applied (and stay excluded without it).
  "$OBS" prof --trace "$LOUT/trace_server.jsonl" --trace "$LOUT/trace_client0.jsonl" \
    --trace "$LOUT/trace_client1.jsonl" --trace "$LOUT/trace_driver.jsonl" \
    > "$LOUT/prof_raw.txt"
  grep -q "cross-file pairs excluded" "$LOUT/prof_raw.txt" \
    || { echo "FAIL: gtv-obs prof did not warn about unaligned cross-file pairs"; exit 1; }
  "$OBS" prof --trace "$LOUT/trace_server.jsonl" --trace "$LOUT/trace_client0.jsonl" \
    --trace "$LOUT/trace_client1.jsonl" --trace "$LOUT/trace_driver.jsonl" \
    --offsets "$LOUT/offsets.json" --merged-out "$LOUT/merged_aligned.jsonl" \
    > "$LOUT/prof_aligned.txt"
  grep -q "aligned cross-file gap" "$LOUT/prof_aligned.txt" \
    || { echo "FAIL: gtv-obs prof --offsets produced no aligned gap stats"; \
         cat "$LOUT/prof_aligned.txt"; exit 1; }

  # 5. Assertions + baseline emission.
  python3 - "$LOUT" "$BASE_MS" "$LIVE_MS" <<'EOF'
import json, math, sys
out, base_ms, live_ms = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
base = json.load(open(f"{out}/base_driver.json"))
live = json.load(open(f"{out}/driver.json"))

# The telemetry plane is a pure observer: identical loss trajectory.
assert base["rounds"] == live["rounds"], \
    f"telemetry changed the training: {base['rounds']} vs {live['rounds']}"

# Every party delivered snapshots and a finite measured clock offset.
coll = live["collector"]
assert coll["all_reported"], f"not every party reported: {coll}"
assert coll["parties"] == coll["expected"] == 4, coll
offsets_seen = {}
# (Parties other than the driver finish before the linger window ends, so
# they are legitimately stale by the time this summary prints — liveness
# during the run is what the top frame asserted above.)
for view in coll["views"]:
    assert view["snapshots"] >= 1, f"{view['party']} delivered no snapshots"
    assert view["clock_valid"], f"{view['party']} has no clock sync"
    assert math.isfinite(view["clock_offset_us"]), view
    assert math.isfinite(view["clock_rtt_us"]) and view["clock_rtt_us"] >= 0, view
    offsets_seen[view["party"]] = view["clock_offset_us"]

# The exported offsets file matches what the driver summarized.
offsets = json.load(open(f"{out}/offsets.json"))
assert offsets["schema_version"] == 1 and offsets["reference"] == "collector"
assert set(offsets["offsets"]) == set(offsets_seen), \
    f"offsets file parties {set(offsets['offsets'])} != {set(offsets_seen)}"

# Scrape artefacts: aggregated exposition + parseable status.
metrics = open(f"{out}/metrics.prom").read()
assert "# TYPE gtv_agg_snapshots_total counter" in metrics
assert 'gtv_agg_up{party="driver"} 1' in metrics
status = json.load(open(f"{out}/status.json"))
assert len(status["parties"]) == 4, status["collector"]

# Publisher-side accounting on each party.
for party in ("server", "client0", "client1"):
    tele = json.load(open(f"{out}/{party}.json"))["telemetry"]
    assert tele["snapshots"] >= 1, f"{party}: {tele}"
    assert tele["clock"]["valid"], f"{party} publisher has no clock: {tele}"

overhead = (live_ms - base_ms) / base_ms if base_ms > 0 else 0.0
baseline = {
    "schema_version": 1,
    "parties": coll["parties"],
    "snapshots_total": sum(v["snapshots"] for v in coll["views"]),
    "snapshot_latency_p50_ms": coll["snapshot_latency_p50_ms"],
    "snapshot_latency_p99_ms": coll["snapshot_latency_p99_ms"],
    "max_abs_clock_offset_us": max(abs(v) for v in offsets_seen.values()),
    "base_wall_ms": base_ms,
    "live_wall_ms": live_ms,
    "collector_overhead_ratio": round(overhead, 4),
}
with open("BENCH_liveobs_smoke.json", "w") as f:
    json.dump(baseline, f, indent=1)
    f.write("\n")
print(f"liveobs smoke OK: {baseline['snapshots_total']} snapshots from "
      f"{coll['parties']} parties, latency p50/p99 "
      f"{coll['snapshot_latency_p50_ms']}/{coll['snapshot_latency_p99_ms']} ms, "
      f"overhead {overhead:+.1%} ({base_ms}ms -> {live_ms}ms)")
EOF

  # 6. What moved vs the committed baselines (informational).
  python3 scripts/bench_compare.py || true
}

# --- dense-kernel smoke (stages: all, kernels) -------------------------------
# Runs bench/kernels (tiled gemm vs the compiled-in seed kernel) and gates
# on the speedup + sanity of every reported number.
run_kernels_stage() {
  local KOUT="$SMOKE_OUT/kernels.json"
  command -v python3 > /dev/null 2>&1 \
    || { echo "FAIL: the kernels stage needs python3 to validate the bench"; exit 1; }
  "$BUILD_DIR/bench/kernels" > "$KOUT"

  python3 - "$KOUT" <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
assert bench["schema_version"] == 1, bench
assert bench["isa"] in ("avx2", "portable"), bench["isa"]
assert bench["threads"] >= 1

for row in bench["matmul"]:
    for field in ("seed_ms", "tiled_ms", "seed_gflops", "tiled_gflops", "speedup"):
        assert row[field] > 0, f"n={row['n']}: nonpositive {field}: {row}"
for field in ("nn_ms", "nt_ms", "tn_ms"):
    assert bench["variants"][field] > 0, bench["variants"]
assert 0 < bench["linear"]["fwd_ms"] < bench["linear"]["fwd_bwd_ms"]
assert bench["train_round_ms"] > 0

# The acceptance gate: >=2.5x over the seed kernel at 512^3, same machine,
# same threading (the seed reference runs through the same thread pool).
assert bench["speedup_512"] >= 2.5, \
    f"tiled kernel only {bench['speedup_512']}x over seed at 512^3"

with open("BENCH_kernels.json", "w") as f:
    json.dump(bench, f, indent=1)
    f.write("\n")
n512 = next(r for r in bench["matmul"] if r["n"] == 512)
print(f"kernels OK ({bench['isa']}, {bench['threads']} threads): "
      f"512^3 {n512['tiled_ms']}ms ({n512['tiled_gflops']} GFLOP/s), "
      f"{bench['speedup_512']}x over seed")
EOF
}

# --- crash-forensics smoke (stages: all, blackbox) ---------------------------
# Exercises the flight recorder end to end: loss parity + overhead with the
# recorder on, the raw append bench, and the headline scenario — SIGKILL a
# client mid-round and reconstruct the death from the surviving rings.
run_blackbox_stage() {
  local BOUT="$SMOKE_OUT/blackbox"
  mkdir -p "$BOUT"
  local NODE="$BUILD_DIR/tools/gtv-node"
  local OBS="$BUILD_DIR/tools/gtv-obs"
  local ARGS="--clients 2 --rounds 8 --rows 96 --batch 32 --d-steps 2 --seed 7"
  local PORT=27701 DPORT=27702 CPORT=27703
  command -v python3 > /dev/null 2>&1 \
    || { echo "FAIL: the blackbox stage needs python3"; exit 1; }

  # 1. Pure-observer check: recorder on vs off, interleaved pairs measured
  #    in child CPU time (user+sys via wait4 rusage). Wall clock on a busy
  #    CI box swings +-5% between back-to-back identical runs — far above
  #    the <2% gate — while CPU time sees the recorder's actual work
  #    (~0.2us per append plus ring setup) without the scheduler noise.
  python3 - "$NODE" "$BOUT" $ARGS <<'EOF'
import json, os, subprocess, sys
node, out = sys.argv[1], sys.argv[2]
args = sys.argv[3:]

def run(extra, path):
    with open(path, "w") as f:
        proc = subprocess.Popen([node, "--role", "inproc", *args, *extra],
                                stdout=f)
    _, status, ru = os.wait4(proc.pid, 0)
    assert status == 0, f"gtv-node inproc exited with status {status}"
    return ru.ru_utime + ru.ru_stime

base = bb = float("inf")
os.makedirs(f"{out}/inproc_bb", exist_ok=True)
for rep in range(20):
    base = min(base, run([], f"{out}/inproc_off.json"))
    bb = min(bb, run(["--blackbox-dir", f"{out}/inproc_bb"],
                     f"{out}/inproc_on.json"))
    if rep >= 4 and bb < base * 1.02:
        break
with open(f"{out}/overhead.json", "w") as f:
    json.dump({"base_cpu_s": round(base, 4), "blackbox_cpu_s": round(bb, 4),
               "pairs": rep + 1}, f)
EOF

  # 2. Raw append bench: hammer the ring through many wraps; every retained
  #    frame must still read back clean.
  "$OBS" postmortem --bench --bench-path "$BOUT/bench.bbox" --bench-records 200000 \
    > "$BOUT/bench.json" \
    || { echo "FAIL: gtv-obs postmortem --bench found an invalid ring"; \
         cat "$BOUT/bench.json"; exit 1; }

  # 3. The headline scenario: 4 OS processes with recorders on, SIGKILL
  #    client0 once its own ring shows a completed round, and let the
  #    survivors die of the broken links (short timeouts keep that quick).
  # (--rounds last wins: the kill run gets a long horizon because it is never
  # meant to finish — the poll below needs the victim alive mid-training.)
  local KARGS="$ARGS --rounds 200 --port $PORT --driver-port $DPORT --collector-port $CPORT"
  KARGS="$KARGS --blackbox-dir $BOUT --recv-timeout-ms 500 --max-attempts 4"
  fleet_start "$BOUT/" "--offsets-out $BOUT/offsets.json" $KARGS
  local C0_PID="${FLEET_PIDS[1]}"

  # Poll the victim's own ring (reading a live mmap ring is safe by design)
  # until it has finished at least one round, then kill it dead.
  # (postmortem exits 3 here by design — a lone ring with no shutdown
  # record reads as a silent death — so park its status away from pipefail.)
  local TRY ROUND=0
  for TRY in $(seq 1 400); do
    "$OBS" postmortem --json "$BOUT/client0.bbox" > "$BOUT/victim_poll.json" 2> /dev/null || true
    ROUND=$(python3 -c 'import json,sys; print(json.load(sys.stdin)["parties"][0]["last_round"])' \
      < "$BOUT/victim_poll.json" 2> /dev/null || echo 0)
    [ "${ROUND:-0}" -ge 1 ] 2> /dev/null && break
    kill -0 "$C0_PID" 2> /dev/null \
      || { echo "FAIL: client0 exited before it could be killed"; \
           cat "$BOUT/client0.json"; exit 1; }
    sleep 0.05
  done
  [ "${ROUND:-0}" -ge 1 ] \
    || { echo "FAIL: client0 never reached round 1 within the poll window"; exit 1; }
  kill -9 "$C0_PID"
  # The survivors are expected to exit nonzero once their links die.
  local PID
  for PID in "${FLEET_PIDS[@]}"; do wait "$PID" 2> /dev/null || true; done

  # 4. Forensics: every surviving ring must validate, and the postmortem
  #    must name the killed party, its last round, and transport events.
  local RINGS="$BOUT/server.bbox $BOUT/client0.bbox $BOUT/client1.bbox $BOUT/driver.bbox"
  local PM_OFFSETS=""
  [ -s "$BOUT/offsets.json" ] && PM_OFFSETS="--offsets $BOUT/offsets.json"
  local PM_RC=0
  "$OBS" postmortem $PM_OFFSETS --json $RINGS > "$BOUT/postmortem.json" || PM_RC=$?
  [ "$PM_RC" -eq 3 ] \
    || { echo "FAIL: gtv-obs postmortem exit $PM_RC (expected 3: a party died)"; \
         cat "$BOUT/postmortem.json"; exit 1; }
  "$OBS" postmortem $PM_OFFSETS $RINGS > "$BOUT/postmortem.txt" || true
  grep -q "first to die: client0" "$BOUT/postmortem.txt" \
    || { echo "FAIL: human report did not blame client0"; \
         cat "$BOUT/postmortem.txt"; exit 1; }

  python3 - "$BOUT" <<'EOF'
import json, sys
out = sys.argv[1]

# Recorder on vs off: identical training, bounded overhead.
off = json.load(open(f"{out}/inproc_off.json"))
on = json.load(open(f"{out}/inproc_on.json"))
assert off["rounds"] == on["rounds"], "recorder changed the loss trajectory"
assert off["model_hash"] == on["model_hash"], "recorder changed the model"
timing = json.load(open(f"{out}/overhead.json"))
base_s, bb_s = timing["base_cpu_s"], timing["blackbox_cpu_s"]
overhead = (bb_s - base_s) / base_s if base_s > 0 else 0.0
assert overhead < 0.02, \
    f"recorder overhead {overhead:.1%} >= 2% CPU ({base_s}s -> {bb_s}s)"

bench = json.load(open(f"{out}/bench.json"))
assert bench["valid"] and bench["crc_rejects"] == 0, bench
assert bench["retained"] > 0 and bench["records_per_sec"] > 0, bench

# The SIGKILL postmortem: all four rings valid, victim identified.
pm = json.load(open(f"{out}/postmortem.json"))
parties = {p["party"]: p for p in pm["parties"]}
assert set(parties) == {"server", "client0", "client1", "driver"}, set(parties)
for name, p in parties.items():
    assert p["valid"], f"{name} ring invalid: {p['problems']}"
    assert p["crc_rejects"] == 0, f"{name} ring has CRC rejects: {p}"
    assert p["records"] >= 1, f"{name} ring is empty"
victim = parties["client0"]
assert pm["first_dead"] == "client0", f"blamed {pm['first_dead']}, not client0"
assert victim["died_silently"], "client0 not flagged as silent death"
assert not victim["clean_shutdown"] and not victim["crashed"], victim
assert pm["first_dead_last_round"] >= 1, pm
assert pm["first_dead_last_phase"] in \
    ("setup", "critic", "generator", "shuffle"), pm
# >=1 transport event before the death, and the survivors saw it die.
assert sum(victim["net_events"].values()) >= 1, victim["net_events"]
assert any(parties[s]["net_events"].get("disconnect", 0) >= 1
           for s in ("server", "client1", "driver")), \
    "no survivor recorded a disconnect"
# Survivors died of the broken links, and said so on the way out.
for name in ("server", "client1", "driver"):
    p = parties[name]
    assert not p["died_silently"], f"{name} left no shutdown record"

baseline = {
    "schema_version": 1,
    "records_per_sec": bench["records_per_sec"],
    "write_p50_us": bench["write_p50_us"],
    "write_p99_us": bench["write_p99_us"],
    "bench_records": bench["records"],
    "bench_retained": bench["retained"],
    "base_cpu_s": base_s,
    "blackbox_cpu_s": bb_s,
    "overhead_ratio": round(overhead, 4),
    "killed_party_last_round": pm["first_dead_last_round"],
    "ring_records_total": sum(p["records"] for p in parties.values()),
}
with open("BENCH_blackbox_smoke.json", "w") as f:
    json.dump(baseline, f, indent=1)
    f.write("\n")
print(f"blackbox smoke OK: {bench['records_per_sec']:.0f} rec/s "
      f"(p99 {bench['write_p99_us']}us), overhead {overhead:+.1%} CPU "
      f"({base_s}s -> {bb_s}s over {timing['pairs']} pairs), "
      f"SIGKILL forensics blamed client0 at round "
      f"{pm['first_dead_last_round']} ({pm['first_dead_last_phase']})")
EOF

  # 5. What moved vs the committed baseline (informational).
  python3 scripts/bench_compare.py BENCH_blackbox_smoke.json || true
}

# --- sampling-profiler smoke (stages: all, sampler) --------------------------
# Arms the SIGPROF/SIGUSR2 statistical sampler end to end: parity + CPU
# overhead with sampling on, per-party folded profiles from a real 4-process
# run, and gtv-obs flame's merge/diff/symbolization gates over them.
run_sampler_stage() {
  local POUT="$SMOKE_OUT/sampler"
  mkdir -p "$POUT"
  local NODE="$BUILD_DIR/tools/gtv-node"
  local OBS="$BUILD_DIR/tools/gtv-obs"
  # Big enough (~0.7s CPU) that the sampler's one-time costs — ELF symtab
  # parse, exit symbolization, folded write — amortize under the 3% gate.
  local ARGS="--clients 2 --rounds 10 --rows 384 --batch 64 --d-steps 2 --seed 7"
  local PORT=27721 DPORT=27722
  command -v python3 > /dev/null 2>&1 \
    || { echo "FAIL: the sampler stage needs python3"; exit 1; }

  # 1. Pure-observer check: sampler on vs off, interleaved pairs measured in
  #    child CPU time (user+sys via wait4 rusage) — same method and reasons
  #    as the blackbox stage, with the gate at the sampler's 3% budget.
  python3 - "$NODE" "$POUT" $ARGS <<'EOF'
import json, os, subprocess, sys
node, out = sys.argv[1], sys.argv[2]
args = sys.argv[3:]

def run(extra, path):
    with open(path, "w") as f:
        proc = subprocess.Popen([node, "--role", "inproc", *args, *extra],
                                stdout=f)
    _, status, ru = os.wait4(proc.pid, 0)
    assert status == 0, f"gtv-node inproc exited with status {status}"
    return ru.ru_utime + ru.ru_stime

base = on = float("inf")
for rep in range(20):
    base = min(base, run([], f"{out}/inproc_off.json"))
    on = min(on, run(["--sample-hz", "97", "--profile-dir", out],
                     f"{out}/inproc_on.json"))
    if rep >= 4 and on < base * 1.03:
        break
with open(f"{out}/overhead.json", "w") as f:
    json.dump({"base_cpu_s": round(base, 4), "sampler_cpu_s": round(on, 4),
               "pairs": rep + 1}, f)
EOF

  # 2. The 4-process run: every role samples at 97 Hz and writes its own
  #    <role>.folded on the way out.
  local SARGS="$ARGS --port $PORT --driver-port $DPORT"
  SARGS="$SARGS --sample-hz 97 --profile-dir $POUT"
  local T0 T1
  T0=$(date +%s%N)
  fleet_start "$POUT/" "" $SARGS
  fleet_wait "$POUT/"
  T1=$(date +%s%N)
  local WALL_MS=$(( (T1 - T0) / 1000000 ))

  local ROLE
  for ROLE in server client0 client1 driver; do
    [ -s "$POUT/$ROLE.folded" ] \
      || { echo "FAIL: $ROLE wrote no folded profile"; exit 1; }
  done

  # 3. flame over the four profiles: merged folded text, summary JSON,
  #    the SVG, and a self-diff that must cancel to zero stacks.
  local FOLDED="$POUT/server.folded $POUT/client0.folded $POUT/client1.folded $POUT/driver.folded"
  "$OBS" flame $FOLDED --out "$POUT/merged.folded" --svg "$POUT/flame.svg" \
    || { echo "FAIL: gtv-obs flame could not merge the folded profiles"; exit 1; }
  "$OBS" flame $FOLDED --json > "$POUT/flame.json" \
    || { echo "FAIL: gtv-obs flame --json failed"; exit 1; }
  "$OBS" flame $FOLDED --base "$POUT/server.folded,$POUT/client0.folded,$POUT/client1.folded,$POUT/driver.folded" \
    --out - > "$POUT/selfdiff.folded" \
    || { echo "FAIL: gtv-obs flame --base failed"; exit 1; }
  grep -q "<svg" "$POUT/flame.svg" \
    || { echo "FAIL: flame.svg is not an SVG"; exit 1; }

  # 4. Assertions + baseline emission.
  python3 - "$POUT" "$WALL_MS" <<'EOF'
import json, sys
out, wall_ms = sys.argv[1], int(sys.argv[2])

# Sampling is a pure observer: bit-identical losses and model.
off = json.load(open(f"{out}/inproc_off.json"))
on = json.load(open(f"{out}/inproc_on.json"))
assert off["rounds"] == on["rounds"], "sampler changed the loss trajectory"
assert off["model_hash"] == on["model_hash"], "sampler changed the model"
assert on["sampler"]["cpu_samples"] > 0, f"sampler-on run took no samples: {on['sampler']}"

# CPU overhead within the 3% budget.
timing = json.load(open(f"{out}/overhead.json"))
base_s, on_s = timing["base_cpu_s"], timing["sampler_cpu_s"]
overhead = (on_s - base_s) / base_s if base_s > 0 else 0.0
assert overhead < 0.03, \
    f"sampler overhead {overhead:.1%} >= 3% CPU ({base_s}s -> {on_s}s)"

# The TCP run must match the in-proc trajectory (same float tolerance as
# the transport stage) — sampling must not perturb the distributed path.
driver = json.load(open(f"{out}/driver.json"))
for r, (d, i) in enumerate(zip(driver["rounds"], off["rounds"])):
    for field in ("d_loss", "g_loss", "gp", "wasserstein"):
        assert abs(d[field] - i[field]) <= 1e-5, \
            f"sampled tcp round {r} {field}: {d[field]} vs {i[field]}"

# Merged-profile gates: volume, symbolization, both sample states, the hot
# kernel on-CPU and a blocked-in-recv stack off-CPU, all four parties.
flame = json.load(open(f"{out}/flame.json"))
assert flame["total_samples"] >= 100, f"only {flame['total_samples']} samples"
assert flame["resolved_frac"] >= 0.80, \
    f"only {flame['resolved_frac']:.1%} of frames symbolized"
assert set(flame["parties"]) == {"server", "client0", "client1", "driver"}, \
    flame["parties"]
assert flame["cpu_samples"] > 0 and flame["offcpu_samples"] > 0, flame

gemm_cpu = blocked_recv = False
for line in open(f"{out}/merged.folded"):
    if line.startswith("#"):
        continue
    if ";cpu;" in line and "gemm" in line:
        gemm_cpu = True
    if ";offcpu;" in line and any(w in line for w in ("read", "recv", "poll", "wait")):
        blocked_recv = True
assert gemm_cpu, "no on-CPU gemm frame in the merged profile"
assert blocked_recv, "no off-CPU blocked-in-recv/poll/wait stack"

# Diffing a profile against itself cancels every stack.
for line in open(f"{out}/selfdiff.folded"):
    assert line.startswith("#"), f"self-diff left a residual stack: {line}"

samples_per_sec = flame["total_samples"] / (wall_ms / 1000.0) if wall_ms else 0.0
baseline = {
    "schema_version": 1,
    "total_samples": flame["total_samples"],
    "cpu_samples": flame["cpu_samples"],
    "offcpu_samples": flame["offcpu_samples"],
    "samples_per_sec": round(samples_per_sec, 1),
    "resolved_frac": round(flame["resolved_frac"], 4),
    "unique_stacks": flame["unique_stacks"],
    "dropped": flame["dropped"],
    "base_cpu_s": base_s,
    "sampler_cpu_s": on_s,
    "overhead_ratio": round(overhead, 4),
}
with open("BENCH_sampler_smoke.json", "w") as f:
    json.dump(baseline, f, indent=1)
    f.write("\n")
print(f"sampler smoke OK: {flame['total_samples']} samples "
      f"({flame['cpu_samples']} cpu / {flame['offcpu_samples']} offcpu, "
      f"{samples_per_sec:.0f}/s), {flame['resolved_frac']:.1%} symbolized, "
      f"overhead {overhead:+.1%} CPU over {timing['pairs']} pairs")
EOF

  # 5. What moved vs the committed baseline (informational).
  python3 scripts/bench_compare.py BENCH_sampler_smoke.json || true
}

# --- serving smoke (stages: all, serve) --------------------------------------
# Trains a tiny checkpoint, serves it with gtv-serve over real TCP, and
# asserts the whole serving contract: model identity end to end, seeded
# determinism across fresh connections, live /metrics counters, a graceful
# SIGTERM drain with a clean black-box record, and the 1/8/64-client
# batching bench.
run_serve_stage() {
  local VOUT="$SMOKE_OUT/serve"
  mkdir -p "$VOUT"
  local NODE="$BUILD_DIR/tools/gtv-node"
  local SERVE="$BUILD_DIR/tools/gtv-serve"
  local OBS="$BUILD_DIR/tools/gtv-obs"
  local ARGS="--clients 2 --rounds 2 --rows 96 --batch 32 --d-steps 2 --seed 7"
  local PORT=27741 MPORT=27742
  command -v python3 > /dev/null 2>&1 \
    || { echo "FAIL: the serve stage needs python3"; exit 1; }

  # 1. Train the checkpoint the daemon will serve.
  "$NODE" --role inproc $ARGS --checkpoint-out "$VOUT/model.ckpt" \
    > "$VOUT/train.json"
  [ -s "$VOUT/model.ckpt" ] \
    || { echo "FAIL: gtv-node wrote no checkpoint container"; exit 1; }

  # 2. Daemon up: /metrics endpoint + flight recorder armed.
  "$SERVE" --checkpoint "$VOUT/model.ckpt" --port "$PORT" \
    --metrics-port "$MPORT" --blackbox-dir "$VOUT" \
    > "$VOUT/daemon.json" 2> "$VOUT/daemon.log" &
  local SERVE_PID=$!

  # 3. Seeded determinism across fresh connections: two clients, same
  #    seed, must hash byte-identical. (The first client retries while
  #    the daemon finishes binding.)
  local TRY OK=0
  for TRY in $(seq 1 100); do
    if "$SERVE" --connect "127.0.0.1:$PORT" --rows 200 --seed 42 --name c1 \
      > "$VOUT/c1.json" 2> /dev/null; then
      OK=1
      break
    fi
    kill -0 "$SERVE_PID" 2> /dev/null \
      || { echo "FAIL: gtv-serve died on startup"; cat "$VOUT/daemon.log"; exit 1; }
    sleep 0.1
  done
  [ "$OK" -eq 1 ] \
    || { echo "FAIL: could not reach gtv-serve"; cat "$VOUT/daemon.log"; exit 1; }
  "$SERVE" --connect "127.0.0.1:$PORT" --rows 200 --seed 42 --name c2 \
    > "$VOUT/c2.json"
  # A CSV pull exercises the header + cell path end to end.
  "$SERVE" --connect "127.0.0.1:$PORT" --rows 5 --seed 7 --name c3 --csv \
    > "$VOUT/sample.csv"

  # 4. The scrape endpoint must show the serving party live with its
  #    request counters.
  python3 - "$MPORT" "$VOUT" <<'EOF'
import sys, time, urllib.request
port, out = sys.argv[1], sys.argv[2]
deadline = time.time() + 30
metrics = ""
while time.time() < deadline:
    try:
        metrics = urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=2).read().decode()
    except OSError:
        time.sleep(0.2)
        continue
    if 'party="serve"' in metrics and "serve_requests" in metrics:
        break
    time.sleep(0.2)
assert 'party="serve"' in metrics, "scrape never showed the serve party"
assert "serve_requests" in metrics, "scrape has no serve_requests counter"
open(f"{out}/metrics.prom", "w").write(metrics)
print("scrape OK: serve party live on /metrics with request counters")
EOF

  # 5. Graceful drain: SIGTERM, the daemon finishes admitted work and
  #    prints its summary JSON on the way out.
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID" \
    || { echo "FAIL: gtv-serve exited nonzero on drain"; cat "$VOUT/daemon.log"; exit 1; }

  # 6. The black box must read back a clean exit.
  "$OBS" postmortem "$VOUT/serve.bbox" > "$VOUT/postmortem.txt" \
    || { echo "FAIL: gtv-obs postmortem rejected the serve ring"; \
         cat "$VOUT/postmortem.txt"; exit 1; }
  grep -q "all parties shut down cleanly" "$VOUT/postmortem.txt" \
    || { echo "FAIL: postmortem did not see a clean serve shutdown"; \
         cat "$VOUT/postmortem.txt"; exit 1; }

  # 7. The batching bench: 1/8/64 concurrent clients against a fresh
  #    daemon; the binary exits nonzero if its determinism probe fails.
  "$BUILD_DIR/bench/serve" > "$VOUT/bench.json" \
    || { echo "FAIL: bench/serve determinism probe failed"; \
         cat "$VOUT/bench.json"; exit 1; }

  # 8. Assertions + baseline emission.
  python3 - "$VOUT" <<'EOF'
import json, sys
out = sys.argv[1]

train = json.load(open(f"{out}/train.json"))
daemon = json.load(open(f"{out}/daemon.json"))
c1 = json.load(open(f"{out}/c1.json"))
c2 = json.load(open(f"{out}/c2.json"))

# Model identity end to end: trainer -> container -> daemon -> client hello.
assert train["model_hash"] == daemon["model_hash"] == c1["model_hash"], \
    (train["model_hash"], daemon["model_hash"], c1["model_hash"])

# Seeded determinism across fresh connections.
assert c1["rows"] == c2["rows"] == 200, (c1["rows"], c2["rows"])
assert c1["cells_hash"] == c2["cells_hash"], \
    f"same seed, different cells: {c1['cells_hash']} vs {c2['cells_hash']}"

# The daemon accounted for every request and saw no errors.
assert daemon["requests"] >= 3, daemon
assert daemon["rows"] >= 405, daemon
assert daemon["errors"] == 0, daemon

# CSV pull: every column labeled name:type, every row fully populated.
header, *rows = open(f"{out}/sample.csv").read().splitlines()
cols = header.split(",")
assert all(":" in c for c in cols), f"unlabeled CSV column: {header}"
assert len(cols) == c1["columns"], (len(cols), c1["columns"])
assert len(rows) == 5 and all(len(r.split(",")) == len(cols) for r in rows), \
    f"CSV shape wrong: {len(rows)} rows"

# The bench gate: deterministic, and 64 concurrent clients must beat one
# client by >=3x through batching alone (same daemon, same linger).
bench = json.load(open(f"{out}/bench.json"))
assert bench["schema_version"] == 1 and bench["deterministic"] is True, bench
for level in bench["levels"]:
    assert level["rows_per_sec"] > 0 and level["p99_ms"] > 0, level
    assert level["avg_batch_rows"] > 0, level
assert bench["speedup_64_vs_1"] >= 3.0, \
    f"batching only bought {bench['speedup_64_vs_1']}x at 64 clients"

# Persist the bench output verbatim as the committed baseline.
open("BENCH_serve.json", "w").write(open(f"{out}/bench.json").read())
levels = {l["clients"]: l for l in bench["levels"]}
print(f"serve smoke OK: model {daemon['model_hash']} served "
      f"{daemon['rows']} rows / {daemon['requests']} requests with 0 errors, "
      f"deterministic across connections, "
      f"{levels[1]['rows_per_sec']:.0f} -> {levels[64]['rows_per_sec']:.0f} rows/s "
      f"({bench['speedup_64_vs_1']}x at 64 clients)")
EOF

  # 9. What moved vs the committed baseline (informational).
  python3 scripts/bench_compare.py BENCH_serve.json || true
}

# --- elastic-federation smoke (stages: all, resume) --------------------------
# Exercises coordinated train checkpoints end to end: checkpointing as a
# pure observer, a cold --resume from the GTVT container, the headline
# crash — SIGKILL a client mid-training and readmit its --rejoin relaunch
# from the last checkpoint — and DP-noise parity between the in-proc
# trainer and the TCP deployment.
run_resume_stage() {
  local EOUT="$SMOKE_OUT/resume"
  mkdir -p "$EOUT"
  local NODE="$BUILD_DIR/tools/gtv-node"
  local ARGS="--clients 2 --rows 96 --batch 32 --d-steps 2 --seed 7"
  command -v python3 > /dev/null 2>&1 \
    || { echo "FAIL: the resume stage needs python3"; exit 1; }

  # One leg of four OS processes with shared flags; the driver additionally
  # writes <tag>.ckpt so legs can compare final model hashes bit-for-bit.
  run4() {
    local TAG="$1" PORT="$2" DPORT="$3"
    shift 3
    fleet_start "$EOUT/${TAG}_" "--checkpoint-out $EOUT/${TAG}.ckpt" \
      $ARGS "$@" --port "$PORT" --driver-port "$DPORT"
    fleet_wait "$EOUT/${TAG}_"
  }

  # 1. In-proc references for both horizons.
  "$NODE" --role inproc $ARGS --rounds 8 > "$EOUT/ref8.json"
  "$NODE" --role inproc $ARGS --rounds 40 > "$EOUT/ref40.json"

  # 2. Checkpoint parity: an elastic 8-round run that rewrites the GTVT
  #    container every 3 rounds must reproduce the plain trajectory. The
  #    surviving file is the round-6 snapshot ((r+1) % 3 lands the
  #    barrier after rounds 3 and 6, never 8).
  run4 base8 27761 27762 --rounds 8 --train-ckpt "$EOUT/train.gtvt" --ckpt-every 3
  [ -s "$EOUT/train.gtvt" ] \
    || { echo "FAIL: the elastic run left no GTVT train checkpoint"; exit 1; }

  # 3. Cold resume: fresh processes, --resume from the round-6 container,
  #    train rounds 7..8 only. Same full history, same final model hash.
  run4 resumed 27763 27764 --rounds 8 --resume "$EOUT/train.gtvt"

  # 4. Uninterrupted 40-round TCP baseline for the crash leg's gates.
  run4 base40 27765 27766 --rounds 40

  # 5. The headline crash. The straggler latency stretches the run so the
  #    SIGKILL lands mid-training (an unthrottled 40-round run is over in
  #    ~2s); checkpoints land every 2 rounds; client1 dies once the first
  #    GTVT snapshot is on disk and relaunches with --rejoin. The driver
  #    must park the round, readmit the newcomer, and finish all 40
  #    rounds with recoveries >= 1.
  local KARGS="$ARGS --rounds 40 --straggle-us 10000 --port 27767 --driver-port 27768"
  KARGS="$KARGS --train-ckpt $EOUT/crash.gtvt --ckpt-every 2 --rejoin-wait-ms 30000"
  fleet_start "$EOUT/crash_" "--checkpoint-out $EOUT/crash.ckpt" $KARGS
  local C1_PID="${FLEET_PIDS[2]}"

  local TRY
  for TRY in $(seq 1 400); do
    [ -s "$EOUT/crash.gtvt" ] && break
    kill -0 "$C1_PID" 2> /dev/null \
      || { echo "FAIL: client1 exited before it could be killed"; \
           cat "$EOUT/crash_client1.json"; exit 1; }
    sleep 0.05
  done
  [ -s "$EOUT/crash.gtvt" ] \
    || { echo "FAIL: no GTVT snapshot appeared within the poll window"; exit 1; }
  sleep 0.5
  kill -0 "$C1_PID" 2> /dev/null \
    || { echo "FAIL: client1 finished before the SIGKILL"; \
         cat "$EOUT/crash_client1.json"; exit 1; }
  kill -9 "$C1_PID"
  wait "$C1_PID" 2> /dev/null || true
  # Relaunch at once: the rejoiner may reconnect before the driver even
  # notices the death, which recovery must handle too.
  "$NODE" --role client1 $KARGS --rejoin > "$EOUT/crash_rejoin.json" 2>&1 &
  FLEET_PIDS[2]=$!
  fleet_wait "$EOUT/crash_"

  # 6. DP parity over TCP: same noise std, per-party noise streams, so
  #    the deployment must match the in-proc DP trainer.
  "$NODE" --role inproc $ARGS --rounds 8 --dp-noise 0.1 > "$EOUT/dp_inproc.json"
  run4 dp 27769 27770 --rounds 8 --dp-noise 0.1

  # 7. Assertions + baseline emission.
  python3 - "$EOUT" <<'EOF'
import json, sys
out = sys.argv[1]
load = lambda name: json.load(open(f"{out}/{name}.json"))
ref8, ref40 = load("ref8"), load("ref40")
base8, resumed = load("base8_driver"), load("resumed_driver")
base40, crash = load("base40_driver"), load("crash_driver")
dp_ref, dp = load("dp_inproc"), load("dp_driver")

def close(a, b, what, tol=1e-5):
    assert len(a) == len(b), f"{what}: round count {len(a)} vs {len(b)}"
    worst = 0.0
    for r, (x, y) in enumerate(zip(a, b)):
        for field in ("d_loss", "g_loss", "gp", "wasserstein"):
            delta = abs(x[field] - y[field])
            worst = max(worst, delta)
            assert delta <= tol, \
                f"{what} round {r} {field}: {x[field]} vs {y[field]}"
    return worst

# Checkpointing is a pure observer: the elastic TCP run matches the
# in-proc reference to the transport stage's float tolerance.
tcp_delta = close(base8["rounds"], ref8["rounds"], "base8 vs inproc")

# Cold resume: restored from round 6, replayed history plus two freshly
# trained rounds, bit-identical to the uninterrupted elastic run.
assert resumed["resumed_from"] == 6, \
    f"resumed from round {resumed['resumed_from']}, expected 6"
assert resumed["recoveries"] == 0, resumed["recoveries"]
close(resumed["rounds"], base8["rounds"], "resumed vs base8", tol=0.0)
assert resumed["model_hash"] == base8["model_hash"], \
    f"resume changed the model: {resumed['model_hash']} vs {base8['model_hash']}"

# Crash + rejoin: the driver recovered at least once and the straggled,
# interrupted run still lands on the uninterrupted trajectory and model.
assert crash["recoveries"] >= 1, \
    f"driver saw no recovery despite the SIGKILL: {crash['recoveries']}"
close(crash["rounds"], base40["rounds"], "crash vs base40", tol=0.0)
assert crash["model_hash"] == base40["model_hash"], \
    f"rejoin changed the model: {crash['model_hash']} vs {base40['model_hash']}"
close(base40["rounds"], ref40["rounds"], "base40 vs inproc")

# The lifted DP-over-TCP restriction: per-party noise streams make the
# distributed run reproduce the in-proc DP trainer.
dp_delta = close(dp["rounds"], dp_ref["rounds"], "dp tcp vs dp inproc")

baseline = {
    "schema_version": 1,
    "rounds": len(base8["rounds"]),
    "ckpt_every": 3,
    "resumed_from": resumed["resumed_from"],
    "tcp_vs_inproc_max_loss_delta": tcp_delta,
    "crash_rounds": len(crash["rounds"]),
    "crash_recoveries": crash["recoveries"],
    "straggle_us": 10000,
    "dp_noise_std": 0.1,
    "dp_max_loss_delta": dp_delta,
    "model_hash_8": base8["model_hash"],
    "model_hash_40": base40["model_hash"],
}
with open("BENCH_resume_smoke.json", "w") as f:
    json.dump(baseline, f, indent=1)
    f.write("\n")
print(f"resume smoke OK: cold resume from round {resumed['resumed_from']} "
      f"bit-exact, SIGKILL'd client rejoined ({crash['recoveries']} "
      f"recoveries) and finished {len(crash['rounds'])} rounds on hash "
      f"{crash['model_hash']}, dp-over-tcp max delta {dp_delta}")
EOF

  # 8. What moved vs the committed baseline (informational).
  python3 scripts/bench_compare.py BENCH_resume_smoke.json || true
}

if [ "$STAGE" = "all" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

  # --- observability smoke: tiny bench run with tracing on -----------------
  TRACE="$SMOKE_OUT/trace.jsonl"

  GTV_TRACE="$TRACE" GTV_PROFILE=1 GTV_BENCH_ROWS=80 GTV_BENCH_ROUNDS=3 \
    GTV_BENCH_DATASETS=loan GTV_BENCH_OUT="$SMOKE_OUT" "$BUILD_DIR/bench/comm_overhead"

  [ -s "$TRACE" ] || { echo "FAIL: $TRACE is empty"; exit 1; }
  ls "$SMOKE_OUT"/*.telemetry.json > /dev/null 2>&1 \
    || { echo "FAIL: no telemetry.json next to the bench CSV"; exit 1; }
  ls "$SMOKE_OUT"/*.profile.json > /dev/null 2>&1 \
    || { echo "FAIL: no profile.json despite GTV_PROFILE=1"; exit 1; }
  grep -q '"schema_version"' "$SMOKE_OUT"/*.telemetry.json \
    || { echo "FAIL: telemetry.json missing schema_version"; exit 1; }
  grep -q '"schema_version"' "$SMOKE_OUT"/*.profile.json \
    || { echo "FAIL: profile.json missing schema_version"; exit 1; }

  # Every line must be one JSON object with the Chrome trace-event fields:
  # complete spans (ph:"X"), flow events (ph:"s"/"f"), instant events
  # (ph:"i", health alerts), process metadata (ph:"M").
  awk '!/^\{.*"ph":"X".*"ts":.*"dur":.*"tid":.*\}$/ \
       && !/^\{.*"ph":"[sf]".*"id":.*"ts":.*"pid":.*\}$/ \
       && !/^\{.*"ph":"i".*"s":"p".*"ts":.*"pid":.*\}$/ \
       && !/^\{.*"ph":"M".*"pid":.*\}$/ { bad = 1; print "bad line " NR ": " $0 }
       END { exit bad }' "$TRACE"

  if command -v python3 > /dev/null 2>&1; then
    python3 - "$TRACE" <<'EOF'
import json, sys
names, span_pids, starts, finishes = set(), set(), {}, {}
with open(sys.argv[1]) as f:
    for n, line in enumerate(f, 1):
        rec = json.loads(line)
        if rec["ph"] == "X":
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(rec), f"line {n}: {rec}"
            names.add(rec["name"])
            span_pids.add(rec["pid"])
        elif rec["ph"] in ("s", "f"):
            (starts if rec["ph"] == "s" else finishes)[rec["id"]] = rec["pid"]
phases = {"cv_generation", "fake_forward", "real_forward", "critic_backward",
          "generator_step", "round"}
missing = phases - names
assert not missing, f"trace is missing phases: {missing}"
assert len(span_pids) >= 3, f"expected >=3 party rows (server/clients/driver): {span_pids}"
assert starts and set(starts) == set(finishes), "unpaired flow ids"
crossing = sum(1 for i, pid in starts.items() if finishes[i] != pid)
assert crossing > 0, "no flow crosses parties"
print(f"trace OK: {n} events, {len(names)} span names, "
      f"{len(span_pids)} party rows, {len(starts)} flow pairs ({crossing} cross-party)")
EOF
  fi

  # prof must merge all three artefacts without error.
  "$BUILD_DIR/tools/gtv-obs" prof \
    --profile "$SMOKE_OUT"/comm_overhead.profile.json \
    --telemetry "$SMOKE_OUT"/comm_overhead.telemetry.json \
    --trace "$TRACE" > "$SMOKE_OUT/prof_report.txt"
  grep -q "== coverage ==" "$SMOKE_OUT/prof_report.txt" \
    || { echo "FAIL: gtv-obs prof produced no coverage section"; exit 1; }

  run_transport_stage
  run_kernels_stage
  run_liveobs_stage
  run_blackbox_stage
  run_sampler_stage
  run_serve_stage
  run_resume_stage
fi

if [ "$STAGE" != "all" ] && [ "$STAGE" != "health" ] && [ "$STAGE" != "transport" ] \
   && [ "$STAGE" != "kernels" ] && [ "$STAGE" != "liveobs" ] \
   && [ "$STAGE" != "blackbox" ] && [ "$STAGE" != "sampler" ] \
   && [ "$STAGE" != "serve" ] && [ "$STAGE" != "resume" ]; then
  echo "check.sh: unknown GTV_CHECK_STAGE '$STAGE' (expected all|health|transport|kernels|liveobs|blackbox|sampler|serve|resume)"
  exit 2
fi

# --- standalone kernels stage -------------------------------------------------
if [ "$STAGE" = "kernels" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j
  ctest --test-dir "$BUILD_DIR" \
    -R 'kernel_test|kernel_trajectory_test|thread_pool_stress_test|tensor_test|autograd_test' \
    --output-on-failure
  run_kernels_stage
  echo "check.sh: all green (stage $STAGE)"
  exit 0
fi

# --- standalone liveobs stage -------------------------------------------------
if [ "$STAGE" = "liveobs" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j
  ctest --test-dir "$BUILD_DIR" -R 'agg_test|transport_test|metrics_test' \
    --output-on-failure
  run_liveobs_stage
  echo "check.sh: all green (stage $STAGE)"
  exit 0
fi

# --- standalone blackbox stage -----------------------------------------------
if [ "$STAGE" = "blackbox" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j
  ctest --test-dir "$BUILD_DIR" -R 'blackbox_test|json_util_test|transport_test' \
    --output-on-failure
  run_blackbox_stage
  echo "check.sh: all green (stage $STAGE)"
  exit 0
fi

# --- standalone sampler stage ------------------------------------------------
if [ "$STAGE" = "sampler" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j
  ctest --test-dir "$BUILD_DIR" -R 'sampler_test|transport_test|agg_test' \
    --output-on-failure
  run_sampler_stage
  echo "check.sh: all green (stage $STAGE)"
  exit 0
fi

# --- standalone serve stage ---------------------------------------------------
if [ "$STAGE" = "serve" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j
  ctest --test-dir "$BUILD_DIR" -R 'serve_test|serialize_test|transport_test' \
    --output-on-failure
  run_serve_stage
  echo "check.sh: all green (stage $STAGE)"
  exit 0
fi

# --- standalone resume stage --------------------------------------------------
if [ "$STAGE" = "resume" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j
  ctest --test-dir "$BUILD_DIR" -R 'resume_test|node_test|transport_test' \
    --output-on-failure
  run_resume_stage
  echo "check.sh: all green (stage $STAGE)"
  exit 0
fi

# --- standalone transport stage ----------------------------------------------
if [ "$STAGE" = "transport" ]; then
  # Incremental build + the transport/node test binaries, then the
  # distributed smoke above.
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j
  ctest --test-dir "$BUILD_DIR" -R 'transport_test|node_test|net_test' --output-on-failure
  run_transport_stage
  echo "check.sh: all green (stage $STAGE)"
  exit 0
fi

# --- training-health smoke (stages: all, health) ----------------------------
if [ "$STAGE" = "health" ]; then
  # Standalone health stage: incremental build + regenerate the divergence
  # artefact (cheap; the test binary owns the deterministic scenario).
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j
  ctest --test-dir "$BUILD_DIR" -R health_divergence_test --output-on-failure
fi

HEALTH_OUT="$SMOKE_OUT/health"
mkdir -p "$HEALTH_OUT"

# 1. Healthy seed-config run: health armed, zero alerts expected; its
#    telemetry feeds the BENCH_health_smoke.json baseline.
GTV_HEALTH=1 GTV_METRICS_DUMP="$HEALTH_OUT/metrics.prom" \
  GTV_BENCH_ROWS=80 GTV_BENCH_ROUNDS=5 GTV_BENCH_DATASETS=loan \
  GTV_BENCH_OUT="$HEALTH_OUT" "$BUILD_DIR/bench/comm_overhead"

ls "$HEALTH_OUT"/*.health.json > /dev/null 2>&1 \
  || { echo "FAIL: no health.json despite GTV_HEALTH=1"; exit 1; }
grep -q '"schema_version":1' "$HEALTH_OUT"/comm_overhead.health.json \
  || { echo "FAIL: health.json missing schema_version 1"; exit 1; }
grep -q '"schema_version":3' "$HEALTH_OUT"/comm_overhead.telemetry.json \
  || { echo "FAIL: telemetry.json is not the schema_version 3 envelope"; exit 1; }
grep -q '"health":{' "$HEALTH_OUT"/comm_overhead.telemetry.json \
  || { echo "FAIL: v3 telemetry envelope missing the health block"; exit 1; }
[ -s "$HEALTH_OUT/metrics.prom" ] \
  || { echo "FAIL: GTV_METRICS_DUMP wrote nothing"; exit 1; }
grep -q '# TYPE' "$HEALTH_OUT/metrics.prom" \
  || { echo "FAIL: metrics.prom is not Prometheus text exposition"; exit 1; }

# 2. Destabilized run (absurd LR): must record fatal alerts, and with a
#    trace open the alerts must appear as ph:"i" instant events.
HEALTH_TRACE="$HEALTH_OUT/divergence_trace.jsonl"
GTV_HEALTH=1 GTV_TRACE="$HEALTH_TRACE" GTV_BENCH_LR=100 \
  GTV_BENCH_ROWS=80 GTV_BENCH_ROUNDS=5 GTV_BENCH_DATASETS=loan \
  GTV_BENCH_OUT="$HEALTH_OUT/diverged" "$BUILD_DIR/bench/comm_overhead"

grep -q '"ph":"i"' "$HEALTH_TRACE" \
  || { echo "FAIL: destabilized run emitted no health instant events"; exit 1; }
awk '!/^\{.*"ph":"X".*"ts":.*"dur":.*"tid":.*\}$/ \
     && !/^\{.*"ph":"[sf]".*"id":.*"ts":.*"pid":.*\}$/ \
     && !/^\{.*"ph":"i".*"s":"p".*"ts":.*"pid":.*\}$/ \
     && !/^\{.*"ph":"M".*"pid":.*\}$/ { bad = 1; print "bad line " NR ": " $0 }
     END { exit bad }' "$HEALTH_TRACE"

# 3. Validate artefact shapes + BENCH baseline with python3.
ALERT_JSONL="$BUILD_DIR/tests/health_divergence_alerts.jsonl"
[ -s "$ALERT_JSONL" ] \
  || { echo "FAIL: $ALERT_JSONL missing (health_divergence_test not run?)"; exit 1; }

if command -v python3 > /dev/null 2>&1; then
  python3 - "$HEALTH_OUT" "$ALERT_JSONL" <<'EOF'
import json, sys
out, alert_jsonl = sys.argv[1], sys.argv[2]

# Healthy seed config: armed but silent.
healthy = json.load(open(f"{out}/comm_overhead.health.json"))
assert healthy["schema_version"] == 1, healthy
assert healthy["summary"]["enabled"] is True
assert healthy["summary"]["total"] == 0, \
    f"seed config fired alerts: {healthy['summary']}"

tele = json.load(open(f"{out}/comm_overhead.telemetry.json"))
assert tele["schema_version"] == 3
assert tele["health"]["fatal"] == 0

# Destabilized run: >=1 fatal alert, every alert record well-formed.
diverged = json.load(open(f"{out}/diverged/comm_overhead.health.json"))
assert diverged["summary"]["fatal"] >= 1, \
    f"destabilized run stayed healthy: {diverged['summary']}"
for alert in diverged["alerts"]:
    assert {"severity", "rule", "round", "value", "threshold"} <= set(alert), alert
    assert alert["severity"] in ("info", "warn", "fatal"), alert

# Divergence-test artefact: JSONL of alerts, >=1 fatal within 10 rounds.
fatal_rounds = []
with open(alert_jsonl) as f:
    for line in f:
        if not line.strip():
            continue
        alert = json.loads(line)
        assert {"severity", "rule", "round", "value", "threshold"} <= set(alert), alert
        if alert["severity"] == "fatal":
            fatal_rounds.append(alert["round"])
assert fatal_rounds and min(fatal_rounds) < 10, \
    f"no fatal alert within 10 rounds: {fatal_rounds}"

# Seed perf baseline for the health smoke.
hists = tele["metrics"]["histograms"]
counters = tele["metrics"]["counters"]
rounds = hists["gtv.phase.round_ms"]["count"]
wall_ms = hists["gtv.phase.round_ms"]["sum"]
wire = sum(v for k, v in counters.items()
           if k.startswith("net.") and k.endswith(".bytes"))
baseline = {
    "schema_version": 1,
    "rounds": rounds,
    "wall_ms_per_round": round(wall_ms / rounds, 3) if rounds else 0,
    "bytes_per_round": round(wire / rounds) if rounds else 0,
    "peak_tensor_bytes": tele["memory"]["peak_bytes"],
}
with open("BENCH_health_smoke.json", "w") as f:
    json.dump(baseline, f, indent=1)
    f.write("\n")
print(f"health smoke OK: seed silent, divergence fatal at round "
      f"{min(fatal_rounds)}, baseline {baseline}")
EOF
fi

# 4. prof must render the health artefacts without error.
"$BUILD_DIR/tools/gtv-obs" prof \
  --telemetry "$HEALTH_OUT"/diverged/comm_overhead.telemetry.json \
  > "$HEALTH_OUT/prof_health.txt"
grep -q "== health alerts" "$HEALTH_OUT/prof_health.txt" \
  || { echo "FAIL: gtv-obs prof did not pick up the sibling health.json"; exit 1; }
"$BUILD_DIR/tools/gtv-obs" prof \
  --health "$HEALTH_OUT"/diverged/comm_overhead.health.json \
  --telemetry "$HEALTH_OUT"/diverged/comm_overhead.telemetry.json \
  > "$HEALTH_OUT/health_report.txt"
grep -q "== per-round timeline" "$HEALTH_OUT/health_report.txt" \
  || { echo "FAIL: gtv-obs prof --health produced no timeline"; exit 1; }
grep -q "== run context" "$HEALTH_OUT/health_report.txt" \
  || { echo "FAIL: gtv-obs prof --telemetry produced no run context"; exit 1; }

# 5. Health over TCP: the DriverNode runs the rules on the parties' round
#    reports and probes through the clients, so 4 processes armed with
#    GTV_HEALTH=1 must print the in-process run's health block. 12 rounds
#    put the default probe interval's probe on round 9.
command -v python3 > /dev/null 2>&1 \
  || { echo "FAIL: the health stage needs python3 to compare health blocks"; exit 1; }
HTCP="$HEALTH_OUT/tcp"
mkdir -p "$HTCP"
HARGS="--clients 2 --rounds 12 --rows 96 --batch 32 --d-steps 2 --seed 7"
GTV_HEALTH=1 "$BUILD_DIR/tools/gtv-node" --role inproc $HARGS > "$HTCP/inproc.json"
GTV_HEALTH=1 fleet_start "$HTCP/" "" $HARGS --port 27771 --driver-port 27772
fleet_wait "$HTCP/"
python3 - "$HTCP" <<'EOF'
import json, sys
out = sys.argv[1]
inproc = json.load(open(f"{out}/inproc.json"))["health"]
driver = json.load(open(f"{out}/driver.json"))["health"]
assert len(driver["rounds"]) == 12, driver["rounds"]
assert all(r["modules"] == 6 for r in driver["rounds"]), driver["rounds"]
assert [r for r, v in enumerate(driver["rounds"]) if v["probes"]] == [9], driver["rounds"]
assert driver == inproc, f"tcp health {driver} != in-process {inproc}"
print(f"health over TCP OK: 12 rounds x 6 modules, probe on round 9, "
      f"{len(driver['alerts'])} alerts as in process")
EOF

echo "check.sh: all green (stage $STAGE)"
