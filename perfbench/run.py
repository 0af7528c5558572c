#!/usr/bin/env python3
"""Repository benchmark: three paper-scale PRISM workloads on both clocks.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (its own
Cargo workspace, so the repository's manifest is untouched) into
`$CARGO_TARGET_DIR` (default `perfbench/target`), then runs, one process
each and one after another:

* the plain repetitions: a fresh system built and preloaded, then one
  measurement window, with tracing off. These give the end-to-end
  metrics: `setup_s`, `sim_ops_per_cpu_s` (CPU time of the benchmark's
  thread), `peak_rss_mb` (process) and `sim_tput_mops`, `sim_mean_us`, `sim_p99_us`, `sim_p999_us`,
  `ok_frac` (simulated clock and counts, exact for a given seed);
* the traced run: repetition 0 again with every adapter call timed, then
  the per-layer probes. It must reproduce repetition 0's simulated
  results exactly.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
ones. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. A process that fails exits non-zero
without it. See perfbench/README.md for why each workload and metric is
here.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kv-read-1m", "tx-contended", "rs-quorum")
BUILD_TIMEOUT_S = 850
# The whole run must end within 180 s; the KV repetitions take ~8 s each.
RUN_TIMEOUT_S = 60

# Window fields the traced run must reproduce bit-exactly.
SIM_FIELDS = (
    "completed", "failed", "backlogged", "tput_mops", "mean_us", "p50_us", "p99_us",
    "p999_us", "replies", "sends", "bg_sends", "backoffs", "retries",
    "slot_opens",
)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")
    return os.path.join(target_dir, "release", "perfbench")


def run(binary, workload, seed, seconds, path, out_dir):
    cmd = [binary, workload, str(seed), str(seconds), path, out_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{path} run timed out")
    if r.returncode != 0:
        fail(f"{path} run exited with code {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail(f"{path} run printed nothing")
    return json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(plains):
    """Medians over the repetitions. Each window's simulated figures are
    exact for its seed, so their medians are too."""
    wins = [p["window"] for p in plains]
    done = sum(w["completed"] for w in wins)
    failed = sum(w["failed"] for w in wins)

    def med(f):
        return statistics.median(f(w) for w in wins)

    return {
        "setup_s": metric(statistics.median(p["setup_s"] for p in plains), "s"),
        "sim_ops_per_cpu_s": metric(med(lambda w: w["completed"] / w["cpu_s"]), "1/s"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in plains), "MB"),
        "sim_tput_mops": metric(med(lambda w: w["tput_mops"]), "Mops"),
        "sim_mean_us": metric(med(lambda w: w["mean_us"]), "us"),
        "sim_p99_us": metric(med(lambda w: w["p99_us"]), "us"),
        "sim_p999_us": metric(med(lambda w: w["p999_us"]), "us"),
        "ok_frac": metric(done / (done + failed), "ratio"),
    }


def per_layer(plain0, traced):
    win = traced["window"]
    ops = win["completed"]
    run_s = win["wall_s"]
    setup, after = traced["store_setup"], traced["store_run"]
    q = traced["quarters"]
    core, rdma, wire = traced["core"], traced["rdma"], traced["wire"]
    return {
        "harness.build_s": metric(traced["build_s"], "s"),
        "harness.preload_s": metric(traced["preload_s"], "s"),
        "harness.run_s": metric(run_s, "s"),
        "harness.below_adapter_s": metric(run_s - traced["self_ns"] / 1e9, "s"),
        "harness.slot_opens": metric(win["slot_opens"], "count"),
        "harness.backlogged": metric(win["backlogged"], "count"),
        "harness.trace_overhead_frac": metric(run_s / plain0["window"]["wall_s"] - 1.0, "ratio"),
        "client.ns_per_op": metric(traced["window_self_ns"] / ops, "ns"),
        "client.round_trips_per_op": metric(win["replies"] / ops, "count"),
        "client.sends_per_op": metric(win["sends"] / ops, "count"),
        "client.aborts_per_op": metric(win["backoffs"] / ops, "ratio"),
        "store.preload_q4_over_q1": metric(q[3] / q[0] if q else 0.0, "ratio"),
        "store.sealed_segments_setup": metric(setup["sealed"], "count"),
        "store.segments_rolled_run": metric(after["sealed"] - setup["sealed"], "count"),
        "store.records": metric(after["records"], "count"),
        "store.disk_mb": metric(after["disk_bytes"] / 1e6, "MB"),
        "core.exec_get_ws_ns": metric(core["get_ws_ns"], "ns"),
        "core.exec_get_hot_ns": metric(core["get_hot_ns"], "ns"),
        "core.exec_put_ws_ns": metric(core["put_ws_ns"], "ns"),
        "rdma.read512_ws_ns": metric(rdma["read512_ws_ns"], "ns"),
        "rdma.read512_hot_ns": metric(rdma["read512_hot_ns"], "ns"),
        "wire.encode_ns": metric(wire["encode_ns"], "ns"),
        "wire.decode_ns": metric(wire["decode_ns"], "ns"),
        "wire.bytes_per_op": metric(wire["bytes_per_op"], "B"),
        "simnet.msgs_per_op": metric(
            (win["sends"] + win["bg_sends"] + win["replies"]) / ops, "count"),
        "simnet.ns_per_event": metric(traced["simnet_ns_per_event"], "ns"),
    }


def readback_errors(out):
    err = out["readback"].get("error")
    return [f"{out['path']} readback: {err}"] if err else []


def traced_errors(plain0, traced):
    """The traced run must replay plain repetition 0 exactly: the same
    window, and the same store after the preload (the benchmark's own
    loop vs preload_prism) and after the window."""
    errors = []
    for f in SIM_FIELDS:
        if plain0["window"][f] != traced["window"][f]:
            errors.append(f"traced run differs on {f}: "
                          f"{traced['window'][f]} != {plain0['window'][f]}")
    for key in ("store_setup", "store_run"):
        if plain0[key] != traced[key]:
            errors.append(f"traced {key} {traced[key]} != untraced {plain0[key]}")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("seed must be >= 0 and seconds >= 1")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    out_dir = os.path.join(target_dir, "perfbench-trace")
    binary = build(target_dir)

    def go(path):
        return run(binary, a.workload, a.seed, a.seconds, path, out_dir)

    plains = [go("0")]
    plains += [go(str(k)) for k in range(1, plains[0]["reps"])]
    traced = go("traced")

    done = sum(p["window"]["completed"] for p in plains)
    failed = sum(p["window"]["failed"] for p in plains)
    if done == 0:
        fail("no operation completed")
    errors = [e for out in plains + [traced] for e in readback_errors(out)]
    errors += traced_errors(plains[0], traced)
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": done + failed,
        "failed": failed,
        "metrics": per_layer(plains[0], traced) if a.trace else end_to_end(plains),
    }))


if __name__ == "__main__":
    main()
