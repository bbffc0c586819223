#!/usr/bin/env python3
"""End-to-end benchmark of the ecn-sharp simulator.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload dumbbell_ws70 --seed 1 --seconds 20 --trace 0

Builds the simulator library and the workload runner from source (CMake,
RelWithDebInfo, into $CARGO_TARGET_DIR or .bench_build), then runs the named
workload in fresh processes, one at a time, until --seconds have elapsed. Each
process simulates one instance of the workload with a seed derived from
--seed, single-threaded. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
other process is traced and the metrics are the per-layer ones. See
README.md for the workloads, the metrics and the correctness checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Flows per simulated instance. Each instance is one fresh process.
FLOWS = {"dumbbell_ws70": 2000, "fattree_k16": 1000, "interdc_churn": 1000}
WORKLOADS = tuple(FLOWS)
DEFAULT_SEED = 1
# Process i of a run simulates seed + i * SEED_STRIDE, so process 0 of a
# --seed 1 run is the default-seed instance whose digest is recorded.
SEED_STRIDE = 7919
PROCESS_TIMEOUT_S = 150

END_TO_END = {
    "sim_to_wall": "s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "flows_completed": "share",
}

# Per-layer metrics of the traced run: name -> unit. Names are module names
# under src/ (plus the benchmark-wide "layers" and "trace" entries).
PER_LAYER = {
    "topo.build_s": "s",
    "harness.bind_s": "s",
    "harness.run_s": "s",
    "harness.teardown_s": "s",
    "stats.result_s": "s",
    "sim.events": "count",
    "sim.events_per_hop": "ratio",
    "sim.pending_mean": "count",
    "sim.ns_per_event": "ns",
    "net.hops": "count",
    "net.switch.forwards": "count",
    "net.switch.ns_per_forward": "ns",
    "net.port.packets": "count",
    "net.port.ns_per_packet": "ns",
    "net.packets_allocated": "count",
    "net.packets_fresh": "count",
    "sched.enqueued": "count",
    "sched.depth_mean": "packets",
    "sched.ns_per_packet": "ns",
    "aqm.ce_marked": "count",
    "aqm.dropped": "count",
    "buffer.overflow_drops": "count",
    "buffer.occupancy": "share",
    "buffer.ns_per_admission": "ns",
    "transport.flows": "count",
    "transport.timeouts": "count",
    "transport.acks": "count",
    "transport.ns_per_ack": "ns",
    "sketch.packets": "count",
    "sketch.ns_per_packet": "ns",
    "dynamics.actions": "count",
    "dynamics.purged": "count",
    "layers.explained_share": "share",
    "trace.overhead": "share",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the runner; returns its path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def run_process(binary, args, cpu=None):
    """Runs one runner process to completion, pinned to `cpu` when given;
    returns its JSON report."""
    if cpu is not None:
        args = args + ["--cpu", str(cpu)]
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise SystemExit("perfbench: runner failed: " + " ".join(args))
    return json.loads(proc.stdout)


def load_digests():
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)


def digest_errors(workload, seed, flows, digest, table):
    """Compares a run's digest with the recorded one for (workload, seed,
    flows); returns a list of mismatch descriptions (empty when it matches
    or nothing is recorded for that instance)."""
    recorded = table.get(workload)
    if recorded is None or recorded["seed"] != seed or recorded["flows"] != flows:
        return []
    errors = []
    for key in sorted(set(recorded["digest"]) | set(digest)):
        want = recorded["digest"].get(key)
        got = digest.get(key)
        if want != got:
            errors.append("%s seed %d: %s is %r, recorded %r"
                          % (workload, seed, key, got, want))
    return errors


def subseed(seed, index):
    return seed + index * SEED_STRIDE


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Test hooks: smaller instances and replays.
    parser.add_argument("--flows", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--replay-scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    load_at_start = os.getloadavg()[0]
    binary = build()
    info = run_process(binary, ["info"])
    digests = load_digests()
    recorded = digests[args.workload]
    flows = args.flows or FLOWS[args.workload]
    print("provenance: " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "flows": flows,
        "build_type": info["build_type"],
        "compiler": info["compiler"],
        "nproc": os.cpu_count(),
        "loadavg_1m": load_at_start,
        "calibration_ns": info["calibration_ns"],
    }), flush=True)

    errors = []
    attempted = 0
    failed = 0
    # The library's public runner on the default-seed instance must still
    # produce the recorded digest: a speed change may not move any of it.
    reference = run_process(binary, ["public", "--workload", args.workload,
                                     "--seed", str(recorded["seed"]),
                                     "--flows", str(recorded["flows"])])
    errors += digest_errors(args.workload, recorded["seed"], recorded["flows"],
                            reference["digest"], digests)

    def account(report):
        nonlocal attempted, failed
        problems = list(report["invariant_errors"])
        problems += digest_errors(args.workload, report["seed"],
                                  report["flows"], report["digest"], digests)
        started = report["flows_started"]
        attempted += started
        if problems:
            failed += started
            errors.extend(problems)
        else:
            failed += started - report["flows_completed"]

    # Processes run one at a time, rotating over the CPUs, so each run
    # samples fast and slow cores of a shared host alike.
    cpus = sorted(os.sched_getaffinity(0))
    base = ["--workload", args.workload, "--flows", str(flows)]
    timed = []
    traced = []
    overheads = []
    start = time.monotonic()
    index = 0
    # Start another instance only if it is expected to end no more than half
    # an instance past --seconds.
    while index == 0 or (time.monotonic() - start) * (1 + 0.5 / index) \
            < args.seconds:
        cpu = cpus[index % len(cpus)]
        seed = subseed(args.seed, index)
        report = run_process(binary, ["run", "--seed", str(seed)] + base, cpu)
        account(report)
        timed.append(report)
        if args.trace:
            layered = run_process(binary, ["run", "--seed", str(seed), "--trace",
                                           "--replay-scale",
                                           str(args.replay_scale)] + base, cpu)
            account(layered)
            traced.append(layered)
            overheads.append(layered["run_s"] / report["run_s"] - 1.0)
        index += 1

    for e in errors[:20]:
        log("perfbench: check failed: " + e)

    hops = sum(r["hops"] for r in timed)
    wall = sum(r["run_s"] for r in timed)
    sim = sum(r["sim_seconds"] for r in timed)
    print("context: " + json.dumps({
        "processes": index,
        "elapsed_s": time.monotonic() - start,
        "hops_per_s": hops / wall,
        "instances_sim_to_wall": sim / wall,
    }), flush=True)
    if args.trace:
        values = {name: median([r["layers"][name] for r in traced])
                  for name in PER_LAYER if name != "trace.overhead"}
        values["trace.overhead"] = median(overheads)
        units = PER_LAYER
    else:
        # Simulated seconds per wall second of the default-seed instance,
        # whose simulated length and hop count the digest fixes, at the hop
        # rate measured over this run's instances (see README.md).
        reference_seconds_per_hop = (recorded["digest"]["sim_seconds"]
                                     / recorded["digest"]["hops"])
        values = {
            "sim_to_wall": reference_seconds_per_hop * hops / wall,
            "setup_s": median([r["setup_s"] for r in timed]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in timed]),
            "flows_completed": (attempted - failed) / attempted,
        }
        units = END_TO_END
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
