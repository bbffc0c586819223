#!/usr/bin/env python3
"""End-to-end exit-code checks of ecnsharp_cli.

Usage: cli_test.py <path to ecnsharp_cli>

Every malformed invocation must exit exactly 2, say why on stderr and
leave no results/ file behind; a few small valid runs must exit 0. Each
invocation runs in its own empty temporary directory. Registered with
ctest as `cli_test`.
"""

import os
import subprocess
import sys
import tempfile

# (arguments, text stderr must contain)
REJECTED = [
    # Offered load: zero, negative and NaN have no Poisson arrival gap.
    (["--load=0"], "--load"),
    (["--load=-0.5"], "--load"),
    (["--load=nan"], "--load"),
    (["--topo=fattree", "--k=4", "--load=inf"], "--load"),
    # RTT variation below 1 means negative per-host extras.
    (["--variation=0"], "--variation"),
    (["--variation=-3"], "--variation"),
    (["--variation=nan"], "--variation"),
    # Values that pass the range checks but overflow Time's int64 ns.
    (["--variation=1e30"], "extra delay of 2^62 ns or more"),
    (["--load=1e-300"], "traffic load 1e-300 puts a flow arrival"),
    # Sweep grammar: domains, whole numbers, finite bounds and grid size.
    (["--sweep=load:0..50:10"], "load must be > 0"),
    (["--sweep=variation:0..2:1"], "variation must be >= 1"),
    (["--sweep=seed:1e30..1e30:1"], "whole numbers"),
    (["--sweep=seed:1.5..2.5:1"], "whole numbers"),
    (["--sweep=flows:-1..1:1"], "whole numbers"),
    (["--topo=incast", "--sweep=fanout:1e30..1e30:1"], "whole numbers"),
    (["--sweep=load:nan..nan:1"], "must be finite"),
    (["--sweep=load:10..inf:10"], "must be finite"),
    (["--sweep=load:1..100000:1"], "more than 10000 points"),
    (["--sweep=load:1..100:1,seed:1..101:1"], "more than 10000 points"),
    (["--sweep=load:10..20:0"], "step must be > 0"),
    # --relaxed-lanes combinations.
    (["--relaxed-lanes=2"], "--relaxed-lanes applies to --topo=fattree"),
    (["--topo=fattree", "--relaxed-lanes=2", "--sweep=load:10..20:10"],
     "--relaxed-lanes applies to single runs, not --sweep"),
    (["--topo=fattree", "--k=4", "--relaxed-lanes=2", "--trace=on"],
     "cannot run with tracing enabled"),
    (["--topo=fattree", "--k=4", "--relaxed-lanes=2", "--sketch=on"],
     "cannot run with sketch telemetry enabled"),
    (["--topo=fattree", "--k=4", "--relaxed-lanes=2", "--fabric-delay-us=0"],
     "needs a positive fabric_link_delay"),
    (["--topo=fattree", "--relaxed-lanes=0"],
     "config error: relaxed-lanes needs >= 2 lanes, got 0\n"),
    (["--topo=fattree", "--relaxed-lanes=1"],
     "config error: relaxed-lanes needs >= 2 lanes, got 1\n"),
    (["--topo=fattree", "--k=4", "--relaxed-lanes=6"],
     "lanes must be in [1, k + 1 = 5], got 6"),
    # A count with a sign, even after a space, is refused, not wrapped.
    (["--topo=fattree", "--k=4", "--relaxed-lanes= -1"],
     "invalid value for --relaxed-lanes: ' -1'"),
    # Shared-buffer inputs the policy factory refuses: a non-finite or
    # non-positive alpha, and a pool or static slice below one packet.
    (["--buffer-policy=dt", "--alpha=nan"], "alpha must be > 0 and finite"),
    (["--buffer-policy=dt", "--alpha=inf"], "alpha must be > 0 and finite"),
    (["--buffer-policy=dt", "--alpha=0"], "alpha must be > 0 and finite"),
    (["--buffer-policy=dt", "--buffer-kb=1"],
     "at least one full packet (1500 B), got 1024 B"),
    (["--buffer-policy=static", "--buffer-kb=8"],
     "static buffer slice of 1024 B"),
    # A --buffer-kb whose byte count wraps 64 bits (2^54 KiB and one more).
    (["--buffer-policy=dt", "--buffer-kb=18014398509481984"], "--buffer-kb"),
    (["--buffer-policy=dt", "--buffer-kb=18014398509481985"], "--buffer-kb"),
    # Flags the chosen topology would silently ignore.
    (["--workload=bogus"], "invalid value for --workload: 'bogus'"),
    (["--topo=leafspine", "--variation=9"],
     "--variation applies to --topo=dumbbell"),
    (["--topo=incast", "--variation=2"],
     "--variation applies to --topo=dumbbell"),
    (["--topo=leafspine", "--k=6"], "--k applies to --topo=fattree"),
    (["--topo=interdc", "--rate-gbps=40"],
     "--rate-gbps applies to --topo=fattree"),
    (["--host-delay-us=5"], "--host-delay-us applies to --topo=fattree"),
    (["--topo=incast", "--fabric-delay-us=5"],
     "--fabric-delay-us applies to --topo=fattree"),
    (["--topo=leafspine", "--fanout=3"], "--fanout applies to --topo=incast"),
    (["--topology=fattree", "--fanout=3"], "--fanout applies to --topo=incast"),
    (["--topo=incast", "--workload=datamining"],
     "--workload applies to --topo=dumbbell, leafspine, fattree or interdc"),
    (["--topo=incast", "--load=0.5"],
     "--load applies to --topo=dumbbell, leafspine, fattree or interdc"),
    (["--topo=incast", "--flows=10"],
     "--flows applies to --topo=dumbbell, leafspine, fattree or interdc"),
    (["--topo=incast", "--sim-params"],
     "--sim-params applies to --topo=dumbbell"),
    (["--topo=leafspine", "--sim-params"],
     "--sim-params applies to --topo=dumbbell"),
    (["--topo=fattree", "--sim-params"],
     "--sim-params applies to --topo=dumbbell"),
    (["--topo=interdc", "--sim-params"],
     "--sim-params applies to --topo=dumbbell"),
    # The scenario and mixed-CC/buffer flags name every topology they take.
    (["--topo=incast", "--scenario={}"],
     "--scenario applies to --topo=dumbbell, leafspine, fattree or interdc"),
    (["--topo=incast", "--cc-mix=0.5"],
     "--cc-mix applies to --topo=dumbbell, leafspine, fattree or interdc"),
    # --jobs sizes a --sweep's worker pool; a single run would ignore it.
    (["--jobs=2"], "--jobs applies to --sweep only"),
    (["--topo=incast", "--jobs=2"], "--jobs applies to --sweep only"),
    # Misspelled flags would otherwise run the defaults.
    (["--flowz=20", "--flows=20"], "unknown flag --flowz"),
    (["--laod=0.9", "--flows=20"], "unknown flag --laod"),
    # Link delays: finite, >= 0 and below 2^62 ns (1e300 would overflow the
    # double -> int64 cast), checked before the run starts.
    (["--topo=fattree", "--k=4", "--flows=20", "--host-delay-us=-5"],
     "invalid value for --host-delay-us: '-5'"),
    (["--topo=fattree", "--k=4", "--flows=20", "--host-delay-us=-1e300"],
     "invalid value for --host-delay-us: '-1e300'"),
    (["--topo=fattree", "--k=4", "--flows=20", "--host-delay-us=1e300"],
     "host_link_delay_us must be >= 0 us and below 2^62 ns, got 1e+300"),
    (["--topo=fattree", "--k=4", "--flows=20", "--fabric-delay-us=-3"],
     "invalid value for --fabric-delay-us: '-3'"),
    (["--topo=fattree", "--k=4", "--flows=20", "--fabric-delay-us=nan"],
     "fabric_link_delay_us must be >= 0 us and below 2^62 ns, got nan"),
    (["--topo=interdc", "--flows=20", "--border-rtt-us=nan"],
     "border_rtt_us must lie in [0, 1e+07] us, got nan"),
    # Every keyed flag's value is read by its key's codec, which names the
    # flag when it refuses the value.
    (["--seed=-1"], "invalid value for --seed: '-1'"),
    (["--flows=1.5"], "invalid value for --flows: '1.5'"),
    (["--topo=fattree", "--k=5"], "invalid value for --k: '5'"),
    (["--topo=incast", "--fanout=-1"], "invalid value for --fanout: '-1'"),
    (["--topo=interdc", "--border-links=0"],
     "invalid value for --border-links: '0'"),
    (["--topo=interdc", "--inter-fraction=2"],
     "invalid value for --inter-fraction: '2'"),
    (["--cc-mix=-0.1"], "invalid value for --cc-mix: '-0.1'"),
    (["--topo=interdc", "--border-gbps=0"],
     "invalid value for --border-gbps: '0'"),
    (["--scheme=bogus"], "invalid value for --scheme: 'bogus'"),
    (["--estimator=bogus"], "invalid value for --estimator: 'bogus'"),
    (["--buffer-policy=bogus"], "invalid value for --buffer-policy: 'bogus'"),
    (["--topo=interdc", "--inter-workload=bogus"],
     "invalid value for --inter-workload: 'bogus'"),
    # Trace and sketch specs: out-of-range values, duplicate keys, empty
    # terms and keys a spec cannot set.
    (["--trace=events:0"], "invalid --trace spec"),
    (["--trace=events:1,events:2"], "invalid --trace spec"),
    (["--trace="], "invalid --trace spec"),
    (["--trace=bogus:1"], "invalid --trace spec: bogus is not a known key"),
    (["--sketch=decay:0"], "invalid --sketch spec"),
    (["--sketch=queue_alpha:1"], "invalid --sketch spec"),
    (["--sketch=epoch:9"], "invalid --sketch spec"),
    (["--sketch=mem:64,,depth:2"], "invalid --sketch spec"),
    # A scenario action's misspelled key is refused, not ignored.
    (["--flows=20", '--scenario={"actions": [{"kind": "link_down", '
      '"at": 5000, "target": -1}]}'],
     "scenario.actions[0].at is not a known key"),
]

ACCEPTED = [
    ["--flows=20"],
    ["--topo=incast", "--fanout=10"],
    ["--topo=leafspine", "--workload=datamining", "--flows=20"],
    ["--topo=fattree", "--k=4", "--flows=50", "--relaxed-lanes=2"],
    ["--flows=20", "--trace=events:4096,points:64,queue:off",
     "--trace-out=t.csv"],
    ["--flows=20", "--trace=full"],
    ["--flows=20",
     "--sketch=mem:32,depth:3,epoch:2000,window:4,decay:50,hh:0,exact:on"],
]


def run(cli, args):
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([cli] + args, cwd=cwd, capture_output=True,
                              text=True, timeout=120)
        results = os.path.join(cwd, "results")
        written = os.listdir(results) if os.path.isdir(results) else []
        return proc, written


def main():
    cli = os.path.abspath(sys.argv[1])
    failures = []
    for args, expected in REJECTED:
        proc, written = run(cli, args)
        if proc.returncode != 2:
            failures.append(f"{args}: exit {proc.returncode}, want 2")
        if expected not in proc.stderr:
            failures.append(f"{args}: stderr {proc.stderr!r} lacks "
                            f"{expected!r}")
        if written:
            failures.append(f"{args}: wrote results/{written}")
    for args in ACCEPTED:
        proc, _ = run(cli, args)
        if proc.returncode != 0:
            failures.append(f"{args}: exit {proc.returncode}, want 0; "
                            f"stderr {proc.stderr!r}")
    for failure in failures:
        print("FAIL", failure)
    print(f"{len(REJECTED) + len(ACCEPTED)} invocations, "
          f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
