#!/usr/bin/env python3
"""Re-records digests.json: the public runner's digest of every workload's
default-seed instance. Run it only when a change is meant to alter simulated
results; a speed change must leave digests.json untouched.

    python3 perfbench/record_digests.py
"""

import json
import os

import run


def main():
    binary = run.build()
    table = {}
    for workload, flows in run.FLOWS.items():
        report = run.run_process(binary, [
            "public", "--workload", workload, "--seed", str(run.DEFAULT_SEED),
            "--flows", str(flows)])
        table[workload] = {"seed": run.DEFAULT_SEED, "flows": flows,
                           "digest": report["digest"]}
    with open(os.path.join(run.HERE, "digests.json"), "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
