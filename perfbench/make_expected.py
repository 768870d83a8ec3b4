"""Regenerate expected.json: final fix_res and objective per workload, seed and method.

    python3 perfbench/make_expected.py [--seeds 64] [--workload NAME ...]

Runs one untraced repeat per workload and seed (seeds 0 .. N-1) and stores
the values the CLI wrote. Workloads not named keep their stored values.
Regenerate only when a change is meant to alter the numerical results.
"""

from __future__ import annotations

import argparse
import json

import run
import workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=64)
    parser.add_argument("--workload", nargs="*", default=list(workloads.NAMES))
    args = parser.parse_args()
    path = run.HERE / "expected.json"
    doc = json.loads(path.read_text())
    for name in args.workload:
        work = run.WORK / f"expected-{name}"
        table = {}
        for seed in range(args.seeds):
            argv, _ = workloads.write_config(name, seed, work / "out")
            result = run.repeat(name, argv, work, "expected", traced=False)
            if "error" in result:
                raise SystemExit(f"{name} seed {seed}: {result['error']}")
            table[str(seed)] = {m["name"]: {"fix_res": m["fix_res"], "objective": m["objective"]}
                                for m in result["methods"]}
            print(name, seed, flush=True)
        doc["workloads"][name] = table
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
