"""relsplit benchmark: time one workload through the CLI and check its outputs.

    python3 perfbench/run.py --workload lasso-grid --seed 0 --seconds 30 --trace 0

Run from the repository root. Each repeat is a fresh process
(``child.py``) that calls ``relsplit.cli.main`` once with BLAS pinned to
one thread and ``REL_SPLIT_THREADS`` unset; repeats follow one another
(a closed loop, one job at a time) until ``--seconds`` have passed.

With ``--trace 0`` the last stdout line reports the median of each
end-to-end metric over the repeats. Times are calibrated: each repeat's times are scaled by
``CAL_NOMINAL_S`` over the time a fixed kernel took around that repeat
(``child.calibrate``), which cancels the host's speed at that moment.
With ``--trace 1`` half the time goes to untraced repeats and half to
repeats that wrap every layer, and the last line reports the per-layer
metrics. Either way every method run is checked
from what the CLI wrote: its resolvent count against the closed form for
its relocator kind, and its final fix_res and objective against
``expected.json``. Reference solves are checked from their loop's Trace.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
HARD_LIMIT_S = 140.0          # start no repeat after this ...
RUN_LIMIT_S = 170.0           # ... and stop any repeat here: a run must end within 180 s
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

# Other tenants of a shared host slow this process by up to 2x, in states
# that switch every second or so and last for minutes in all. A fixed kernel
# timed just before and just after each repeat slows with it, so each
# repeat's times are scaled to a host on which that kernel takes CAL_NOMINAL_S
# (about its time on an idle 2-vCPU Intel Xeon VM). The time metrics are
# reported in those calibrated seconds; the raw times are in the context.
CAL_NOMINAL_S = 0.04


# -- one repeat ---------------------------------------------------------------

def child_env():
    env = {k: v for k, v in os.environ.items() if k != "REL_SPLIT_THREADS"}
    env.update(PINNED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def repeat(name, argv, work, run_id, traced, timeout=RUN_LIMIT_S):
    """Run the CLI once in a fresh process; returns the child's result with outputs."""
    request = {"argv": argv, "trace": traced, "run_id": run_id,
               "cal": workloads.CAL_KERNEL[name],
               "spans": str(work / "spans.csv")}
    req_path, res_path = work / "request.json", work / "result.json"
    req_path.write_text(json.dumps(request))
    res_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(req_path),
                               str(res_path)], env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"repeat killed after {timeout:.0f} s"}
    if proc.returncode != 0 or not res_path.exists():
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(res_path.read_text())
    if result["exit_code"] != 0:
        return dict(result, error=f"relsplit exited {result['exit_code']}")
    result["methods"] = workloads.read_outputs(name, argv, result["stdout"])
    return result


def repeats_until(deadline, started, name, argv, work, traced, first_id):
    """Repeat until the deadline passes (at least once)."""
    results = []
    while True:
        results.append(repeat(name, argv, work, f"{first_id + len(results)}", traced,
                              timeout=RUN_LIMIT_S - (time.monotonic() - started)))
        now = time.monotonic()
        if now >= deadline or now - started >= HARD_LIMIT_S:
            return results


# -- checks ------------------------------------------------------------------

def closed_form_evals(loop):
    """Resolvent evaluations a loop must make for its iterations and stop state.

    ``loop`` gives iterations, n, converged and kind: "general",
    "run_davis_yin", or any cheap kind. Cheap relocators: n per iteration,
    n*(K+1)+1 in total after K+1 iterations; general: 2n per iteration;
    run_davis_yin: 1 + 2 per iteration. A run that converges stops before the
    last iteration's relocation work.
    """
    i, n, c = loop["iterations"], loop["n"], int(loop["converged"])
    if loop["kind"] == "run_davis_yin":
        return 1 + 2 * i - c
    if loop["kind"] == "general":
        return 2 * n * i - n * c
    return n * i + 1 - c


def close(value, want, rtol):
    return abs(value - want) <= rtol * abs(want)


def check(results, expected, tolerance):
    """(attempted, failed, problems): one operation per method run, per reference
    solve and per traced repeat.

    Methods are checked from what the CLI wrote (summary, trace CSVs, stdout),
    so they do not depend on how the CLI runs them. Reference solves are
    checked from the Trace their loop returned.
    """
    attempted = failed = 0
    problems = []
    first = next((r["methods"] for r in results if "methods" in r), None)
    for rid, res in enumerate(results):
        if "error" in res:
            attempted += 1
            failed += 1
            problems.append(f"repeat {rid}: {res['error']}")
            continue
        for loop in res["loops"]:
            if not loop["reference"]:
                continue
            attempted += 1
            if loop["aborted"] or loop["resolvent_evals"] != closed_form_evals(loop):
                failed += 1
                problems.append(f"repeat {rid}: reference run {loop}")
        for name in sorted(set(expected or ()) - {m["name"] for m in res["methods"]}):
            attempted += 1
            failed += 1
            problems.append(f"repeat {rid} {name}: no output from the CLI")
        for method in res["methods"]:
            attempted += 1
            errs = []
            if method["aborted"]:
                errs.append("aborted")
            elif method["sweeps"] != closed_form_evals(method):
                errs.append(f"resolvent evals {method['sweeps']} vs closed form "
                            f"{closed_form_evals(method)}")
            for label, ref in (("expected", (expected or {}).get(method["name"])),
                               ("first repeat", _by_name(first, method["name"]))):
                if ref is None:
                    continue
                if not close(method["fix_res"], ref["fix_res"], tolerance["fix_res_rtol"]):
                    errs.append(f"fix_res {method['fix_res']!r} vs {label} {ref['fix_res']!r}")
                if not close(method["objective"], ref["objective"], tolerance["objective_rtol"]):
                    errs.append(f"objective {method['objective']!r} vs {label} "
                                f"{ref['objective']!r}")
            if errs:
                failed += 1
                problems.append(f"repeat {rid} {method['name']}: " + "; ".join(errs))
        if "layers" in res:
            attempted += 1
            traced = res["layers"]["functions"]
            resolves = sum(v["solve_calls"] for k, v in traced.items() if k.endswith(".resolve"))
            evals = sum(m["sweeps"] for m in res["methods"])
            if resolves != evals:
                failed += 1
                problems.append(f"repeat {rid}: traced resolve calls {resolves} != "
                                f"resolvent_evals {evals}")
    return attempted, failed, problems


def _by_name(methods, name):
    return next((m for m in methods or () if m["name"] == name), None)


# -- metrics -----------------------------------------------------------------

def end_to_end(res):
    """End-to-end metrics of one repeat, times in calibrated seconds."""
    methods = res["methods"]
    iters = sum(m["iterations"] for m in methods)
    scale = CAL_NOMINAL_S / res["cal_s"]
    solve = res["solve_s"] * scale
    return {"setup_s": res["setup_s"] * scale, "solve_s": solve, "wall_s": res["wall_s"] * scale,
            "iters_per_s": iters / solve, "iters_total": iters,
            "resolvent_evals": sum(m["sweeps"] for m in methods),
            "peak_rss_mb": res["peak_rss_mb"]}


def per_layer(res, dim):
    """Per-layer metrics of one traced repeat (times per call in us unless named _s)."""
    f = res["layers"]["functions"]

    def group(suffix):
        return [name for name in f if name.endswith(suffix)]

    def calls(names):
        return sum(f[n]["calls"] for n in names)

    def us(names, key="total_s"):
        c = calls(names)
        return 1e6 * sum(f[n][key] for n in names) / c if c else 0.0

    def self_us_per_iter(loop):
        iters = sum(lp["iterations"] for lp in res["loops"] if lp["loop"] == loop)
        return 1e6 * f[loop]["self_s"] / iters if iters else 0.0

    resolve, apply_ = group(".resolve"), group(".apply")
    gram_calls = f["operators.LeastSquaresGrad.apply"]["calls"]
    diag_calls = f["operators.ScaledIdentity.apply"]["calls"]
    flops = 2.0 * dim * dim * gram_calls + dim * diag_calls
    nbytes = 8.0 * dim * dim * gram_calls + 16.0 * dim * diag_calls
    methods = res["methods"]
    return {
        "engine.sweep.calls": f["engine.sweep"]["calls"],
        "engine.sweep.self_us": us(["engine.sweep"], "self_s"),
        "engine.sweep.recycled_ratio":
            res["layers"]["sweep_recycled"] / max(1, f["engine.sweep"]["calls"]),
        "engine.first_block.self_us": us(["engine.first_block"], "self_s"),
        "engine.residuals.us": us(["engine.residuals"]),
        "relocator.relocate.calls": f["relocator.relocate"]["calls"],
        "relocator.relocate.self_us": us(["relocator.relocate"], "self_s"),
        "relocator.e_map.us": us(["relocator.e_map"]),
        "operators.resolve.calls": calls(resolve),
        "operators.resolve.us": us(resolve),
        "operators.apply.calls": calls(apply_),
        "operators.apply.us": us(apply_),
        "operators.apply.flops_computed": flops,
        "operators.apply.bytes_computed": nbytes,
        "operators.apply.flops_per_byte": flops / nbytes if nbytes else 0.0,
        "driver.run.self_us_per_iter": self_us_per_iter("driver.run"),
        "driver.run_davis_yin.self_us_per_iter": self_us_per_iter("driver.run_davis_yin"),
        "schedule.next_gamma.us": us(group(".next_gamma")),
        "problems.objective.us": us(["problems.objective"]),
        "driver.Trace.to_csv.s": f["driver.Trace.to_csv"]["total_s"],
        "problems.reference_solution_s": f["problems.reference_solution"]["total_s"],
        "operators.lambda_max_s": f["operators.lambda_max"]["total_s"],
        "config.build_s": res["setup_s"],
        "cli.bench.aborted_share": sum(m["aborted"] for m in methods) / len(methods),
    }


def spread(values):
    """Median, quartiles, IQR/median and the highest percentile with 10 samples beyond."""
    values = sorted(values)
    n = len(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n >= 2 else (med, med, med)
    out = {"n": n, "median": med, "q1": q1, "q3": q3,
           "iqr_over_median": (q3 - q1) / med if med else 0.0}
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        out[f"p{pct}"] = values[math.ceil(pct / 100 * n) - 1]
    return out


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


# -- main --------------------------------------------------------------------

def load_expected(workload, seed):
    doc = json.loads((HERE / "expected.json").read_text())
    return doc["tolerance"], doc["workloads"].get(workload, {}).get(str(seed))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "relsplit" / "cli.py").exists():
        print(f"error: relsplit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tolerance, expected = load_expected(args.workload, args.seed)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    cli_argv, doc = workloads.write_config(args.workload, args.seed, work / "out")
    started = time.monotonic()
    share = 0.5 if args.trace else 1.0
    plain = repeats_until(started + share * args.seconds, started, args.workload, cli_argv,
                          work, False, 0)
    traced = []
    if args.trace:
        traced = repeats_until(started + args.seconds, started, args.workload, cli_argv,
                               work, True, len(plain))
    attempted, failed, problems = check(plain + traced, expected, tolerance)

    ok_plain = [r for r in plain if "error" not in r]
    ok_traced = [r for r in traced if "error" not in r]
    if not ok_plain or (args.trace and not ok_traced):
        print("\n".join(problems), file=sys.stderr)
        print("error: no repeat completed", file=sys.stderr)
        return 1
    per_repeat = [end_to_end(r) for r in ok_plain]
    samples = {k: [e[k] for e in per_repeat] for k in per_repeat[0]}
    spreads = {k: spread(v) for k, v in samples.items()}
    if args.trace:
        layer_samples = [per_layer(r, doc["problem"]["d"]) for r in ok_traced]
        values = {k: statistics.median(s[k] for s in layer_samples) for k in layer_samples[0]}
        traced_solve = statistics.median(end_to_end(r)["solve_s"] for r in ok_traced)
        values["trace.overhead_ratio"] = traced_solve / spreads["solve_s"]["median"]
    else:
        values = {k: spreads[k]["median"] for k in spreads}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev(), "platform": platform.platform(),
        "cores": os.cpu_count(), "thread_pinning": PINNED, "rel_split_threads": "unset",
        "versions": ok_plain[0]["versions"], "repeats": len(plain), "traced_repeats": len(traced),
        "expected_values": "stored" if expected else "not stored for this seed",
        "reference_s": spread([r["reference_s"] * CAL_NOMINAL_S / r["cal_s"] for r in ok_plain]),
        "raw_s": {k: spread([r[k] for r in ok_plain])
                  for k in ("setup_s", "solve_s", "wall_s", "reference_s", "cal_s")},
        "fix_res_max": max(m["fix_res"] for m in ok_plain[0]["methods"]),
        "spread": spreads,
        "csv_sha256": {m["name"]: m["digest"] for m in ok_plain[0]["methods"]},
        "trace_wrapper_cost_ns": (statistics.median(1e9 * r["layers"]["wrapper_cost_s"]
                                                    for r in ok_traced) if ok_traced else None),
        "problems": problems,
    }
    raw = [{k: r[k] for k in ("setup_s", "solve_s", "wall_s", "reference_s", "cal_s")}
           for r in ok_plain]
    (work / "report.json").write_text(json.dumps({"context": context, "metrics": metrics,
                                                  "repeats": per_repeat, "raw_repeats": raw},
                                                 indent=1))
    print("context " + json.dumps(context))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
