"""Command-line front end: validate / run / bench / proptest.

Exit codes: 0 success, 1 domain failure (violated condition, aborted run,
failed property), 2 usage or configuration error, reported as one ``error:``
line on stderr. Benchmark methods run one after another.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import config as configmod, problems, propsuites, relocator
from .driver import RunConfig, Trace, run
from .errors import ParameterError, StructuralError
from .schedule import (ACCEL, HARMONIC, NORM_RATIO, RelaxationPlan, ScheduleSpec,
                       schedule_from_config)
from .scheme import condition_report


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(_usage_error(f"cannot read config {path}: {exc}"))


def _usage_error(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 2


# Errors that mean the input is unusable: the library's own, plus the
# builtin ones that malformed values outside config.build_* raise.
CONFIG_ERRORS = (ParameterError, StructuralError, KeyError, TypeError, ValueError)


def cmd_validate(args):
    doc = _load_json(args.config)
    try:
        s = configmod.build_scheme(doc)
        report = condition_report(s, tol=float(doc.get("tol", 1e-10)))
    except CONFIG_ERRORS as exc:
        return _usage_error(str(exc))
    ok_all = True
    for label, ok, detail in report:
        print(f"({label}) {'PASS' if ok else 'FAIL'}  {detail}")
        ok_all = ok_all and ok
    return 0 if ok_all else 1


def cmd_run(args):
    doc = _load_json(args.config)
    try:
        cfg, z0 = configmod.build_run(doc)
        trace = run(cfg, z0)
    except (ParameterError, StructuralError) as exc:
        return _usage_error(str(exc))
    out = args.out or (Path(args.config).stem + ".csv")
    trace.to_csv(out)
    summary = trace.summary()
    print(f"wrote {out}")
    print(f"iterations={summary['iterations']} fix_res={summary['fix_res']:.6e} "
          f"consensus={summary['consensus']:.6e} objective={summary['objective']:.9g} "
          f"sweeps={summary['sweeps']}")
    if trace.aborted:
        print(f"ABORTED: {trace.aborted}")
        return 1
    return 0


def _pick_kind(requested, s):
    """Resolve 'auto' to the scheme's cheap relocator kind (general otherwise)."""
    if requested != "auto":
        return requested
    if s.n == 2 and s.topologies:
        return relocator.DAVIS_YIN
    if len(s.topologies) == 1:
        return s.topologies[0]
    return relocator.GENERAL


def default_methods(beta, n_resolvents):
    """The benchmark grid: three constant stepsizes plus the safeguard rules."""
    methods = [
        ("const-0.1L", ScheduleSpec(variant="constant", gamma=0.1 / beta)),
        ("const-1L", ScheduleSpec(variant="constant", gamma=1.0 / beta)),
        ("const-1.99L", ScheduleSpec(variant="constant", gamma=1.99 / beta)),
        ("fpr-norm-ratio", ScheduleSpec(variant="safeguard", t_rule=NORM_RATIO)),
        ("fpr-harmonic", ScheduleSpec(variant="safeguard", t_rule=HARMONIC)),
    ]
    if n_resolvents == 2:
        # the accelerated target rule is specific to the three-operator case
        methods.insert(4, ("fpr-accel", ScheduleSpec(variant="safeguard", t_rule=ACCEL)))
    return methods


def cmd_bench(args):
    doc = _load_json(args.spec)
    try:
        prob, split, objective_fn = configmod.build_problem(doc["problem"])
        budget = int(doc.get("budget", 10000))
        out_dir = Path(doc.get("out_dir", "bench-out"))
        if budget < 1:
            raise ParameterError("budget must be >= 1")
        if "graphs" in doc:
            # one benchmark grid per topology, prefixed CSV names
            schemes = [(g.get("kind", "graph"), configmod.build_scheme({"graph": g}))
                       for g in doc["graphs"]]
        else:
            schemes = [("", configmod.build_scheme(doc))]
        z0 = configmod.build_z0(doc.get("z0"), schemes[0][1], split)
        if "methods" in doc:
            grid = [(m["name"], schedule_from_config(m["schedule"])) for m in doc["methods"]]
            if not grid:
                raise ParameterError("benchmark needs at least one method")
        else:
            grid = default_methods(split.beta, schemes[0][1].n)
        relaxation = RelaxationPlan(**doc.get("relaxation", {}))
        jobs = []
        for prefix, s in schemes:
            kind = _pick_kind(doc.get("relocator", relocator.GENERAL), s)
            for name, sched in grid:
                cfg = RunConfig(scheme=s, problem=split, relocator=kind, schedule=sched,
                                relaxation=relaxation, max_iters=budget,
                                fix_res_tol=float(doc.get("fix_res_tol", 1e-10)),
                                record_every=int(doc.get("record_every", 10)),
                                objective=objective_fn)
                jobs.append((f"{prefix}-{name}" if prefix else name, cfg))
    except CONFIG_ERRORS as exc:
        return _usage_error(str(exc))
    out_dir.mkdir(parents=True, exist_ok=True)
    ref = problems.reference_solution(prob, budget)
    if ref.flagged:
        print("warning: reference run did not fully converge; metrics are approximate")

    results = []
    for name, cfg in jobs:
        cfg.reference = (ref.x, ref.phi)
        try:
            trace = run(cfg, z0)
        except ParameterError as exc:
            # e.g. a constant stepsize outside (0, 2/mu): record, let others proceed
            trace = Trace(aborted=str(exc))
        trace.to_csv(out_dir / f"{name}.csv")
        results.append((name, trace))

    with open(out_dir / "summary.csv", "w") as fh:
        fh.write("method,converged,aborted,iterations,final_fix_res,"
                 "final_rel_err_x,final_rel_err_f,iters_to_1e-6,sweeps\n")
        for name, trace in results:
            su = trace.summary()
            hit = ""
            for k, err in zip(trace.k, trace.rel_err_f):
                if err <= 1e-6:
                    hit = str(k)
                    break
            fh.write("%s,%s,%s,%d,%.17g,%.17g,%.17g,%s,%d\n" % (
                name, su["converged"], su["aborted"] or "", su["iterations"],
                su["fix_res"], su["rel_err_x"], su["rel_err_f"], hit, su["sweeps"]))
            print(f"{name}: iters={su['iterations']} rel_err_f={su['rel_err_f']:.3e} "
                  f"{'ABORTED ' + su['aborted'] if su['aborted'] else ''}")
    print(f"wrote {out_dir}/summary.csv")
    return 0


def cmd_proptest(args):
    if args.suite not in propsuites.SUITES:
        return _usage_error(f"unknown suite {args.suite!r}; choose from {propsuites.SUITES}")
    failures = propsuites.run_suite(args.suite, trials=args.trials, seed=args.seed)
    if failures:
        print(f"{args.suite}: FAIL")
        for msg in failures:
            print("  counterexample:", msg)
        return 1
    print(f"{args.suite}: PASS ({args.trials} trials, seed {args.seed})")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="relsplit",
        description="Variable-stepsize distributed forward-backward splitting runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the six scheme conditions of a config")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run one configuration and write its trace CSV")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="run a benchmark grid and write per-method CSVs")
    p.add_argument("spec")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("proptest", help="run a named property suite")
    p.add_argument("suite")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_proptest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
