"""Command-line front end: validate / run / bench / proptest.

``config`` reads the run config and the bench spec; this module loads the
JSON, solves the reference of ``run`` and ``bench`` (``_reference``, the one
place that prints ``REFERENCE_WARNING``), calls the library, writes the
output files and sets the exit code: the commands raise the library's
errors and an output's OSError, and ``main`` alone turns them into exit codes.
``run`` and ``bench`` check their outputs' places before any work and write
the files whole: under temporary names, renamed into place after the last,
so a write that fails leaves the earlier outputs and no temporary file.
A bench that fails or is interrupted after it made its ``out_dir`` removes
it again.
Exit codes: 0 success, 1 domain failure (violated condition, aborted run,
failed property; an aborted reference run, a ``ReferenceRunError``, is one
``error:`` line on stderr), 2 usage or configuration error (an unreadable
document, a ``ParameterError`` or ``StructuralError``, an output that cannot
be written: an OSError that names a file; one that names none is a bug and
propagates), reported as one ``error:`` line on stderr.
A bench spec's methods on one graph share its scheme, problem and z0, and
``driver.run_grid`` runs each such group from one step plan: three or more,
under any relocator, as lanes of one stack, a smaller group one method
after another; either way each method's trace is that of its own ``run``.
A stack pays each iteration's numpy calls once for all its lanes and
per-lane Python only where they differ: a constant-stepsize method makes
no schedule call after its first iteration.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import config as configmod, problems, propsuites
from .driver import run, run_grid
from .errors import ParameterError, ReferenceRunError, StructuralError, as_count, as_whole
from .scheme import condition_report

REFERENCE_WARNING = "warning: reference run did not fully converge; metrics are approximate"
SUMMARY_HEADER = ("method", "converged", "aborted", "iterations", "final_fix_res",
                  "final_rel_err_x", "final_rel_err_f", "iters_to_1e-6", "sweeps")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc


def _error(msg, code=2):
    print(f"error: {msg}", file=sys.stderr)
    return code


def _check_writable(path):
    """Raise the OSError that creating the file ``path`` would raise, as its folder shows."""
    folder = Path(path).parent
    if not folder.is_dir():
        code = errno.ENOTDIR if folder.exists() else errno.ENOENT
    elif not os.access(folder, os.W_OK | os.X_OK):
        code = errno.EACCES
    elif Path(path).is_dir():
        code = errno.EISDIR
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


def _write_whole(folder, writers):
    """Write the files ``writers`` ({name: write(path)}) into ``folder``, all or none.

    Each is written under a temporary folder in ``folder`` and all are renamed
    into place after the last is written, so a failed write leaves the
    folder's earlier files and no temporary one. A failed write's OSError
    names the file's place in ``folder``.
    """
    with tempfile.TemporaryDirectory(dir=folder, prefix=".relsplit-") as tmp:
        for name, write in writers.items():
            try:
                write(Path(tmp) / name)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(Path(folder) / name)) from exc
        for name in writers:
            os.replace(Path(tmp) / name, Path(folder) / name)


def _reference(prob, budget, cfgs):
    """Solve the reference of ``prob`` within ``budget`` for the run configs ``cfgs``."""
    ref = problems.reference_solution(prob, budget)
    if ref.flagged:
        print(REFERENCE_WARNING)
    for cfg in cfgs:
        cfg.reference = (ref.x, ref.phi)


def cmd_validate(args):
    ok_all = True
    for prefix, s in configmod.build_validate(_load_json(args.config)):
        for label, ok, detail in condition_report(s):
            print(f"{prefix + ' ' if prefix else ''}({label}) {'PASS' if ok else 'FAIL'}  {detail}")
            ok_all = ok_all and ok
    return 0 if ok_all else 1


def cmd_run(args):
    doc = _load_json(args.config)
    out = args.out or (Path(args.config).stem + ".csv")
    _check_writable(out)   # refused before the solve, not after it
    cfg, z0, prob, budget = configmod.build_run(doc)
    if budget is not None:
        _reference(prob, budget, [cfg])
    trace = run(cfg, z0)
    _write_whole(Path(out).parent, {Path(out).name: trace.to_csv})
    summary = trace.summary()
    print(f"wrote {out}")
    print(f"iterations={summary['iterations']} fix_res={summary['fix_res']:.6e} "
          f"consensus={summary['consensus']:.6e} objective={summary['objective']:.9g} "
          f"sweeps={summary['sweeps']}")
    if trace.aborted:
        print(f"ABORTED: {trace.aborted}")
        return 1
    return 0


def cmd_bench(args):
    groups, prob, budget, out_dir = configmod.build_bench(_load_json(args.spec))
    made = not out_dir.exists()
    outputs = [name for names, _, _ in groups for name in names] + ["summary"]
    results = []

    def write_summary(path):
        with open(path, "w", newline="") as fh:
            # the writer quotes an abort text, which may hold ", "
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SUMMARY_HEADER)
            for name, trace in results:
                su = trace.summary()
                hit = next((str(k) for k, err in zip(trace.k, trace.rel_err_f) if err <= 1e-6), "")
                writer.writerow([name, su["converged"], su["aborted"] or "", su["iterations"],
                                 *("%.17g" % su[key]
                                   for key in ("fix_res", "rel_err_x", "rel_err_f")),
                                 hit, su["sweeps"]])

    try:   # every output is checked before the reference solve and the runs
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in outputs:
            _check_writable(out_dir / f"{name}.csv")
        _reference(prob, budget, [cfg for _, cfgs, _ in groups for cfg in cfgs])
        for names, cfgs, z0 in groups:
            results += zip(names, run_grid(cfgs, z0))
        _write_whole(out_dir, {**{f"{name}.csv": trace.to_csv for name, trace in results},
                               "summary.csv": write_summary})
    except BaseException:
        if made:   # a bench that fails or is interrupted leaves no out_dir it made
            shutil.rmtree(out_dir, ignore_errors=True)
        raise
    for name, trace in results:
        su = trace.summary()
        print(f"{name}: iters={su['iterations']} rel_err_f={su['rel_err_f']:.3e} "
              f"{'ABORTED ' + su['aborted'] if su['aborted'] else ''}")
    print(f"wrote {out_dir}/summary.csv")
    return 0


def cmd_proptest(args):
    trials, seed = as_count("--trials", args.trials), as_whole("--seed", args.seed)
    failures = propsuites.run_suite(args.suite, trials=trials, seed=seed)
    if failures:
        print(f"{args.suite}: FAIL")
        for msg in failures:
            print("  counterexample:", msg)
        return 1
    print(f"{args.suite}: PASS ({trials} trials, seed {seed})")
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
    except (ParameterError, StructuralError) as exc:
        return _error(str(exc))
    except ReferenceRunError as exc:
        return _error(str(exc), code=1)
    except OSError as exc:   # names the output it could not write; one that names none propagates
        if exc.filename is None:
            raise
        return _error(f"cannot write {exc.filename}: {exc.strerror}")


if __name__ == "__main__":
    sys.exit(main())
