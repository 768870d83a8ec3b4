"""The benchmark's own tests: python3 -m pytest perfbench/tests -q (from the repo root)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_each_workload(workload):
    out = result_of(bench("--workload", workload, "--seed", "0", "--seconds", "0.1",
                          "--trace", "0"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    out = result_of(bench("--workload", "elastic-general-large", "--seed", "0",
                          "--seconds", "0.1", "--trace", "1"))
    assert out["correct"]
    assert sorted(out["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    # general relocator on n = 3: 2n resolvents per iteration, all of them traced
    assert out["metrics"]["operators.resolve.calls"]["value"] == 6 * workloads.LARGE_ITERS


def _bindings():
    """Every traced name as bound in relsplit's modules and classes."""
    import relsplit  # noqa: F401  (loads every submodule)
    seen = {}
    for mod_name, mod in sys.modules.items():
        if mod_name.split(".")[0] == "relsplit":
            for key, value in vars(mod).items():
                seen[(mod_name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        seen[(mod_name, key, attr)] = member
    return seen


def test_tracing_wrappers_are_removed(tmp_path):
    from relsplit import cli
    before = _bindings()
    argv, _ = workloads.write_config("lasso-grid", 0, tmp_path)
    doc = json.loads(Path(argv[1]).read_text())
    doc["budget"] = 20
    Path(argv[1]).write_text(json.dumps(doc))
    with tracer.Tracer(tracer.LAYER_TARGETS) as tr:
        assert cli.main(argv) == 0
    assert len(tr.start) > 0 and tr.loops
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []


def _copy_bench(dest, with_program):
    """The benchmark (and the program's sources) copied into ``dest``."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(BENCH, dest / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def test_broken_expected_value_is_a_failed_operation(tmp_path):
    _copy_bench(tmp_path, with_program=True)
    path = tmp_path / "perfbench" / "expected.json"
    doc = json.loads(path.read_text())
    doc["workloads"]["elastic-general-large"]["0"]["run"]["objective"] *= 1.01
    path.write_text(json.dumps(doc))
    out = result_of(bench("--workload", "elastic-general-large", "--seed", "0",
                          "--seconds", "0.1", "--trace", "0", cwd=tmp_path))
    assert not out["correct"]
    assert out["failed"] >= 1


def test_methods_are_checked_from_cli_outputs_alone(tmp_path):
    argv, _ = workloads.write_config("lasso-grid", 0, tmp_path / "out")
    doc = json.loads(Path(argv[1]).read_text())
    doc["budget"] = 20
    Path(argv[1]).write_text(json.dumps(doc))
    res = run.repeat("lasso-grid", argv, tmp_path, "0", traced=False)
    # as if the CLI ran its grid without one driver.run call per method
    res["loops"] = [loop for loop in res["loops"] if loop["reference"]]
    tolerance = {"fix_res_rtol": 0.05, "objective_rtol": 1e-7}
    attempted, failed, problems = run.check([res], None, tolerance)
    assert (attempted, failed, problems) == (1 + 6, 0, [])
    expected = {m["name"]: m for m in res["methods"]}
    assert run.check([dict(res, methods=res["methods"][1:])], expected, tolerance)[1] == 1
    res["methods"][0]["sweeps"] += 1
    assert run.check([res], None, tolerance)[1] == 1


def test_closed_form_evals():
    loop = {"iterations": 40, "n": 3, "converged": False}
    assert run.closed_form_evals(dict(loop, kind="sequential")) == 3 * 40 + 1
    assert run.closed_form_evals(dict(loop, kind="cheap")) == 3 * 40 + 1
    assert run.closed_form_evals(dict(loop, kind="general")) == 2 * 3 * 40
    assert run.closed_form_evals(dict(loop, kind="run_davis_yin", n=2)) == 1 + 2 * 40
    assert run.closed_form_evals(dict(loop, kind="sequential", converged=True)) == 3 * 40


def test_fails_without_the_program(tmp_path):
    _copy_bench(tmp_path, with_program=False)
    proc = bench("--workload", "lasso-grid", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
