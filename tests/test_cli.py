import contextlib
import copy
import csv
import errno
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsplit import config, driver, problems
from relsplit import graph as graphmod
from relsplit.cli import main

DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

DY_SCHEME = {"d": [0.5, 0.5], "M": [[1.0], [-1.0]], "N": [[0.0, 0.0], [1.0, 0.0]],
             "P": [[0.0], [1.0]], "R": [[1.0, 0.0]]}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_config(tmp_path, **overrides):
    doc = {
        "graph": {"kind": "sequential", "n": 2},
        "problem": {"kind": "lasso", "q": 10, "d": 15, "seed": 3, "lam": 0.01, "u": 5.0},
        "relocator": "davis-yin",
        "schedule": {"variant": "safeguard", "t_rule": "norm-ratio"},
        "run": {"max_iters": 200, "fix_res_tol": 1e-9, "record_every": 10,
                "z0": {"kind": "normal", "seed": 0}},
    }
    doc.update(overrides)
    return write_json(tmp_path / "cfg.json", doc)


def test_validate_pass(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {"scheme": DY_SCHEME})
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6 and "FAIL" not in out


def test_validate_fail_names_condition(tmp_path, capsys):
    bad = dict(DY_SCHEME, R=[[0.0, 1.0]])
    cfg = write_json(tmp_path / "s.json", {"scheme": bad})
    assert main(["validate", cfg]) == 1
    out = capsys.readouterr().out
    assert "(f) FAIL" in out


def test_validate_missing_file(tmp_path, capsys, monkeypatch):
    assert main(["validate", "/nonexistent/cfg.json"]) == 2
    # each command, on a missing file and on malformed JSON: one error line, no CSV or out_dir
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text('{"graph": {"kind": "sequential",')
    for path in ("missing.json", "bad.json"):
        for command in ("validate", "run", "bench"):
            code = main([command, path])
            captured = capsys.readouterr()
            err = captured.err.splitlines()
            assert code == 2 and len(err) == 1, (command, path, err)
            assert err[0].startswith(f"error: cannot read config {path}: ")
            assert captured.out == ""
            assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_build_run_solves_no_reference(monkeypatch):
    # config only reads the document; the CLI solves the reference it asks for
    def solve(*args):
        raise AssertionError("config solved a reference")

    monkeypatch.setattr(problems, "reference_solution", solve)
    doc = json.loads((DEMO_CONFIGS / "lasso_dy.json").read_text())
    cfg, _, prob, budget = config.build_run(doc)
    assert budget == 20000 and cfg.reference is None and prob.dim == 100
    for no_reference in (None, 0):
        doc["run"]["reference_budget"] = no_reference
        assert config.build_run(doc)[3] is None


def test_problem_generator_gets_only_the_given_keys(monkeypatch):
    # the generators own their defaults; config adds seed 0 alone
    calls, gen_lasso, gen_elastic_net = [], problems.gen_lasso, problems.gen_elastic_net
    for name, gen in (("gen_lasso", gen_lasso), ("gen_elastic_net", gen_elastic_net)):
        monkeypatch.setattr(problems, name,
                            lambda gen=gen, **kw: calls.append(kw) or gen(**kw))
    lasso = config.build_problem({"kind": "lasso", "q": 4, "d": 5, "lam": 1e-2})[0]
    elastic = config.build_problem({"kind": "elastic-net", "q": 4, "d": 5, "seed": 3})[0]
    assert calls == [{"seed": 0, "q": 4, "d": 5, "lam": 1e-2}, {"seed": 3, "q": 4, "d": 5}]
    assert np.array_equal(lasso.A, gen_lasso(4, 5, 0, lam=1e-2).A)
    assert np.array_equal(elastic.A, gen_elastic_net(4, 5, 3).A)


def test_validate_graph_config(tmp_path, capsys):
    cfg = write_json(tmp_path / "g.json", {"graph": {"kind": "inward-star", "n": 4}})
    assert main(["validate", cfg]) == 0
    assert capsys.readouterr().out.count("PASS") == 6


def test_run_writes_csv_deterministically(tmp_path, capsys):
    # an unseeded normal z0 draws with seed 0, and "auto" is davis-yin on the chain
    unseeded = {"max_iters": 200, "fix_res_tol": 1e-9, "record_every": 10,
                "z0": {"kind": "normal"}}
    written = []
    for overrides in ({}, {"run": unseeded}, {"relocator": "auto"}):
        cfg = run_config(tmp_path, **overrides)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["run", cfg, "--out", str(out1)]) == 0
        assert main(["run", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        written.append(out1.read_bytes())
    assert written[1] == written[0] and written[2] == written[0]
    lines = out1.read_text().splitlines()
    assert lines[0] == "k,gamma,theta,lambda,fix_res,consensus,objective,rel_err_x,rel_err_f,sweeps"
    assert len(lines) > 2


def test_run_stops_on_tolerance(tmp_path):
    cfg = run_config(tmp_path, run={"max_iters": 100000, "fix_res_tol": 1e-8,
                                    "record_every": 1, "z0": {"kind": "zero"}})
    out = tmp_path / "c.csv"
    assert main(["run", cfg, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) < 100000
    assert float(rows[-1].split(",")[4]) <= 1e-8


def test_run_abort_exit_code(tmp_path):
    # gamma*mu = 1.9995 leaves no positive lambda above the margin floor 1e-3
    problem = {"kind": "lasso", "q": 10, "d": 15, "seed": 3, "lam": 0.01, "u": 5.0}
    beta = config.build_problem(problem)[1].beta
    cfg = run_config(tmp_path, problem=problem,
                     schedule={"variant": "constant", "gamma": 1.9995 / beta})
    out = tmp_path / "d.csv"
    assert main(["run", cfg, "--out", str(out)]) == 1
    assert out.exists()


def test_run_bad_config(tmp_path):
    cfg = write_json(tmp_path / "bad.json", {"problem": {"kind": "lasso", "q": 4, "d": 4}})
    assert main(["run", cfg]) == 2


KAPPA_CHAIN = {"d": [1.0, 1.0], "M": [[1.0], [-1.0]], "N": [[0.0, 0.0], [2.0, 0.0]],
               "P": [[0.0], [1.0]], "R": [[1.0, 0.0]]}
# N_21 = 1.5 fails (e); M = [[1], [-0.5]] fails (a) and (d). Unchecked, each run
# converges to a point that is no solution and exits 0.
BROKEN_CHAINS = [(dict(KAPPA_CHAIN, N=[[0.0, 0.0], [1.5, 0.0]]), ["(e)"]),
                 (dict(KAPPA_CHAIN, M=[[1.0], [-0.5]]), ["(a)", "(d)"])]


@pytest.mark.parametrize("scheme, failed", BROKEN_CHAINS)
def test_invalid_explicit_scheme_exits_2_before_any_solve(tmp_path, capsys, scheme, failed):
    problem = {"kind": "lasso", "q": 20, "d": 30, "seed": 2}
    doc = {"scheme": scheme, "problem": problem, "relocator": "general",
           "schedule": {"variant": "constant"}, "run": {"max_iters": 200}}
    out = tmp_path / "r.csv"
    assert_usage_error(capsys, main(["run", write_json(tmp_path / "r.json", doc), "--out",
                                     str(out)]))
    assert not out.exists()
    spec = {"scheme": scheme, "problem": problem, "relocator": "general", "budget": 50,
            "out_dir": str(tmp_path / "b")}
    code = main(["bench", write_json(tmp_path / "s.json", spec)])
    err = capsys.readouterr().err
    assert code == 2 and all(label in err for label in failed), err
    assert not (tmp_path / "b").exists()
    # the valid chain runs
    doc["scheme"] = KAPPA_CHAIN
    assert main(["run", write_json(tmp_path / "r.json", doc), "--out", str(out)]) == 0


def test_bench(tmp_path, capsys):
    spec = {
        "graph": {"kind": "sequential", "n": 2},
        "problem": {"kind": "lasso", "q": 8, "d": 10, "seed": 5, "lam": 0.02, "u": 5.0},
        "relocator": "davis-yin",
        "budget": 300,
        "record_every": 5,
        "out_dir": str(tmp_path / "bench"),
        "z0": {"kind": "normal", "seed": 1},
        "methods": [
            {"name": "const", "schedule": {"variant": "constant"}},
            {"name": "fpr-harmonic", "schedule": {"variant": "safeguard", "t_rule": "harmonic"}},
        ],
    }
    cfg = write_json(tmp_path / "spec.json", spec)
    assert main(["bench", cfg]) == 0
    out_dir = tmp_path / "bench"
    assert (out_dir / "const.csv").exists()
    assert (out_dir / "fpr-harmonic.csv").exists()
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("method,converged,aborted")
    assert len(summary) == 3


def test_bench_default_grid(tmp_path):
    spec = {
        "graph": {"kind": "sequential", "n": 2},
        "problem": {"kind": "lasso", "q": 6, "d": 8, "seed": 6, "lam": 0.05, "u": 5.0},
        "relocator": "davis-yin",
        "budget": 3000,
        "out_dir": str(tmp_path / "bench2"),
    }
    cfg = write_json(tmp_path / "spec2.json", spec)
    assert main(["bench", cfg]) == 0
    names = {p.name for p in (tmp_path / "bench2").glob("*.csv")}
    assert names == {"const-0.1L.csv", "const-1L.csv", "const-1.99L.csv",
                     "fpr-norm-ratio.csv", "fpr-accel.csv", "fpr-harmonic.csv",
                     "summary.csv"}
    # monotonicity sanity: every converged method ends below rel_err_f = 1
    converged = 0
    for row in (tmp_path / "bench2" / "summary.csv").read_text().splitlines()[1:]:
        cells = row.split(",")
        if cells[1] == "True":
            converged += 1
            assert float(cells[6]) < 1.0, row
    assert converged >= 1


def test_bench_across_topologies(tmp_path):
    spec = {
        "graphs": [{"kind": k, "n": 3} for k in
                   ("inward-star", "outward-star", "sequential")],
        "problem": {"kind": "elastic-net", "q": 10, "d": 8, "seed": 2, "n_corr": 1},
        "relocator": "auto",
        "budget": 400,
        "out_dir": str(tmp_path / "bench4"),
        "methods": [
            {"name": "fpr-nr", "schedule": {"variant": "safeguard", "t_rule": "norm-ratio"}},
            {"name": "fpr-har", "schedule": {"variant": "safeguard", "t_rule": "harmonic"}},
        ],
    }
    cfg = write_json(tmp_path / "spec4.json", spec)
    assert main(["bench", cfg]) == 0
    names = {p.name for p in (tmp_path / "bench4").glob("*.csv")}
    expect = {f"{k}-{m}.csv" for k in ("inward-star", "outward-star", "sequential")
              for m in ("fpr-nr", "fpr-har")} | {"summary.csv"}
    assert names == expect
    rows = (tmp_path / "bench4" / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    assert all(r.split(",")[2] == "" for r in rows)  # none aborted


def test_bench_records_per_method_aborts(tmp_path):
    # inward-star n=3 has mu > beta: the 1/beta and 1.99/beta constants lie
    # outside (0, 2/mu) and must be recorded as aborted while others proceed
    spec = {
        "graph": {"kind": "inward-star", "n": 3},
        "problem": {"kind": "elastic-net", "q": 10, "d": 8, "seed": 2, "n_corr": 1},
        "relocator": "inward-star",
        "budget": 400,
        "out_dir": str(tmp_path / "bench3"),
    }
    cfg = write_json(tmp_path / "spec3.json", spec)
    assert main(["bench", cfg]) == 0
    with open(tmp_path / "bench3" / "summary.csv", newline="") as fh:
        by_name = {row["method"]: row for row in csv.DictReader(fh)}
    assert len(by_name) == 5  # no accel rule for n > 2
    # the abort text holds ", ", which must not shift the columns after it
    for name in ("const-1L", "const-1.99L"):
        row = by_name[name]
        assert row["aborted"].startswith("constant gamma = ") and ", " in row["aborted"]
        assert row["iterations"] == "0" and row["sweeps"] == "0" and None not in row
    assert by_name["fpr-norm-ratio"]["aborted"] == ""


def test_proptest(capsys):
    assert main(["proptest", "resolvent-identity", "--trials", "200", "--seed", "1"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["proptest", "unknown-suite"]) == 2


def test_proptest_pinv_and_scheme_suites(capsys):
    assert main(["proptest", "pinv-closed-forms"]) == 0
    assert main(["proptest", "scheme-validity"]) == 0


@pytest.mark.parametrize("argv", [["--trials", "0"], ["--trials", "-5"], ["--seed", "-1"]])
def test_proptest_refuses_counts_that_test_nothing(capsys, argv):
    # zero trials used to PASS and a negative seed to end in numpy's traceback
    assert_usage_error(capsys, main(["proptest", "recycling", *argv]))
    assert capsys.readouterr().out == ""


def test_run_without_problem_section_exits_2(capsys):
    # explicit_scheme.json is a validate config: it has a scheme and no problem
    assert main(["run", str(DEMO_CONFIGS / "explicit_scheme.json")]) == 2
    assert capsys.readouterr().err == "error: config is missing key 'problem'\n"


def test_problem_section_without_kind_exits_2(tmp_path, capsys):
    cfg = run_config(tmp_path, problem={"q": 10, "d": 15, "seed": 3})
    assert main(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: problem section is missing key 'kind'")
    assert not (tmp_path / "x.csv").exists()


def test_run_unwritable_out_exits_2(tmp_path, capsys, monkeypatch):
    # refused before the solve: the run is never called and no CSV is written
    def no_run(*args):
        raise AssertionError("run called for an unwritable --out")

    monkeypatch.setattr("relsplit.cli.run", no_run)
    taken, plain = tmp_path / "taken.csv", tmp_path / "plain"
    taken.mkdir()
    plain.write_text("keep")
    for out, why in ((tmp_path / "missing" / "x.csv", "No such file or directory"),
                     (plain / "x.csv", "Not a directory"), (taken, "Is a directory")):
        assert main(["run", run_config(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: cannot write {out}: {why}"]
    assert not (tmp_path / "missing").exists() and not any(taken.iterdir())
    assert plain.read_text() == "keep"


def test_bench_out_dir_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    spec = {"graph": {"kind": "sequential", "n": 2},
            "problem": {"kind": "lasso", "q": 8, "d": 10, "seed": 5, "lam": 0.02, "u": 5.0},
            "relocator": "davis-yin", "budget": 50, "out_dir": str(taken)}
    assert_usage_error(capsys, main(["bench", write_json(tmp_path / "spec.json", spec)]))
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("taken", ["const-1L.csv", "summary.csv"])
def test_bench_unwritable_output_exits_2(tmp_path, capsys, taken):
    # a directory where bench writes a method's CSV or the summary: one error line
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    spec = dict(json.loads((DEMO_CONFIGS / "bench_lasso.json").read_text()),
                budget=50, out_dir=str(out))
    code = main(["bench", write_json(tmp_path / "spec.json", spec)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out / taken}: "), err


def test_bench_checks_every_output_before_any_work(tmp_path, capsys, monkeypatch):
    # an out_dir under a regular file, a method CSV and the summary that are directories:
    # exit 2 with one error line before the reference solve and the runs, and no CSV
    def no_work(*args):
        raise AssertionError("bench worked before checking its outputs")

    monkeypatch.setattr("relsplit.cli.problems.reference_solution", no_work)
    monkeypatch.setattr("relsplit.cli.run_grid", no_work)
    plain = tmp_path / "plain"
    plain.write_text("keep")
    cases = [(plain / "out", plain / "out", "Not a directory")]
    for taken in ("const-1L.csv", "summary.csv"):
        (tmp_path / taken / taken).mkdir(parents=True)
        cases.append((tmp_path / taken, tmp_path / taken / taken, "Is a directory"))
    for out, named, why in cases:
        spec = dict(json.loads((DEMO_CONFIGS / "bench_lasso.json").read_text()),
                    budget=50, out_dir=str(out))
        code = main(["bench", write_json(tmp_path / "spec.json", spec)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: cannot write {named}: {why}"]
    assert plain.read_text() == "keep"
    assert [p for p in tmp_path.rglob("*.csv") if p.is_file()] == []


def test_failed_write_keeps_the_earlier_outputs(tmp_path, capsys, monkeypatch):
    # bench and run write every output under a temporary name and rename them into
    # place after the last: a write that fails part way (here the third Trace.to_csv
    # call, and the run's first) leaves an earlier bench's and run's outputs byte for
    # byte, no temporary file, one error line naming the output and exit 2
    out, csv_out = tmp_path / "out", tmp_path / "out" / "run.csv"
    doc = dict(json.loads((DEMO_CONFIGS / "bench_lasso.json").read_text()), out_dir=str(out))
    assert main(["bench", write_json(tmp_path / "spec.json", dict(doc, budget=50))]) == 0
    assert main(["run", run_config(tmp_path), "--out", str(csv_out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(before) == 8   # six methods, the summary and the run
    # the failing commands would write other bytes: a longer budget and run
    spec = write_json(tmp_path / "spec.json", dict(doc, budget=60))
    cfg = run_config(tmp_path, run={"max_iters": 30, "z0": {"kind": "normal", "seed": 0}})
    to_csv, calls = driver.Trace.to_csv, []

    def failing(self, path):
        calls.append(path)
        if len(calls) == 3:   # a disk that fills up mid-write
            Path(path).write_text("k,gamma\n0,")
            raise OSError(28, "No space left on device", str(path))
        return to_csv(self, path)

    monkeypatch.setattr(driver.Trace, "to_csv", failing)
    capsys.readouterr()
    assert main(["bench", spec]) == 2
    failed = out / Path(calls[2]).name
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {failed}: No space left on device"]
    calls[:] = [None, None]
    assert main(["run", cfg, "--out", str(csv_out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {csv_out}: No space left on device"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # an out_dir that the failing bench made is gone again
    calls.clear()
    fresh = dict(doc, budget=60, out_dir=str(out / "new"))
    assert main(["bench", write_json(tmp_path / "new.json", fresh)]) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def assert_usage_error(capsys, code):
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_run_malformed_value_exits_2(tmp_path, capsys):
    bad = {"kind": "lasso", "q": "abc", "d": 15, "seed": 3, "lam": 0.01, "u": 5.0}
    assert_usage_error(capsys, main(["run", run_config(tmp_path, problem=bad)]))
    cfg = run_config(tmp_path, run={"max_iters": "many"})
    assert_usage_error(capsys, main(["run", cfg]))
    cfg = run_config(tmp_path, schedule={"variant": "constant", "gamma": 1e9})
    assert_usage_error(capsys, main(["run", cfg]))
    cfg = run_config(tmp_path, schedul={"variant": "constant"})
    assert_usage_error(capsys, main(["run", cfg]))
    # non-finite problem weights and spectrum entries, with and without a reference solve
    lasso = {"kind": "lasso", "q": 10, "d": 15, "seed": 3, "lam": 0.01, "u": 5.0}
    elastic = {"kind": "elastic-net", "q": 10, "d": 8, "seed": 2, "n_corr": 1}
    for problem, run_doc in ((dict(lasso, spectrum=[0.5, float("inf")]), {}),
                             (dict(lasso, lam=float("inf")), {}),
                             (dict(lasso, lam=float("inf")), {"reference_budget": 50}),
                             (dict(elastic, lam1=float("inf")), {})):
        n = 3 if problem["kind"] == "elastic-net" else 2
        cfg = run_config(tmp_path, graph={"kind": "sequential", "n": n}, problem=problem,
                         relocator="auto", run=dict(run_doc, max_iters=20))
        assert_usage_error(capsys, main(["run", cfg, "--out", str(tmp_path / "bad.csv")]))
        assert not (tmp_path / "bad.csv").exists()
    # limits: a finite tolerance and whole counts, never truncated
    for run_doc in ({"max_iters": 20, "fix_res_tol": float("inf")}, {"max_iters": 2.5},
                    {"record_every": 1.5}, {"max_iters": 20, "reference_budget": 2.5},
                    {"max_iters": 5, "reference_budget": False},
                    {"max_iters": 5, "reference_budget": ""},
                    {"max_iters": 5, "reference_budget": []},
                    {"max_iters": 20, "z0": {"kind": "normal", "seed": 1.5}},
                    {"max_iters": 20, "z0": {"kind": "normal", "seed": -1}}):
        assert_usage_error(capsys, main(["run", run_config(tmp_path, run=run_doc)]))
    # sizes and seeds are whole numbers: nothing is truncated or cast
    for problem in (dict(lasso, q=20.7), dict(lasso, d=30.5), dict(lasso, seed=2.9),
                    dict(lasso, q=True), dict(lasso, seed=False), dict(lasso, q=0),
                    dict(elastic, n_corr=1.5), dict(elastic, n_corr=True)):
        cfg = run_config(tmp_path, graph={"kind": "sequential", "n": 3} if "n_corr" in problem
                         else {"kind": "sequential", "n": 2}, problem=problem,
                         relocator="auto")
        assert_usage_error(capsys, main(["run", cfg]))
    for graph in ({"kind": "sequential", "n": 2.5}, {"kind": "sequential", "n": True}):
        assert_usage_error(capsys, main(["run", run_config(tmp_path, graph=graph)]))
    # whole numbers written as floats are read as the same sizes and seeds
    written = []
    for problem in (lasso, dict(lasso, q=10.0, seed=3.0)):
        out = tmp_path / f"w{len(written)}.csv"
        assert main(["run", run_config(tmp_path, problem=problem), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_bench_malformed_value_exits_2(tmp_path, capsys):
    spec = {"graph": {"kind": "sequential", "n": 2},
            "problem": {"kind": "lasso", "q": "abc", "d": 10, "seed": 5},
            "relocator": "davis-yin", "budget": 50, "out_dir": str(tmp_path / "b")}
    assert_usage_error(capsys, main(["bench", write_json(tmp_path / "s1.json", spec)]))
    spec["problem"] = {"kind": "lasso", "q": 8, "d": 10, "seed": 5}
    method = {"name": "const", "schedule": {"variant": "constant"}}
    for key, value in (("budget", "lots"), ("fix_res_tol", "tight"), ("z0", 3),
                       ("record_every", [1]), ("budgte", 50),
                       ("methods", [dict(method, budget=50)]),
                       ("z0", {"kind": "normal", "seed": 1, "sd": 2.0}),
                       ("z0", {"kind": "normal", "seed": 1.5}),
                       ("problem", dict(spec["problem"], d=10.5)),
                       ("problem", dict(spec["problem"], seed=True)),
                       ("graph", {"kind": "sequential", "n": 2.5}),
                       ("budget", 2.5), ("record_every", 1.5)):
        cfg = write_json(tmp_path / "s2.json", dict(spec, **{key: value}))
        assert_usage_error(capsys, main(["bench", cfg]))
    assert not (tmp_path / "b").exists()


def test_bench_binding_mismatch_exits_2_before_the_reference(tmp_path, capsys):
    # the elastic net binds three resolvents; the n = 4 graph needs four
    spec = {"graphs": [{"kind": "sequential", "n": 3}, {"kind": "sequential", "n": 4}],
            "problem": {"kind": "elastic-net", "q": 10, "d": 8, "seed": 2, "n_corr": 1},
            "relocator": "auto", "budget": 100, "out_dir": str(tmp_path / "b")}
    assert_usage_error(capsys, main(["bench", write_json(tmp_path / "s.json", spec)]))
    assert not (tmp_path / "b").exists()


def test_bench_duplicate_csv_names_exit_2(tmp_path, capsys):
    spec = {"graph": {"kind": "sequential", "n": 2},
            "problem": {"kind": "lasso", "q": 8, "d": 10, "seed": 5},
            "relocator": "davis-yin", "budget": 50, "out_dir": str(tmp_path / "b"),
            "methods": [{"name": "m", "schedule": {"variant": "constant"}}] * 2}
    assert_usage_error(capsys, main(["bench", write_json(tmp_path / "s1.json", spec)]))
    # a CSV outside out_dir, one that summary.csv would overwrite, and names that are not
    # non-empty strings
    for name in ("sub/m", "summary", None, ["x"], 7, ""):
        one = dict(spec, methods=[{"name": name, "schedule": {"variant": "constant"}}])
        assert_usage_error(capsys, main(["bench", write_json(tmp_path / "s3.json", one)]))
    # two graphs of one kind get one CSV prefix
    del spec["graph"]
    spec.update(graphs=[{"kind": "sequential", "n": 2}] * 2, methods=spec["methods"][:1])
    assert_usage_error(capsys, main(["bench", write_json(tmp_path / "s2.json", spec)]))
    assert not (tmp_path / "b").exists()


def test_run_warns_on_unconverged_reference(tmp_path, capsys, monkeypatch):
    warning = "warning: reference run did not fully converge; metrics are approximate"
    # without the exact start (as where a tie breaks the homotopy) the reference run
    # starts at zero and stops after 20 iterations
    cfg = run_config(tmp_path, run={"max_iters": 50, "reference_budget": 1})
    with monkeypatch.context() as patch:
        patch.setattr(problems, "_exact_start", lambda *args: None)
        assert main(["run", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    assert warning in capsys.readouterr().out.splitlines()
    # else it starts at the exact minimiser and certifies at any budget, binding box or not
    for u in (5.0, 0.5):
        bound = {"kind": "lasso", "q": 10, "d": 15, "seed": 3, "lam": 0.01, "u": u}
        cfg = run_config(tmp_path, problem=bound, run={"max_iters": 50, "reference_budget": 1})
        assert main(["run", cfg, "--out", str(tmp_path / "r.csv")]) == 0
        assert warning not in capsys.readouterr().out
    cfg = run_config(tmp_path, run={"max_iters": 50})
    assert main(["run", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    assert warning not in capsys.readouterr().out


def test_failed_reference_run_exits_1(tmp_path, capsys, monkeypatch):
    aborted = driver.Trace(aborted="non-finite fix_res = nan at k=0")
    monkeypatch.setattr(driver, "run_davis_yin", lambda cfg, z0=None: aborted)
    failed = ["error: reference run failed: non-finite fix_res = nan at k=0"]
    spec = {"graph": {"kind": "sequential", "n": 2},
            "problem": {"kind": "lasso", "q": 8, "d": 10, "seed": 5},
            "relocator": "davis-yin", "budget": 50, "out_dir": str(tmp_path / "b")}
    assert main(["bench", write_json(tmp_path / "s.json", spec)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == failed and captured.out == ""
    assert not (tmp_path / "b").exists()
    cfg = run_config(tmp_path, run={"max_iters": 50, "reference_budget": 10})
    assert main(["run", cfg, "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == failed
    assert not (tmp_path / "r.csv").exists()


SMALL_BENCH = {"graph": {"kind": "sequential", "n": 2},
               "problem": {"kind": "lasso", "q": 8, "d": 10, "seed": 5},
               "relocator": "davis-yin", "budget": 50}


@pytest.mark.parametrize("raised", [KeyboardInterrupt(), MemoryError(),
                                    OSError(errno.EIO, "Input/output error")],
                         ids=["interrupt", "memory", "oserror-without-file"])
def test_failed_bench_removes_only_the_out_dir_it_made(tmp_path, capsys, monkeypatch, raised):
    # an error raised during the runs propagates out of main, not as an exit code (an
    # OSError that names no file included), and a bench removes an out_dir it made but
    # keeps one that was there, with its earlier files
    def failing(*args):
        raise raised

    monkeypatch.setattr("relsplit.cli.run_grid", failing)
    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    kept.mkdir()
    (kept / "earlier.csv").write_text("keep")
    for out_dir in (fresh, kept):
        spec = write_json(tmp_path / "spec.json", dict(SMALL_BENCH, out_dir=str(out_dir)))
        with pytest.raises(type(raised)):
            main(["bench", spec])
        assert capsys.readouterr().err == ""
    assert not fresh.exists()
    assert [p.name for p in kept.iterdir()] == ["earlier.csv"]
    assert (kept / "earlier.csv").read_text() == "keep"


@pytest.mark.parametrize("schedule, message", [
    ({"variant": "nope"}, "error: unknown schedule variant 'nope'"),
    ({"variant": "safeguard", "t_rule": "bogus"}, "error: unknown stepsize rule 'bogus'"),
    ({"variant": "constant", "t_rule": "bogus"}, "error: unknown stepsize rule 'bogus'")],
    ids=["variant", "safeguard-rule", "constant-rule"])
def test_misspelled_schedule_name_exits_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                                           schedule, message):
    # a misspelled name is a config error, refused when the document is read: bench
    # and run exit 2 with one error line, no out_dir or CSV, and solve nothing
    def no_solve(*args):
        raise AssertionError("reference solved for a misspelled schedule name")

    monkeypatch.setattr(problems, "reference_solution", no_solve)
    out_dir = tmp_path / "b"
    spec = dict(SMALL_BENCH, out_dir=str(out_dir), methods=[{"name": "m", "schedule": schedule}])
    assert main(["bench", write_json(tmp_path / "spec.json", spec)]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out_dir.exists()
    cfg = run_config(tmp_path, schedule=schedule, run={"max_iters": 50, "reference_budget": 10})
    assert main(["run", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not (tmp_path / "r.csv").exists()


def test_real_values_must_be_json_numbers(tmp_path, capsys):
    # a JSON boolean or numeric string is no real value: nothing is cast with float()
    lasso = {"kind": "lasso", "q": 10, "d": 15, "seed": 3, "lam": 0.01, "u": 5.0}
    elastic = {"kind": "elastic-net", "q": 10, "d": 8, "seed": 2, "n_corr": 1}
    problems_ = [dict(lasso, lam="0.01"), dict(lasso, lam=True), dict(lasso, u="5"),
                 dict(lasso, spectrum=[True, 2]), dict(lasso, spectrum=["0.5", 1.5]),
                 dict(elastic, lam1="0.01"), dict(elastic, lam2=False),
                 dict(elastic, noise_sd="0")]
    for problem in problems_:
        n = 3 if problem["kind"] == "elastic-net" else 2
        cfg = run_config(tmp_path, graph={"kind": "sequential", "n": n}, problem=problem,
                         relocator="auto")
        assert_usage_error(capsys, main(["run", cfg]))
    for run_doc in ({"max_iters": 20, "fix_res_tol": True},
                    {"max_iters": 20, "fix_res_tol": "1e-3"}):
        assert_usage_error(capsys, main(["run", run_config(tmp_path, run=run_doc)]))
    spec = {"graph": {"kind": "sequential", "n": 2},
            "problem": {"kind": "lasso", "q": 8, "d": 10, "seed": 5},
            "relocator": "davis-yin", "budget": 50, "out_dir": str(tmp_path / "b")}
    assert_usage_error(capsys, main(["bench", write_json(tmp_path / "s.json",
                                                         dict(spec, fix_res_tol=True))]))
    assert not (tmp_path / "b").exists()
    # a schedule's gamma: the message names the key
    for gamma in ("0.5", True):
        schedule = {"variant": "constant", "gamma": gamma}
        code = main(["run", run_config(tmp_path, schedule=schedule, run={"max_iters": 20}),
                     "--out", str(tmp_path / "bad.csv")])
        assert " gamma must be a number" in capsys.readouterr().err
        assert code == 2 and not (tmp_path / "bad.csv").exists()
    # a number that is not finite, or a spectrum of other than two numbers: the message
    # names the value
    for problem, key in ((dict(lasso, lam=float("inf")), "lam must be positive and finite"),
                         (dict(lasso, spectrum=[0.5, float("inf")]), "spectrum"),
                         (dict(lasso, spectrum=[0.5, 1.0, 1.5]), "spectrum"),
                         (dict(elastic, lam1=float("inf")), "lam1 must be positive and finite"),
                         (dict(elastic, lam2=float("inf")), "lam2 must be positive and finite")):
        n = 3 if problem["kind"] == "elastic-net" else 2
        cfg = run_config(tmp_path, graph={"kind": "sequential", "n": n}, problem=problem,
                         relocator="auto", run={"max_iters": 20})
        code = main(["run", cfg, "--out", str(tmp_path / "bad.csv")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2 and len(err) == 1 and key in err[0], err
        assert not (tmp_path / "bad.csv").exists()
    # u = inf is no box: it runs to a finite objective
    cfg = run_config(tmp_path, problem=dict(lasso, u=float("inf")), run={"max_iters": 20})
    assert main(["run", cfg, "--out", str(tmp_path / "nobox.csv")]) == 0
    assert np.isfinite(float(capsys.readouterr().out.split("objective=")[1].split()[0]))
    spec["methods"] = [{"name": "m", "schedule": {"variant": "constant", "gamma": "0.5"}}]
    assert_usage_error(capsys, main(["bench", write_json(tmp_path / "s.json", spec)]))
    assert not (tmp_path / "b").exists()
    # null stays where the field allows it
    schedule = {"variant": "safeguard", "gamma": None}
    assert main(["run", run_config(tmp_path, schedule=schedule, run={"max_iters": 20}),
                 "--out", str(tmp_path / "ok.csv")]) == 0
    # integers are numbers: "lam": 1 runs as 1.0
    written = []
    for lam in (1, 1.0):
        out = tmp_path / f"lam{len(written)}.csv"
        cfg = run_config(tmp_path, problem=dict(lasso, lam=lam), run={"max_iters": 20})
        assert main(["run", cfg, "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_validate_malformed_value_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "g.json", {"graph": {"kind": "sequential", "n": "two"}})
    assert_usage_error(capsys, main(["validate", cfg]))
    cfg = write_json(tmp_path / "g.json", {"graph": {"n": 3}})
    assert_usage_error(capsys, main(["validate", cfg]))
    for graph in ({"kind": "sequential", "n": 2.5}, {"kind": "inward-star", "n": True}):
        cfg = write_json(tmp_path / "g.json", {"graph": graph})
        assert_usage_error(capsys, main(["validate", cfg]))
    # kappa_form is no scheme key: an explicit scheme has no graph for the cheap relocators
    cfg = write_json(tmp_path / "s.json", {"scheme": dict(DY_SCHEME, kappa_form=True)})
    assert_usage_error(capsys, main(["validate", cfg]))
    cfg = write_json(tmp_path / "s.json", {"scheme": dict(DY_SCHEME, d="x")})
    assert_usage_error(capsys, main(["validate", cfg]))
    cfg = write_json(tmp_path / "s.json", {"scheme": dict(DY_SCHEME, M=[[float("nan")], [-1.0]])})
    assert_usage_error(capsys, main(["validate", cfg]))
    no_r = {key: value for key, value in DY_SCHEME.items() if key != "R"}
    cfg = write_json(tmp_path / "s.json", {"scheme": no_r})
    assert main(["validate", cfg]) == 2
    assert "missing key 'R'" in capsys.readouterr().err


def test_retired_keys_exit_2(tmp_path, capsys):
    # the zeta sequence, the safeguard's bounds, the LASSO split, the elastic-net scaling,
    # the z0 spread, the relaxation (theta, lambda and the margin floor) and the validation
    # tolerance are constants, and problems and graphs are generated: a document that
    # sets one of these keys names it and exits 2
    lasso = {"kind": "lasso", "q": 8, "d": 10, "seed": 5}
    elastic = {"kind": "elastic-net", "q": 10, "d": 8, "seed": 2, "n_corr": 1}
    inline = {"kind": "lasso", "A": [[1.0, 0.5], [0.0, 1.0]], "b": [1.0, 1.0], "lam": 0.1,
              "u": 5.0}
    safeguard = {"variant": "safeguard", "t_rule": "norm-ratio"}
    for key, section, value in (("zeta_coeff", "schedule", dict(safeguard, zeta_coeff=0.1)),
                                ("zeta_power", "schedule", dict(safeguard, zeta_power=1.5)),
                                ("zeta_first_unit", "schedule",
                                 dict(safeguard, zeta_first_unit=False)),
                                ("half_quadratic", "problem", dict(lasso, half_quadratic=True)),
                                ("normalize", "problem", dict(elastic, normalize=True)),
                                ("scale", "z0", {"kind": "normal", "seed": 0, "scale": 1.0}),
                                ("relaxation", "relaxation",
                                 {"theta": 1.0, "lam": None, "margin_floor": 1e-3}),
                                ("gamma_min", "schedule", dict(safeguard, gamma_min=None)),
                                ("gamma_max", "schedule", dict(safeguard, gamma_max=None)),
                                ("A", "problem", inline),
                                ("arcs", "graph", {"n": 2, "arcs": [[1, 2]]})):
        problem = value if section == "problem" else lasso
        schedule = value if section == "schedule" else safeguard
        z0 = value if section == "z0" else {"kind": "zero"}
        graph = {"kind": "sequential", "n": 3 if problem is elastic else 2}
        base = {"graph": value if section == "graph" else graph,
                "problem": problem, "relocator": "auto"}
        if section == "relaxation":
            base[section] = value
        run_doc = dict(base, schedule=schedule, run={"max_iters": 20, "z0": z0})
        spec = dict(base, z0=z0, budget=50, out_dir=str(tmp_path / "b"),
                    methods=[{"name": "m", "schedule": schedule}])
        for argv in (["run", write_json(tmp_path / "r.json", run_doc),
                      "--out", str(tmp_path / "r.csv")],
                     ["bench", write_json(tmp_path / "s.json", spec)]):
            code = main(argv)
            err = capsys.readouterr().err.strip().splitlines()
            assert code == 2 and len(err) == 1 and repr(key) in err[0], (key, err)
        assert not (tmp_path / "r.csv").exists() and not (tmp_path / "b").exists()
    code = main(["validate", write_json(tmp_path / "v.json", {"scheme": DY_SCHEME, "tol": 1e-10})])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(err) == 1 and "'tol'" in err[0], err


def test_graph_n_is_checked_before_the_graph_is_built(tmp_path, capsys, monkeypatch):
    # a LASSO binds 2 resolvents; a graph of n = 100000 would build 75 GiB of n x n
    # matrices before the binding check, so run and bench compare n first, and validate,
    # which has no problem, refuses an n above MAX_GRAPH_N
    real_canonical, real_scheme = graphmod.canonical, graphmod.scheme_from_graph

    def canonical(kind, n):
        assert n <= 50, f"built a canonical graph of n = {n}"
        return real_canonical(kind, n)

    def scheme_from_graph(g):
        assert g.n <= 50, f"built a scheme of n = {g.n}"
        return real_scheme(g)

    monkeypatch.setattr(graphmod, "canonical", canonical)
    monkeypatch.setattr(graphmod, "scheme_from_graph", scheme_from_graph)
    n = 100_000
    for graph in ({"kind": "sequential", "n": n}, {"kind": "inward-star", "n": 1e5}):
        out = tmp_path / "r.csv"
        assert main(["run", run_config(tmp_path, graph=graph), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: scheme has n = {n} but 2 resolvents given\n"
        assert not out.exists()
    spec = {"graphs": [{"kind": "sequential", "n": 2}, {"kind": "outward-star", "n": n}],
            "problem": {"kind": "lasso", "q": 8, "d": 10, "seed": 5}, "relocator": "auto",
            "budget": 50, "out_dir": str(tmp_path / "b")}
    assert main(["bench", write_json(tmp_path / "s.json", spec)]) == 2
    assert capsys.readouterr().err == f"error: scheme has n = {n} but 2 resolvents given\n"
    assert not (tmp_path / "b").exists()
    # a small graph that does not match gets the same message
    assert main(["run", run_config(tmp_path, graph={"kind": "sequential", "n": 5})]) == 2
    assert capsys.readouterr().err == "error: scheme has n = 5 but 2 resolvents given\n"
    refused = f"error: graph n = {n} is above the bound MAX_GRAPH_N = 1000\n"
    for doc in ({"graph": {"kind": "sequential", "n": n}}, spec):
        assert main(["validate", write_json(tmp_path / "v.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.err == refused and captured.out == ""
    # n = MAX_GRAPH_N validates, one more is refused
    monkeypatch.setattr(config, "MAX_GRAPH_N", 40)
    for size, code in ((40, 0), (41, 2)):
        assert main(["validate", write_json(tmp_path / "v.json",
                                            {"graph": {"kind": "sequential", "n": size}})]) == code
    assert capsys.readouterr().err == "error: graph n = 41 is above the bound MAX_GRAPH_N = 40\n"


def test_validate_refuses_a_scheme_that_does_not_match_its_problem(tmp_path, capsys):
    # the error run and bench give: a LASSO binds 2 resolvents and an elastic net 3
    lasso = {"kind": "lasso", "q": 8, "d": 10, "seed": 5}
    elastic = {"kind": "elastic-net", "q": 10, "d": 8, "seed": 2}
    bench = {"graphs": [{"kind": "sequential", "n": 3}, {"kind": "inward-star", "n": 4}],
             "problem": elastic, "budget": 50, "out_dir": str(tmp_path / "b")}
    for doc, message in (({"graph": {"kind": "sequential", "n": 5}, "problem": lasso},
                          "scheme has n = 5 but 2 resolvents given"),
                         (bench, "scheme has n = 4 but 3 resolvents given"),
                         ({"scheme": DY_SCHEME, "problem": elastic},
                          "scheme has n = 2 but 3 resolvents given")):
        assert main(["validate", write_json(tmp_path / "v.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not (tmp_path / "b").exists()
    # the same documents with a matching problem or graph validate
    for doc in ({"graph": {"kind": "sequential", "n": 2}, "problem": lasso},
                dict(bench, graphs=bench["graphs"][:1]), {"scheme": DY_SCHEME, "problem": lasso}):
        assert main(["validate", write_json(tmp_path / "v.json", doc)]) == 0
        assert capsys.readouterr().out.count("PASS") == 6


def test_empty_graphs_list_exits_2(tmp_path, capsys):
    spec = {"graphs": [], "problem": {"kind": "lasso", "q": 8, "d": 10, "seed": 5},
            "budget": 50, "out_dir": str(tmp_path / "b")}
    for command in ("validate", "bench", "run"):
        code = main([command, write_json(tmp_path / "s.json", spec)])
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert code == 2 and len(err) == 1 and "graphs" in err[0], err
        assert captured.out == ""
    assert not (tmp_path / "b").exists()


def test_schedule_section_rejects_unknown_keys(tmp_path, capsys):
    doc = {"graph": {"kind": "sequential", "n": 2}, "problem": {"kind": "lasso", "q": 4, "d": 5},
           "schedule": {"variant": "safeguard", "t_rule": "harmonic"}}
    assert config.build_run(doc)[0].schedule.t_rule == "harmonic"
    # accel_gap and safety are module constants, not schedule keys
    for key, value in (("stepsize", 1.0), ("accel_gap", 0.01), ("safety", 0.99)):
        cfg = run_config(tmp_path, schedule={"variant": "safeguard", key: value})
        assert_usage_error(capsys, main(["run", cfg]))
    spec = {"graph": {"kind": "sequential", "n": 2},
            "problem": {"kind": "lasso", "q": 8, "d": 10, "seed": 5},
            "relocator": "davis-yin", "budget": 50, "out_dir": str(tmp_path / "b"),
            "methods": [{"name": "m", "schedule": {"variant": "constant", "safety": 0.9}}]}
    assert_usage_error(capsys, main(["bench", write_json(tmp_path / "s.json", spec)]))
    assert not (tmp_path / "b").exists()


def test_nonfinite_problem_data_exits_2(tmp_path, capsys):
    # an infinite noise spread gives a non-finite b
    elastic = {"kind": "elastic-net", "q": 10, "d": 8, "seed": 2, "noise_sd": float("inf")}
    cfg = run_config(tmp_path, graph={"kind": "sequential", "n": 3}, problem=elastic,
                     relocator="auto")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "problem data b must be finite" in err and "gamma" not in err
    # finite entries whose Gram matrix overflows: beta is not finite
    spec = {"graph": {"kind": "sequential", "n": 2},
            "problem": {"kind": "lasso", "q": 2, "d": 2, "seed": 2, "spectrum": [1e200, 1e200]},
            "relocator": "davis-yin", "budget": 50, "out_dir": str(tmp_path / "b")}
    assert_usage_error(capsys, main(["bench", write_json(tmp_path / "s.json", spec)]))
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("path", sorted(DEMO_CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_bundled_configs_build_and_validate(path, monkeypatch, capsys):
    # a reference solve is not part of reading a config; skip its 20x-budget run
    monkeypatch.setattr(problems, "reference_solution",
                        lambda prob, budget: problems.Reference(np.zeros(prob.dim), 1.0, False))
    doc = json.loads(path.read_text())
    if path.name.startswith("bench_"):
        assert config.build_bench(doc)[0]
    elif "problem" in doc:
        config.build_run(doc)
    assert main(["validate", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


# A small run config and bench spec, and the places a fuzzed document changes: every
# key they have, plus unknown and retired keys. A slot is the path of keys and list
# indices to one value; a path through a value that an earlier mutation replaced is
# skipped. Counts and sizes only ever get values that are not numbers, not whole, <= 0
# or <= 50, so that no example allocates much or runs long.
FUZZ_RUN = {
    "graph": {"kind": "sequential", "n": 2},
    "problem": {"kind": "lasso", "q": 10, "d": 15, "seed": 3, "lam": 0.01, "u": 5.0,
                "spectrum": [0.5, 1.5]},
    "relocator": "auto",
    "schedule": {"variant": "safeguard", "t_rule": "norm-ratio", "gamma": None},
    "run": {"max_iters": 30, "fix_res_tol": 1e-9, "record_every": 10,
            "z0": {"kind": "normal", "seed": 0}, "reference_budget": 5},
}
FUZZ_SLOTS = [(section, key) if key else (section,) for section, body in FUZZ_RUN.items()
              for key in (body if isinstance(body, dict) else [None])]
FUZZ_SLOTS += [("run", "z0", "kind"), ("run", "z0", "seed"), ("graph", "arcs"),
               ("problem", "A"), ("problem", "n_corr"), ("bogus",), ("relaxation",),
               ("tol",), ("schedule", "zeta_coeff"), ("problem", "half_quadratic"),
               ("run", "z0", "scale"), ("graph", "bogus"), ("schedule", "bogus")]
FUZZ_BENCH = {
    "graphs": [{"kind": "sequential", "n": 2}],
    "problem": {"kind": "lasso", "q": 8, "d": 10, "seed": 5, "lam": 0.02, "u": 5.0},
    "relocator": "auto",
    "z0": {"kind": "normal", "seed": 0},
    "budget": 30,
    "fix_res_tol": 1e-9,
    "record_every": 10,
    "methods": [{"name": "const", "schedule": {"variant": "constant", "gamma": None}},
                {"name": "fpr", "schedule": {"variant": "safeguard", "t_rule": "norm-ratio"}}],
}
FUZZ_BENCH_SLOTS = [(key,) for key in FUZZ_BENCH]
FUZZ_BENCH_SLOTS += [("graphs", 0, "kind"), ("graphs", 0, "n"), ("graphs", 0, "arcs"),
                     ("problem", "q"), ("problem", "d"), ("problem", "kind"), ("problem", "A"),
                     ("z0", "seed"), ("z0", "scale"), ("methods", 0, "name"),
                     ("methods", 0, "schedule"), ("methods", 0, "budget"),
                     ("methods", 0, "schedule", "variant"), ("methods", 0, "schedule", "gamma"),
                     ("methods", 1, "schedule", "t_rule"), ("methods", 1, "schedule", "gamma"),
                     ("methods", 1, "schedule", "gamma_min"),
                     ("methods", 1, "schedule", "gamma_max"), ("bogus",), ("tol",),
                     ("relaxation",), ("graph",)]
FUZZ_VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "x", "1", "auto", "lasso", "elastic-net",
                     "constant", "safeguard", "harmonic", "accel", "general", "sequential",
                     "inward-star", [], [1, 2], [[1, 2]], [0.5, float("nan")], {},
                     float("nan"), float("inf"), float("-inf"), 0, 0.0, -0.0, -1, 2.5, 1e-300]),
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-50.0, max_value=50.0))


def _fuzzed(base, mutations):
    doc = copy.deepcopy(base)
    for (*path, key), value in mutations:
        target = doc
        for name in path:
            try:
                target = target[name]
            except (KeyError, IndexError, TypeError):
                break
        else:
            if isinstance(target, dict):
                target[key] = value
    return doc


def assert_exit_0_1_or_2(argv, doc, written):
    """``main(argv)`` returns 0, 1 or 2; exit 2 is one error line and ``written`` absent."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (doc, code)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (doc, lines)
        assert not written.exists(), doc


@given(st.lists(st.tuples(st.sampled_from(FUZZ_SLOTS), FUZZ_VALUES), min_size=1, max_size=2))
@settings(max_examples=150, deadline=None)
def test_mutated_run_config_exits_0_1_or_2(mutations):
    # wrong JSON types, NaN, +-inf, 0, negatives, unknown and retired keys: the command
    # returns 0, 1 or 2 and never raises, and exit 2 is one error line and no CSV
    doc = _fuzzed(FUZZ_RUN, mutations)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        assert_exit_0_1_or_2(["run", write_json(Path(tmp) / "cfg.json", doc), "--out", str(out)],
                             doc, out)


@given(st.lists(st.tuples(st.sampled_from(FUZZ_BENCH_SLOTS), FUZZ_VALUES),
                min_size=1, max_size=2))
@settings(max_examples=100, deadline=None)
def test_mutated_bench_spec_exits_0_1_or_2(mutations):
    # the graphs list, the methods and their schedules, the limits and retired keys: the
    # command returns 0, 1 or 2 and never raises, and exit 2 is one error line and no
    # out_dir
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "bench"
        doc = _fuzzed(dict(FUZZ_BENCH, out_dir=str(out_dir)), mutations)
        assert_exit_0_1_or_2(["bench", write_json(Path(tmp) / "spec.json", doc)], doc, out_dir)
