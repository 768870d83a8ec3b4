import csv
import json
from pathlib import Path

import numpy as np
import pytest

from relsplit import config, driver, problems
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


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/cfg.json"]) == 2


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
    cfg = run_config(tmp_path, relaxation={"lam": 1.5, "theta": 1.0})
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


def test_bench_reference_shares_the_split_flavour(tmp_path):
    # the unhalved split converges to the unhalved objective's minimiser; so
    # must the reference, or a converged method reports rel_err_f ~ 1e-2
    spec = {
        "graph": {"kind": "sequential", "n": 2},
        "problem": {"kind": "lasso", "q": 8, "d": 10, "seed": 5, "lam": 0.02, "u": 5.0,
                    "half_quadratic": False},
        "relocator": "davis-yin",
        "budget": 2000,
        "out_dir": str(tmp_path / "bench"),
        "methods": [{"name": "const", "schedule": {"variant": "constant"}}],
    }
    assert main(["bench", write_json(tmp_path / "spec.json", spec)]) == 0
    [row] = (tmp_path / "bench" / "summary.csv").read_text().splitlines()[1:]
    cells = row.split(",")
    assert cells[1] == "True" and float(cells[6]) < 1e-6, row


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


def test_run_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert_usage_error(capsys, main(["run", run_config(tmp_path), "--out", str(out)]))
    assert not out.parent.exists()


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


def assert_usage_error(capsys, code):
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_run_malformed_value_exits_2(tmp_path, capsys):
    bad = {"kind": "lasso", "q": "abc", "d": 15, "seed": 3, "lam": 0.01, "u": 5.0}
    assert_usage_error(capsys, main(["run", run_config(tmp_path, problem=bad)]))
    cfg = run_config(tmp_path, run={"max_iters": "many"})
    assert_usage_error(capsys, main(["run", cfg]))
    cfg = run_config(tmp_path, relaxation={"theta": 1.0, "omega": 2.0})
    assert_usage_error(capsys, main(["run", cfg]))
    cfg = run_config(tmp_path, schedule={"variant": "constant", "gamma": 1e9})
    assert_usage_error(capsys, main(["run", cfg]))
    cfg = run_config(tmp_path, schedule={"variant": "safeguard", "zeta_power": float("nan")})
    assert_usage_error(capsys, main(["run", cfg]))
    cfg = run_config(tmp_path, schedul={"variant": "constant"})
    assert_usage_error(capsys, main(["run", cfg]))
    for key in ("theta", "margin_floor", "lam"):
        cfg = run_config(tmp_path, relaxation={key: float("inf")})
        assert_usage_error(capsys, main(["run", cfg]))
    cfg = run_config(tmp_path, run={"z0": {"kind": "normal", "scale": float("nan")}})
    assert_usage_error(capsys, main(["run", cfg]))
    # limits: a finite tolerance and whole counts, never truncated
    for run_doc in ({"max_iters": 20, "fix_res_tol": float("inf")}, {"max_iters": 2.5},
                    {"record_every": 1.5}, {"max_iters": 20, "reference_budget": 2.5},
                    {"max_iters": 5, "reference_budget": False},
                    {"max_iters": 5, "reference_budget": ""},
                    {"max_iters": 5, "reference_budget": []},
                    {"max_iters": 20, "z0": {"kind": "normal", "seed": 1.5}},
                    {"max_iters": 20, "z0": {"kind": "normal", "seed": -1}}):
        assert_usage_error(capsys, main(["run", run_config(tmp_path, run=run_doc)]))
    # sizes and seeds are whole numbers, flags JSON booleans: nothing is truncated or cast
    lasso = {"kind": "lasso", "q": 10, "d": 15, "seed": 3, "lam": 0.01, "u": 5.0}
    elastic = {"kind": "elastic-net", "q": 10, "d": 8, "seed": 2, "n_corr": 1}
    for problem in (dict(lasso, q=20.7), dict(lasso, d=30.5), dict(lasso, seed=2.9),
                    dict(lasso, q=True), dict(lasso, seed=False), dict(lasso, q=0),
                    dict(lasso, half_quadratic="false"), dict(lasso, half_quadratic=0),
                    dict(elastic, n_corr=1.5), dict(elastic, n_corr=True),
                    dict(elastic, normalize="no")):
        cfg = run_config(tmp_path, graph={"kind": "sequential", "n": 3} if "n_corr" in problem
                         else {"kind": "sequential", "n": 2}, problem=problem,
                         relocator="auto")
        assert_usage_error(capsys, main(["run", cfg]))
    for graph in ({"kind": "sequential", "n": 2.5}, {"kind": "sequential", "n": True},
                  {"n": 2.0000001, "arcs": [[1, 2]]}):
        assert_usage_error(capsys, main(["run", run_config(tmp_path, graph=graph)]))
    cfg = run_config(tmp_path, schedule={"variant": "safeguard", "zeta_first_unit": "no"})
    assert_usage_error(capsys, main(["run", cfg]))
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
                       ("z0", {"kind": "normal", "scale": float("nan")}),
                       ("z0", {"kind": "normal", "seed": 1.5}),
                       ("problem", dict(spec["problem"], d=10.5)),
                       ("problem", dict(spec["problem"], seed=True)),
                       ("problem", dict(spec["problem"], half_quadratic="false")),
                       ("methods", [{"name": "m", "schedule": {"variant": "safeguard",
                                                               "zeta_first_unit": 1}}]),
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
    # every arc-list graph gets the CSV prefix "graph"
    del spec["graph"]
    spec.update(graphs=[{"n": 2, "arcs": [[1, 2]]}] * 2, methods=spec["methods"][:1])
    assert_usage_error(capsys, main(["bench", write_json(tmp_path / "s2.json", spec)]))
    assert not (tmp_path / "b").exists()


def test_run_warns_on_unconverged_reference(tmp_path, capsys):
    warning = "warning: reference run did not fully converge; metrics are approximate"
    # a duplicated column breaks the homotopy: the reference run starts at zero
    # and stops after 20 iterations
    prob = problems.gen_lasso(10, 15, 6, lam=0.01, u=5.0)
    A = prob.A.copy()
    A[:, 0] = A[:, 1]
    inline = {"kind": "lasso", "A": A.tolist(), "b": prob.b.tolist(), "lam": 0.01, "u": 5.0}
    cfg = run_config(tmp_path, problem=inline, run={"max_iters": 50, "reference_budget": 1})
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


def test_real_values_must_be_json_numbers(tmp_path, capsys):
    # a JSON boolean or numeric string is no real value: nothing is cast with float()
    lasso = {"kind": "lasso", "q": 10, "d": 15, "seed": 3, "lam": 0.01, "u": 5.0}
    elastic = {"kind": "elastic-net", "q": 10, "d": 8, "seed": 2, "n_corr": 1}
    inline = {"kind": "elastic-net", "A": [[1.0, 0.5], [0.0, 1.0]], "b": [1.0, 1.0],
              "lam1": 0.1, "lam2": 0.1}
    problems_ = [dict(lasso, lam="0.01"), dict(lasso, lam=True), dict(lasso, u="5"),
                 dict(lasso, spectrum=[True, 2]), dict(lasso, spectrum=["0.5", 1.5]),
                 dict(elastic, lam1="0.01"), dict(elastic, lam2=False),
                 dict(elastic, noise_sd="0"), dict(inline, lam1=True), dict(inline, lam2="1")]
    for problem in problems_:
        n = 3 if problem["kind"] == "elastic-net" else 2
        cfg = run_config(tmp_path, graph={"kind": "sequential", "n": n}, problem=problem,
                         relocator="auto")
        assert_usage_error(capsys, main(["run", cfg]))
    for run_doc in ({"max_iters": 20, "fix_res_tol": True},
                    {"max_iters": 20, "fix_res_tol": "1e-3"},
                    {"max_iters": 20, "z0": {"kind": "normal", "scale": "2"}},
                    {"max_iters": 20, "z0": {"kind": "normal", "scale": True}}):
        assert_usage_error(capsys, main(["run", run_config(tmp_path, run=run_doc)]))
    spec = {"graph": {"kind": "sequential", "n": 2},
            "problem": {"kind": "lasso", "q": 8, "d": 10, "seed": 5},
            "relocator": "davis-yin", "budget": 50, "out_dir": str(tmp_path / "b")}
    for key, value in (("fix_res_tol", True), ("z0", {"kind": "normal", "scale": "1"})):
        assert_usage_error(capsys, main(["bench", write_json(tmp_path / "s.json",
                                                             dict(spec, **{key: value}))]))
    assert not (tmp_path / "b").exists()
    for tol in (True, "1e-10"):
        cfg = write_json(tmp_path / "v.json", {"scheme": DY_SCHEME, "tol": tol})
        assert_usage_error(capsys, main(["validate", cfg]))
    # schedule and relaxation values, and inline A and b entries: the message names the key
    inline_lasso = {"kind": "lasso", "A": [["1", True], [0, 1]], "b": ["1", 2], "lam": 0.1,
                    "u": 5.0}
    elastic_graph = {"graph": {"kind": "sequential", "n": 3}, "relocator": "auto"}
    for overrides, key in (
            ({"schedule": {"variant": "constant", "gamma": "0.5"}}, "gamma"),
            ({"schedule": {"variant": "safeguard", "zeta_coeff": True}}, "zeta_coeff"),
            ({"schedule": {"variant": "safeguard", "gamma_max": "1"}}, "gamma_max"),
            ({"relaxation": {"theta": "1"}}, "theta"),
            ({"relaxation": {"lam": True}}, "lam"),
            ({"relaxation": {"margin_floor": None}}, "margin_floor"),
            ({"problem": inline_lasso}, "A entry"),
            ({"problem": dict(inline_lasso, A=[[1, 0], [0, 1]])}, "b entry"),
            ({"problem": dict(inline, b=[1.0, False]), **elastic_graph}, "b entry")):
        code = main(["run", run_config(tmp_path, run={"max_iters": 20}, **overrides),
                     "--out", str(tmp_path / "bad.csv")])
        assert f" {key} must be a number" in capsys.readouterr().err
        assert code == 2 and not (tmp_path / "bad.csv").exists()
    spec["methods"] = [{"name": "m", "schedule": {"variant": "constant", "gamma": "0.5"}}]
    assert_usage_error(capsys, main(["bench", write_json(tmp_path / "s.json", spec)]))
    assert not (tmp_path / "b").exists()
    # null stays where the field allows it
    for section, value in (("schedule", {"variant": "safeguard", "gamma": None, "gamma_max": None}),
                           ("relaxation", {"lam": None})):
        assert main(["run", run_config(tmp_path, **{section: value}, run={"max_iters": 20}),
                     "--out", str(tmp_path / "ok.csv")]) == 0
    # arc endpoints are whole numbers: [1, 2.7] is no arc (1, 2)
    for arcs in ([[1, 2.7]], [[1, True]], [["1", 2]]):
        graph = {"n": 2, "arcs": arcs}
        assert_usage_error(capsys, main(["run", run_config(tmp_path, graph=graph)]))
        assert_usage_error(capsys, main(["validate", write_json(tmp_path / "g.json",
                                                                {"graph": graph})]))
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
    cfg = write_json(tmp_path / "s.json", {"scheme": DY_SCHEME, "tol": "tight"})
    assert_usage_error(capsys, main(["validate", cfg]))
    for graph in ({"kind": "sequential", "n": 2.5}, {"kind": "inward-star", "n": True},
                  {"n": 3.5, "arcs": [[1, 2], [2, 3]]}):
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
    inline = {"kind": "lasso", "A": [[float("nan"), 1.0]], "b": [1.0], "lam": 0.1, "u": 5.0}
    assert main(["run", run_config(tmp_path, problem=inline)]) == 2
    err = capsys.readouterr().err
    assert "problem data A must be finite" in err and "gamma" not in err
    # finite entries whose Gram matrix overflows: beta is not finite
    spec = {"graph": {"kind": "sequential", "n": 2},
            "problem": {"kind": "lasso", "A": [[1e200, 1.0], [0.0, 1e200]], "b": [1.0, 1.0],
                        "lam": 0.1, "u": 5.0},
            "relocator": "davis-yin", "budget": 50, "out_dir": str(tmp_path / "b")}
    assert_usage_error(capsys, main(["bench", write_json(tmp_path / "s.json", spec)]))
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("path", sorted(DEMO_CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_bundled_configs_build_and_validate(path, monkeypatch, capsys):
    # a reference solve is not part of reading a config; skip its 20x-budget run
    monkeypatch.setattr(problems, "reference_solution",
                        lambda prob, budget, half_quadratic=True:
                        problems.Reference(np.zeros(prob.dim), 1.0, False))
    doc = json.loads(path.read_text())
    if path.name.startswith("bench_"):
        assert config.build_bench(doc)[0]
    elif "problem" in doc:
        config.build_run(doc)
    assert main(["validate", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
