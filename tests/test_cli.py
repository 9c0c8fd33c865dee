import csv
import io
import json
from fractions import Fraction as F

import pytest

from symrank import genfun, oracle, prob
from symrank.cli import dec12, main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_prob_known_point(capsys):
    rc, out, _ = run_cli(capsys, "prob", "--n", "2", "--m", "4")
    assert rc == 0
    assert "P = 11/16" in out
    assert "Q = 5/16" in out


def test_prob_composite_modulus(capsys):
    rc, out, _ = run_cli(capsys, "prob", "--n", "2", "--m", "12", "--json")
    assert rc == 0
    rec = json.loads(out)
    assert (rec["Q_num"], rec["Q_den"]) == ("5", "48")
    assert rec["p"] is None and rec["mu"] is None
    assert rec["route"] == "multiplicative"


def test_prob_boundary_point(capsys):
    rc, out, _ = run_cli(capsys, "prob", "--n", "0", "--m", "7")
    assert rc == 0
    assert "P = 1/1" in out


def test_prob_routes_agree(capsys):
    values = set()
    for route in ("recurrence5", "recurrence3", "explicit", "genfun"):
        rc, out, _ = run_cli(capsys, "prob", "--n", "5", "--m", "9", "--route", route, "--json")
        assert rc == 0
        rec = json.loads(out)
        values.add((rec["P_num"], rec["P_den"]))
    assert len(values) == 1


def test_prob_bad_arguments_exit_2(capsys):
    rc, _, err = run_cli(capsys, "prob", "--n", "2", "--m", "1")
    assert rc == 2
    assert "error" in err
    rc, _, err = run_cli(capsys, "sample", "--n", "3", "--m", "4", "--trials", "3",
                         "--seed", "1", "--workers", "4")
    assert rc == 2
    assert "workers" in err
    rc, _, err = run_cli(capsys, "sample", "--n", "2", "--m", str(2**63 + 1), "--trials", "3",
                         "--seed", "1")
    assert rc == 2
    assert "2**63" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["prob", "--n", "2"])  # missing --m
    assert exc.value.code == 2


def test_table_csv_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    rc, _, _ = run_cli(
        capsys, "table", "--p", "2", "--n-max", "4", "--mu-max", "3",
        "--format", "csv", "--out", str(out_file),
    )
    assert rc == 0
    text = out_file.read_text(encoding="utf-8")
    assert text.endswith("\n")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 15  # n in 0..4, mu in 1..3
    seen = {}
    for row in rows:
        n, mu = int(row["n"]), int(row["mu"])
        assert int(row["m"]) == 2**mu
        p_frac = F(int(row["P_num"]), int(row["P_den"]))
        q_frac = F(int(row["Q_num"]), int(row["Q_den"]))
        assert p_frac + q_frac == 1
        seen[(n, mu)] = p_frac
    assert seen[(1, 1)] == F(1, 2)
    assert seen[(2, 1)] == F(1, 2)
    assert seen[(2, 2)] == F(11, 16)


def test_table_header_order(capsys):
    rc, out, _ = run_cli(capsys, "table", "--p", "3", "--n-max", "1", "--mu-max", "1")
    assert rc == 0
    assert out.splitlines()[0] == "n,p,mu,m,P_num,P_den,Q_num,Q_den,P_dec,Q_dec"


def test_table_json_lines(capsys):
    rc, out, _ = run_cli(capsys, "table", "--p", "2", "--n-max", "2", "--mu-max", "2", "--format", "json")
    assert rc == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) == 6
    assert all(isinstance(r["P_num"], str) for r in recs)


def test_table_rejects_composite_p(capsys):
    rc, _, err = run_cli(capsys, "table", "--p", "6", "--n-max", "2", "--mu-max", "2")
    assert rc == 2
    assert "not prime" in err


def test_table_unwritable_output(capsys):
    rc, _, err = run_cli(
        capsys, "table", "--p", "2", "--n-max", "1", "--mu-max", "1",
        "--out", "/nonexistent-dir/table.csv",
    )
    assert rc == 2


def test_verify_suites_pass(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--n-max", "8", "--mu-max", "4",
        "--p-list", "2,3",
    )
    assert rc == 0
    assert "verify: OK" in out
    assert "FAIL" not in out


def test_verify_oracle_lists_grid_points(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--suite", "oracle")
    assert rc == 0
    for n, m in [(1, 2), (2, 12), (4, 2)]:
        assert f"(n={n}, m={m})" in out


def test_verify_rejects_bad_p_list(capsys):
    rc, _, err = run_cli(capsys, "verify", "--suite", "crossroute", "--p-list", "2,4")
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "crossroute", "--p-list", ""),
        ("verify", "--suite", "crossroute", "--p-list", ","),
        ("verify", "--suite", "crossroute", "--n-max", "-1"),
        ("verify", "--suite", "bounds", "--n-max", "0"),
        ("verify", "--suite", "all", "--n-max", "0"),
        ("verify", "--suite", "bounds", "--mu-max", "0"),
        ("table", "--p", "2", "--n-max", "-1", "--mu-max", "1"),
        ("table", "--p", "2", "--n-max", "2", "--mu-max", "0"),
    ],
)
def test_empty_grid_exits_2(capsys, argv):
    # a grid with no point would print verify: OK (or a bare CSV header) having checked nothing
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "budget,argv,where",
    [
        ("100", ("verify", "--suite", "all", "--n-max", "2", "--mu-max", "1", "--p-list", "2"), "(n=3, m=4), 4096 "),
        ("100", ("verify", "--suite", "oracle"), "(n=3, m=4), 4096 "),
        ("100", ("verify", "--suite", "detdist"), "(n=3, m=3), 729 "),
        ("728", ("verify", "--suite", "detdist"), "(n=3, m=3), 729 "),
    ],
)
def test_verify_over_budget_exits_2_before_any_line(capsys, monkeypatch, budget, argv, where):
    # the largest sweep is checked first, so no suite stops after some PASS lines
    monkeypatch.setenv("SYMRANK_BUDGET", budget)
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert len(err.strip().splitlines()) == 1
    assert where in err and f"budget is {budget}" in err


@pytest.mark.parametrize(
    "budget,suite",
    [("0", "crossroute"), ("0", "bounds"), ("0", "monotone"), ("0", "genfun"), ("729", "detdist")],
)
def test_verify_runs_suites_within_budget(capsys, monkeypatch, budget, suite):
    monkeypatch.setenv("SYMRANK_BUDGET", budget)
    rc, out, _ = run_cli(capsys, "verify", "--suite", suite, "--n-max", "2", "--mu-max", "1", "--p-list", "2")
    assert rc == 0 and out.endswith("verify: OK\n")


def test_verify_failure_exits_1_with_counterexample(capsys, monkeypatch):
    import symrank.cli as cli_mod

    broken = cli_mod.prob.p_recurrence3

    def lying_route(n, p, mu):
        val = broken(n, p, mu)
        return val + F(1, 10**9) if (n, p, mu) == (3, 2, 2) else val

    monkeypatch.setattr(cli_mod.prob, "p_recurrence3", lying_route)
    rc, out, _ = run_cli(capsys, "verify", "--suite", "crossroute", "--n-max", "4",
                         "--mu-max", "3", "--p-list", "2")
    assert rc == 1
    assert "FAIL crossroute" in out
    assert "n=3 p=2 mu=2" in out
    assert "verify: FAILED" in out


def test_verify_monotone_violation_exits_1(capsys, monkeypatch):
    import symrank.cli as cli_mod

    for bad, want in [((3, 2, "n"), "P(4,2^2) > P(3,2^2)"), ((3, 2, "mu"), "P(3,2^2) > P(3,2^3)")]:
        monkeypatch.setattr(cli_mod.prob, "monotonicity_violation", lambda n_max, p, mu_max: bad)
        rc, out, _ = run_cli(capsys, "verify", "--suite", "monotone", "--p-list", "2")
        assert rc == 1
        assert f"FAIL monotone: {want}" in out
        assert "verify: FAILED" in out


# One row per suite: a function the suite calls, patched to lie at a prime or
# grid point after the first PASS line, and the counterexample FAIL must name.
FAIL_ROWS = [
    ("crossroute", prob, "p_recurrence3",
     lambda f: lambda n, p, mu: f(n, p, mu) + (F(1, 10**9) if p == 3 else 0), "n=1 p=3 mu=1"),
    ("oracle", oracle, "exhaustive",
     lambda f: lambda n, m, budget: f(n, 3 if m == 9 else m, budget), "(n=2, m=9)"),
    ("bounds", prob, "r_term", lambda f: lambda n, p, mu: -1 if p == 3 else f(n, p, mu), "R < 0 at n=1 p=3 mu=1"),
    ("monotone", prob, "monotonicity_violation",
     lambda f: lambda n_max, p, mu_max: (3, 2, "n") if p == 3 else f(n_max, p, mu_max), "P(4,3^2) > P(3,3^2)"),
    ("genfun", genfun, "verify_odd_step", lambda f: lambda k, q: q != F(1, 3) and f(k, q), "k=0 q=1/3"),
    ("detdist", prob, "det_value_prob",
     lambda f: lambda n, p, d: f(n, p, d) + (F(1, 10**9) if p == 5 else 0), "(n=2, p=5, d=1)"),
]


@pytest.mark.parametrize("suite,module,name,lie,where", FAIL_ROWS, ids=[r[0] for r in FAIL_ROWS])
def test_verify_stops_suite_at_first_fail(capsys, monkeypatch, suite, module, name, lie, where):
    monkeypatch.setattr(module, name, lie(getattr(module, name)))
    rc, out, _ = run_cli(capsys, "verify", "--suite", suite)
    lines = out.splitlines()
    fails = [i for i, line in enumerate(lines) if line.startswith(f"FAIL {suite}")]
    assert rc == 1
    assert len(fails) == 1 and where in lines[fails[0]]
    assert lines[0].startswith(f"PASS {suite}")
    assert not any(line.startswith(f"PASS {suite}") for line in lines[fails[0]:])
    assert lines[-1] == "verify: FAILED"


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(oracle, "monte_carlo", no_memory)
    rc, out, err = run_cli(capsys, "sample", "--n", "3", "--m", "4", "--trials", "10", "--seed", "1")
    assert rc == 2 and out == ""
    assert err == "error: out of memory\n"


def test_sample_reports_coverage(capsys):
    rc, out, _ = run_cli(
        capsys, "sample", "--n", "2", "--m", "3", "--trials", "20000",
        "--seed", "11", "--workers", "2",
    )
    assert rc == 0
    assert "exact P = 2/3" in out
    assert "covered = yes" in out


def test_limit_output(capsys):
    rc, out, _ = run_cli(capsys, "limit", "--p", "2", "--mu", "1")
    assert rc == 0
    assert "lim Q in [0.580577558" in out
    assert "[1/2, 1/1]" in out


def test_detdist_exhaustive(capsys):
    rc, out, _ = run_cli(capsys, "detdist", "--n", "2", "--p", "3", "--exhaustive")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("d=0: 1/3")
    assert "d=1: 2/9" in lines[1] and "observed 6/27" in lines[1]
    assert "d=2: 4/9" in lines[2] and "observed 12/27" in lines[2]


def test_rank_command(capsys, tmp_path):
    path = tmp_path / "mat.txt"
    path.write_text("2 4\n2 0\n0 2\n", encoding="utf-8")
    rc, out, _ = run_cli(capsys, "rank", "--input", str(path))
    assert rc == 0
    assert "m-rank: 1" in out
    assert "valuations: 1,1" in out


def test_rank_command_composite_modulus(capsys, tmp_path):
    path = tmp_path / "mat.txt"
    path.write_text("2 12\n2 0\n0 2\n", encoding="utf-8")
    rc, out, _ = run_cli(capsys, "rank", "--input", str(path))
    assert rc == 0
    assert "m-rank: 2" in out
    assert "valuations" not in out


def test_rank_missing_file_exit_2(capsys):
    rc, _, err = run_cli(capsys, "rank", "--input", "/no/such/file")
    assert rc == 2


def test_dec12_rendering():
    assert dec12(F(11, 16)) == "0.687500000000"
    assert dec12(F(1)) == "1.00000000000"
    assert dec12(F(0)) == "0"
    assert dec12(F(2, 3)) == "0.666666666667"
    assert dec12(F(1, 3)) == "0.333333333333"


def test_prob_prints_exact_values_of_any_size(capsys):
    from symrank.prob import p_recurrence3

    rc, out, _ = run_cli(capsys, "prob", "--n", "600", "--m", "2", "--route", "recurrence5", "--json")
    assert rc == 0
    rec = json.loads(out)
    assert F(int(rec["P_num"]), int(rec["P_den"])) == p_recurrence3(600, 2, 1)
