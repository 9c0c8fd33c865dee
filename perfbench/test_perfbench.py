"""Self-tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_same_seed_same_inputs():
    for make in WORKLOADS.values():
        for cycle in range(3):
            assert make(7, cycle) == make(7, cycle)
        assert make(7, 0) != make(8, 0)


def _route_records(values: list[Fraction]) -> list[dict]:
    recs = []
    for route, v in zip(("recurrence5", "recurrence3", "explicit", "genfun"), values):
        op = {"kind": "route", "n": 3, "p": 2, "mu": 2, "route": route, "group": "g", "slots": []}
        pay = {"P": [format(v.numerator, "x"), format(v.denominator, "x")]}
        recs.append({"op": op, "res": {"error": None, "payload": pay, "work_s": 0.1}})
    return recs


def test_wrong_value_is_counted_failed():
    from symrank import prob

    good = prob.p_recurrence5(3, 2, 2)
    recs = _route_records([good, good, good + Fraction(1, 2**20), good])
    run.judge(recs, "res", checks.check_group)
    assert [r["status"] for r in recs] == ["ok", "ok", "wrong", "ok"]

    recs = _route_records([good, good, good, good])
    recs[1]["res"] = {"error": "RecursionError: too deep", "payload": None, "work_s": 0.0}
    run.judge(recs, "res", checks.check_group)
    assert [r["status"] for r in recs] == ["ok", "error", "ok", "ok"]

    op = {"kind": "exhaustive", "n": 1, "m": 2, "group": "e", "slots": []}
    pay = {"total": 2, "full": 2, "det": {"0": 0, "1": 2}, "rank": {"1": 2}, "case": {"case1": 2}}
    recs = [{"op": op, "res": {"error": None, "payload": pay, "work_s": 0.1}}]
    run.judge(recs, "res", checks.check_group)
    assert recs[0]["status"] == "wrong"


def test_one_measured_child_at_a_time(monkeypatch, tmp_path):
    live: list[subprocess.Popen] = []
    peak = [0]
    real_popen = subprocess.Popen

    class Tracked(real_popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            live[:] = [p for p in live if p.returncode is None] + [self]
            peak[0] = max(peak[0], len(live))

    monkeypatch.setattr(subprocess, "Popen", Tracked)
    monkeypatch.setattr(run, "TRACE_DIR", str(tmp_path))
    bench = run.Run("exact-deep", 1, 0.0, trace=True)
    bench.make_cycle = lambda seed, cycle: [
        {"kind": "route", "n": 5, "p": 2, "mu": 2, "route": r, "group": "g", "label": r,
         "slots": [["op1_s", r, 1, 0]]}
        for r in ("recurrence5", "explicit")
    ]
    bench.execute()
    assert peak[0] == 1
    assert all(p.returncode is not None for p in live)
    assert [r["status"] for r in bench.records] == ["ok", "ok"]
    assert bench.records[0]["traced"]["trace"]["calls"]["prob.probability"] == 1
    assert sorted(os.listdir(tmp_path / "exact-deep")) == ["0000.npz", "0001.npz"]


def test_every_child_failing_is_reported(monkeypatch, capsys):
    def broken(op, timeout, trace_path=None):
        return {"error": "ChildExit: code 1 ImportError: no symrank", "payload": None,
                "work_s": 0.0}

    monkeypatch.setattr(run, "run_child", broken)
    assert run.main(["--workload", "grid-sweep", "--seed", "1", "--seconds", "0"]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["correct"] is False and res["failed"] == res["attempted"] > 0
    assert res["metrics"] == {"ok_frac": {"value": 0.0, "unit": "share"}}


def test_self_time_excludes_children():
    now = [0.0]
    tr = Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    inner_t = tr.wrap("inner", inner)

    def outer():
        inner_t()
        inner_t()
        now[0] += 1.0

    tr.wrap("outer", outer)()
    s = tr.summary()
    assert s["calls"] == {"inner": 2, "outer": 1} and s["spans"] == 3
    assert s["self_s"] == {"inner": 4.0, "outer": 1.0}
    assert list(tr.span_parent) == [-1, 0, 0]
    assert list(tr.span_start) == [0.0, 0.0, 2.0] and list(tr.span_end) == [5.0, 2.0, 4.0]
