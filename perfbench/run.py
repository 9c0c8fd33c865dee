"""symrank benchmark: one closed-loop client, one measured child at a time.

    python3 perfbench/run.py --workload exact-deep --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The benchmark repeats whole cycles of the
workload's operations (see workloads.py) within --seconds; every
operation runs in a fresh interpreter (child.py), which imports symrank from
``src/`` and times one call.  Outputs are checked (checks.py); an operation
that raises or returns a wrong value is counted as failed and the run goes
on.  The last line of stdout is one JSON object: with --trace 0 it holds the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer metrics.
A traced run issues each operation twice, untraced and then traced, and
reports the difference as the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from workloads import REPORTS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
TRACE_DIR = os.path.join(ROOT, ".perfbench", "trace")

# A run holds whole cycles: a new cycle starts only if, taking as long as
# the last one, it ends within --seconds (at least one cycle always runs).
# Every run must end within 180 s: no cycle starts that could end after
# SOFT_LIMIT_S, and no operation starts after HARD_LIMIT_S.
SOFT_LIMIT_S = 120.0
HARD_LIMIT_S = 165.0

# The machine is shared: its speed swings by up to 1.7x for seconds at a
# time.  Each child times child.speed_probe() just before and after its
# call, and every time it reports (work, set-up, self times) is scaled by
# PROBE_REF_S / probe time, i.e. given in seconds at the speed where the
# probe takes PROBE_REF_S (its typical time on an idle 2-core box).
PROBE_REF_S = 0.02


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def digest(res: dict) -> str:
    """What an operation produced: its output, or the kind of error it raised."""
    what = res["payload"] if res["error"] is None else res["error"].split(":", 1)[0]
    return hashlib.sha256(json.dumps(what, sort_keys=True).encode()).hexdigest()


def run_child(op: dict, timeout: float, trace_path: str | None = None) -> dict:
    """Run one operation in a fresh interpreter and wait for it to end."""
    spec = json.dumps({"op": op, "trace_path": trace_path})
    t_launch = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD], input=spec, capture_output=True, text=True,
            timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"Timeout: no result after {timeout:.0f} s", "payload": None,
                "work_s": time.perf_counter() - t_launch}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"ChildExit: code {proc.returncode} {tail[0][:200]}", "payload": None,
                "work_s": time.perf_counter() - t_launch}
    res = json.loads(lines[-1])
    # Scale every time to a machine that runs the speed probe in PROBE_REF_S.
    res["speed"] = PROBE_REF_S / res["probe_s"]
    res["work_s"] *= res["speed"]
    res["setup_s"] = (res["t_ready"] - t_launch) * res["speed"]
    if "trace" in res:
        res["trace"]["self_s"] = {k: v * res["speed"] for k, v in res["trace"]["self_s"].items()}
    return res


class Run:
    """Issues the operations of one workload run and keeps their records."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.make_cycle = WORKLOADS[workload]
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.records: list[dict] = []
        self.cycles = 0
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def execute(self) -> None:
        if self.trace:
            shutil.rmtree(os.path.join(TRACE_DIR, self.workload), ignore_errors=True)
            os.makedirs(os.path.join(TRACE_DIR, self.workload))
        while True:
            t0 = self.elapsed()
            self.run_cycle(self.make_cycle(self.seed, self.cycles))
            self.cycles += 1
            now = self.elapsed()
            if now + (now - t0) > min(self.seconds, SOFT_LIMIT_S):
                return

    def _child(self, op: dict, trace_path: str | None = None) -> dict:
        left = HARD_LIMIT_S - self.elapsed()
        if left <= 1:
            return {"error": "Skipped: run out of time", "payload": None, "work_s": 0.0}
        return run_child(op, left, trace_path)

    def run_cycle(self, ops: list[dict]) -> None:
        from checks import check_group

        groups: dict[str, list[dict]] = defaultdict(list)
        for op in ops:
            rec = {"op": op, "res": self._child(op)}
            if self.trace:
                path = os.path.join(TRACE_DIR, self.workload, f"{len(self.records):04d}.npz")
                rec["traced"] = self._child(op, path)
            self.records.append(rec)
            groups[op["group"]].append(rec)
        for recs in groups.values():
            for key in ("res", "traced") if self.trace else ("res",):
                judge(recs, key, check_group)


def judge(recs: list[dict], key: str, check_group) -> None:
    """Set each record's status from its own error or the group's check.
    An exception is a failure; a wrong value is a failure and incorrect."""
    done = [r for r in recs if r[key]["error"] is None]
    verdicts = check_group([r["op"] for r in done], [r[key] for r in done]) if done else []
    wrong = {id(r): v for r, v in zip(done, verdicts) if v is not None}
    for r in recs:
        if r[key]["error"] is not None:
            status, reason = "error", r[key]["error"]
        elif id(r) in wrong:
            status, reason = "wrong", wrong[id(r)]
        else:
            status, reason = "ok", None
        if r.get("status", "ok") == "ok":
            r["status"], r["reason"] = status, reason


def slot_values(records: list[dict]) -> dict[str, tuple[float, int]]:
    """Per slot: the geometric mean over strata of the median sample of
    each stratum, and the number of samples.  A sample counts only if all
    of its operations succeeded; a slot without one is left out."""
    acc: dict[tuple, list[float]] = {}
    bad: set[tuple] = set()
    for r in records:
        for slot, key, units, stratum in r["op"]["slots"]:
            t_u = acc.setdefault((slot, stratum, key), [0.0, 0.0])
            t_u[0] += r["res"]["work_s"]
            t_u[1] += units
            if r["status"] != "ok":
                bad.add((slot, stratum, key))
    samples: dict[str, dict] = defaultdict(lambda: defaultdict(list))
    for (slot, stratum, key), (t, u) in acc.items():
        if (slot, stratum, key) not in bad:
            samples[slot][stratum].append(t / u)
    out = {}
    for slot, strata in samples.items():
        logs = [math.log(statistics.median(v)) for v in strata.values()]
        out[slot] = (math.exp(sum(logs) / len(logs)), sum(map(len, strata.values())))
    return out


def end_to_end(run: Run, spec: dict) -> tuple[dict, list[str], bool]:
    """The end-to-end metrics, the report lines, and whether every metric
    has a value.  Times come only from children that returned a result and
    slot times only from successful operations; a metric without one (e.g.
    when every child failed) is left out and the run is not correct."""
    records = run.records
    ran = [r["res"] for r in records if "setup_s" in r["res"]]
    failed = sum(r["status"] != "ok" for r in records)
    values = {"ok_frac": ((len(records) - failed) / len(records), len(records))}
    if ran:
        values["setup_s"] = (statistics.median(r["setup_s"] for r in ran), len(ran))
        values["peak_rss_mb"] = (max(r["rss_kb"] for r in ran) / 1024, len(ran))
    values.update(slot_values(records))
    lines = []
    for name, slot, form, unit in REPORTS[run.workload]:
        if slot not in values:
            lines.append(f"  {name:<44} {'-':>14} {unit:<11} samples=0  [{slot}]")
            continue
        v, k = values[slot]
        shown = 1 / v if form == "rate" else v
        lines.append(f"  {name:<44} {shown:>14.6g} {unit:<11} samples={k}  [{slot}]")
    for name, unit in (("setup_s", "s"), ("peak_rss_mb", "MB")):
        v, k = values.get(name, (math.nan, 0))
        lines.append(f"  {name:<44} {v:>14.6g} {unit:<11} samples={k}")
    lines.append(f"  {'fail_frac':<44} {failed / len(records):>14.6g} {'':<11} "
                 f"failed={failed} attempted={len(records)}")
    if ran:
        speeds = [r["speed"] for r in ran]
        lines.append(f"  {'speed factor (times are scaled by it)':<44} "
                     f"{statistics.median(speeds):>14.6g} {'':<11} median of {len(speeds)}, "
                     f"min {min(speeds):.4g}, max {max(speeds):.4g}")
    for r in records:
        if r["op"].get("probe"):
            lines.append(f"  {r['op']['label']:<44} {r['res']['work_s']:>14.6g} s           "
                         f"{r['status']}{': ' + r['reason'] if r['reason'] else ''}")
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
               for m in spec["end_to_end"] if m["name"] in values}
    return metrics, lines, len(metrics) == len(spec["end_to_end"])


def per_layer(run: Run, spec: dict) -> tuple[dict, list[str]]:
    from tracer import COUNTERS

    combine = {key: how for key, how, _ in COUNTERS.values()}
    totals: dict[str, float] = defaultdict(int)
    untraced = traced = 0.0
    for r in run.records:
        untraced += r["res"]["work_s"]
        traced += r["traced"]["work_s"]
        tr = r["traced"].get("trace")
        if tr is None:
            continue
        for name, n in tr["calls"].items():
            totals[f"{name}.calls"] += n
        for name, s in tr["self_s"].items():
            totals[f"{name}.self_s"] += s
        for name, v in tr["counters"].items():
            totals[name] = max(totals[name], v) if combine[name] == "max" else totals[name] + v
        totals["trace.spans"] += tr["spans"]
    totals["trace.overhead_s"] = traced - untraced
    metrics, lines = {}, []
    for m in spec["per_layer"]:
        v = totals.get(m["name"], 0)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        lines.append(f"  {m['name']:<44} {v:>14.6g} {m['unit']}")
    lines.append(f"  untraced work {untraced:.4f} s, traced work {traced:.4f} s")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "symrank", "__init__.py")):
        print(f"error: no symrank sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.execute()
    records = run.records
    failed = sum(r["status"] != "ok" for r in records)
    correct = not any(r["status"] == "wrong" for r in records)
    out_digest = hashlib.sha256("".join(digest(r["res"]) for r in records).encode()).hexdigest()
    print(f"symrank benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"cycles={run.cycles} operations={len(records)} wall={run.elapsed():.2f}s")
    for r in records:
        if r["status"] != "ok" and not r["op"].get("probe"):
            print(f"  FAILED {r['op']['label']}: {r['reason']}")
    if args.trace:
        mismatch = [r["op"]["label"] for r in records if digest(r["res"]) != digest(r["traced"])]
        for label in mismatch:
            print(f"  TRACE CHANGED OUTPUT of {label}")
        correct = correct and not mismatch
        metrics, lines = per_layer(run, spec)
        traced_digest = hashlib.sha256(
            "".join(digest(r["traced"]) for r in records).encode()).hexdigest()
        lines.append(f"  output digest untraced {out_digest[:16]} traced {traced_digest[:16]}")
    else:
        metrics, lines, complete = end_to_end(run, spec)
        lines.append(f"  output digest {out_digest[:16]}")
        correct = correct and complete
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
