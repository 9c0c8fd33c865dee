"""Workload definitions: the operations each workload issues, made from the seed.

A run repeats cycles.  Cycle ``c`` of a workload is a pure function of
(seed, c), and every cycle holds the same strata of inputs, so a run's
medians are comparable across seeds while the seed still picks the inputs.

Every operation carries ``slots``: [slot, sample key, units, stratum]
entries.  A sample is the summed time of the successful operations sharing
a sample key divided by their summed units.  A slot ``opK_s`` is then the
median of its samples within each stratum, combined over strata by the
geometric mean, so each stratum weighs the same however costly it is; the
slot reads as seconds per unit of work for one kind of operation.
"""

from __future__ import annotations

import random

SLOTS = ("op1_s", "op2_s", "op3_s", "op4_s", "op5_s")
ROUTES = ("recurrence5", "recurrence3", "explicit", "genfun")

# exact-deep strata: (p, first n, mu range).  The seed draws n from four
# values of one parity, since the parity of n doubles or halves the cost of
# recurrence3, and mu inside the range.  Together the strata reach both ends
# of n in [160, 240] and mu in [10, 20] and all of p in {2, 3, 5}.
EXACT_STRATA = (
    (2, 160, (10, 11)),
    (2, 234, (19, 20)),
    (3, 197, (14, 16)),
    (5, 161, (19, 20)),
)
# Long chains that overflow the recursion limit of the recursive routes.
PROBES = ((600, 2, 1), (1001, 3, 1))

GRID_PRIMES = (2, 3, 5, 7)
TABLE = {"n_max": 60, "mu_max": 10}
CROSSROUTE = {"n_max": 30, "mu_max": 8}

# oracle-matrices: (name, kind, n, m, trials, slot); the seed draws sampler
# seeds and the order.  The two prime-power sweeps share one slot.
ORACLE_OPS = (
    ("exhaustive_mu1", "exhaustive", 4, 3, None, "op1_s"),
    ("exhaustive_mu2", "exhaustive", 3, 4, None, "op1_s"),
    ("exhaustive_composite", "exhaustive", 3, 6, None, "op2_s"),
    ("mc_int64", "monte_carlo", 6, 8, 200_000, "op3_s"),
    ("mc_bigint", "monte_carlo", 20, 8, 4_000, "op4_s"),
    ("rank_mc", "rank_mc", 10, 9, 10_000, "op5_s"),
)

# The named end-to-end figures each workload prints, and the slot each reads.
# "s" figures are the slot value; "rate" figures are units per second.
REPORTS = {
    "exact-deep": (
        ("exact.recurrence5.s", "op1_s", "s", "s"),
        ("exact.recurrence3.s", "op2_s", "s", "s"),
        ("exact.explicit.s", "op3_s", "s", "s"),
        ("exact.genfun.s", "op4_s", "s", "s"),
        ("exact.point_all_routes.s", "op5_s", "s", "s"),
    ),
    "grid-sweep": (
        ("sweep.table.rows_per_s", "op1_s", "rate", "rows/s"),
        ("sweep.crossroute.points_per_s", "op2_s", "rate", "points/s"),
        ("sweep.verify_all.s", "op3_s", "s", "s"),
        ("sweep.prime.s", "op4_s", "s", "s"),
        ("sweep.cycle.s", "op5_s", "s", "s"),
    ),
    "oracle-matrices": (
        ("oracle.exhaustive.matrices_per_s", "op1_s", "rate", "matrices/s"),
        ("oracle.exhaustive_composite.matrices_per_s", "op2_s", "rate", "matrices/s"),
        ("oracle.mc_int64.matrices_per_s", "op3_s", "rate", "matrices/s"),
        ("oracle.mc_bigint.matrices_per_s", "op4_s", "rate", "matrices/s"),
        ("oracle.rank_mc.matrices_per_s", "op5_s", "rate", "matrices/s"),
    ),
}


def _rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


def exact_deep(seed: int, cycle: int) -> list[dict]:
    rng = _rng("exact-deep", seed, cycle)
    ops = []
    order = list(range(len(EXACT_STRATA)))
    rng.shuffle(order)
    for i in order:
        p, n_first, (mu_lo, mu_hi) = EXACT_STRATA[i]
        n, mu = n_first + 2 * rng.randrange(4), rng.randint(mu_lo, mu_hi)
        group = f"c{cycle}.point{i}"
        routes = list(ROUTES)
        rng.shuffle(routes)
        for route in routes:
            slot = SLOTS[ROUTES.index(route)]
            ops.append({
                "kind": "route", "n": n, "p": p, "mu": mu, "route": route,
                "group": group, "label": f"{route} ({n},{p},{mu})",
                "slots": [[slot, f"{group}.{route}", 1, i], ["op5_s", group, 0.25, i]],
            })
    for n, p, mu in PROBES:
        group = f"c{cycle}.probe{n}"
        for route in ROUTES[:2]:
            ops.append({
                "kind": "route", "n": n, "p": p, "mu": mu, "route": route,
                "group": group, "label": f"probe {route} ({n},{p},{mu})",
                "probe": True, "slots": [],
            })
    return ops


def grid_sweep(seed: int, cycle: int) -> list[dict]:
    rng = _rng("grid-sweep", seed, cycle)
    primes = list(GRID_PRIMES)
    rng.shuffle(primes)
    rows = (TABLE["n_max"] + 1) * TABLE["mu_max"]
    points = (CROSSROUTE["n_max"] + 1) * CROSSROUTE["mu_max"]
    ops = []
    for i, p in enumerate(primes):
        tag = f"c{cycle}.p{p}"
        ops += [
            {"kind": "cli", "cmd": "table", "p": p, "label": f"table p={p}", **TABLE,
             "argvs": [["table", "--p", str(p), "--n-max", str(TABLE["n_max"]),
                        "--mu-max", str(TABLE["mu_max"])]],
             "slots": [["op1_s", f"{tag}.table", rows, p], ["op4_s", tag, 0.5, p]]},
            {"kind": "cli", "cmd": "verify", "label": f"verify crossroute p={p}",
             "argvs": [["verify", "--suite", "crossroute", "--n-max", str(CROSSROUTE["n_max"]),
                        "--mu-max", str(CROSSROUTE["mu_max"]), "--p-list", str(p)]],
             "slots": [["op2_s", f"{tag}.crossroute", points, p], ["op4_s", tag, 0.5, p]]},
        ]
        # verify --suite all takes no prime and is the noisiest figure here,
        # so it runs six times a cycle: after every prime, twice after two.
        for k in range(1 + i % 2):
            ops.append({"kind": "cli", "cmd": "verify", "label": "verify all",
                        "argvs": [["verify", "--suite", "all"]],
                        "slots": [["op3_s", f"{tag}.verify_all{k}", 1, 0]]})
    for op in ops:
        op["group"] = op["slots"][0][1]
        op["slots"].append(["op5_s", f"c{cycle}", 1 / len(ops), 0])
    return ops


def oracle_matrices(seed: int, cycle: int) -> list[dict]:
    rng = _rng("oracle-matrices", seed, cycle)
    ops = []
    for name, kind, n, m, trials, slot in ORACLE_OPS:
        op = {"kind": kind, "n": n, "m": m, "warmup": True, "group": f"c{cycle}.{name}",
              "label": f"{name} ({n},{m})"}
        if kind == "exhaustive":
            units = m ** (n * (n + 1) // 2)
        else:
            units = trials
            op.update(trials=trials, seed=rng.randrange(2**32))
            if kind == "monte_carlo":
                op["workers"] = 2
        op["slots"] = [[slot, f"c{cycle}.{slot}", units, 0]]
        ops.append(op)
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "exact-deep": exact_deep,
    "grid-sweep": grid_sweep,
    "oracle-matrices": oracle_matrices,
}
