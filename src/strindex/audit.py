"""Probe and space measurement across (t, k) grids, with budget checks.

Each sweep point builds one index, runs a deterministic workload (uniform
random rank/select queries plus a boundary battery), and records exact
component bit counts next to observed probe maxima.  check_budget turns the
stated per-query budgets and the redundancy envelope

    r  <=  BUDGET_C * (n * log2(sigma) / t  +  n * max(1, log2(log2(sigma))))

into machine-checked pass/fail lines.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from random import Random

from .errors import MalformedInputError
from .index import StringIndex, rank_budget, select_budget
from .text import ProbeSession

#: Constant of the redundancy envelope asserted by check_budget.
BUDGET_C = 8

#: Additive allowance for the fixed index-file container (magic, header,
#: section table); dominates only for toy-sized inputs.
CONTAINER_ALLOWANCE_BITS = 2048

CSV_COLUMNS = (
    "n", "sigma", "t", "k", "r_bits", "z_bits", "mmphf_bits", "pred_bits",
    "shortcut_bits", "rank_probes_max", "select_probes_max", "seed",
)


@dataclass
class BenchRecord:
    """One sweep point: exact sizes plus observed probe behaviour."""

    n: int
    sigma: int
    t: int
    k: int
    seed: int
    r_bits: int
    z_bits: int
    mmphf_bits: int
    pred_bits: int
    shortcut_bits: int
    shortcut_target_bits: int
    header_bits: int
    rank_probes_max: int
    select_probes_max: int

    def row(self):
        return {col: getattr(self, col) for col in CSV_COLUMNS}


class Reference:
    """Bisect-based rank/select reference over the raw symbols.

    Equivalent to a linear scan (asserted in tests) but fast enough to stand
    behind large randomized workloads.
    """

    def __init__(self, text):
        self.n = text.n
        self.sigma = text.sigma
        positions = {}
        for i, sym in enumerate(text.symbols()):
            positions.setdefault(sym, []).append(i)
        self.positions = positions

    def count(self, c):
        return len(self.positions.get(c, ()))

    def rank(self, c, p):
        occ = self.positions.get(c)
        return bisect_left(occ, p) if occ else 0

    def select(self, c, j):
        occ = self.positions.get(c, ())
        return occ[j - 1] if 1 <= j <= len(occ) else -1


def make_workload(text, count, seed):
    """Deterministic query list: uniform draws plus a boundary battery."""
    if count <= 0:
        return []
    rng = Random(seed)
    n, sigma = text.n, text.sigma
    ref = Reference(text)
    queries = []
    for _ in range(count // 2):
        queries.append(("rank", rng.randrange(sigma), rng.randrange(n + 1)))
    for _ in range(count - count // 2):
        # Ordinals past count(c) + 1 all answer -1 without a probe, so drawing
        # from [1, n + 1] would leave almost every select unexercised.
        c = rng.randrange(sigma)
        queries.append(("select", c, rng.randrange(1, ref.count(c) + 2)))
    # Boundary battery: block seams, empty/full prefixes, absent symbols,
    # exact occurrence counts and one-past-the-end ordinals.
    nblocks = (n + sigma - 1) // sigma
    seams = {b * sigma for b in range(nblocks + 1) if b * sigma <= n}
    if len(seams) > 16:
        seams = set(sorted(seams)[:8] + sorted(seams)[-8:])
    present = [c for c in range(sigma) if ref.count(c)]
    absent = [c for c in range(sigma) if not ref.count(c)][:2]
    probe_chars = present[:2] + present[-2:] + absent
    for c in probe_chars:
        for p in sorted(seams) + [0, n]:
            queries.append(("rank", c, p))
        total = ref.count(c)
        for j in (1, max(1, total), total + 1):
            queries.append(("select", c, j))
    return queries


def run_queries(ix, text, queries, check=True):
    """Execute a workload; returns (stats dict, mismatch list).  stats holds
    the query count and, for each of rank and select, the probes per query as
    a max and nearest-rank p50 and p99."""
    ref = Reference(text) if check else None
    mismatches = []
    probes = {"rank": [], "select": []}
    for kind, c, arg in queries:
        session = ProbeSession()
        got = getattr(ix, kind)(text, session, c, arg)
        probes[kind].append(session.count)
        if check:
            want = getattr(ref, kind)(c, arg)
            if got != want:
                mismatches.append(f"{kind}({c},{arg}): index={got} oracle={want}")
    stats = {"queries": len(queries)}
    for kind, counts in probes.items():
        counts.sort()
        stats[f"{kind}_probes_max"] = counts[-1] if counts else 0
        stats[f"{kind}_probes_p50"] = _percentile(counts, 50)
        stats[f"{kind}_probes_p99"] = _percentile(counts, 99)
    return stats, mismatches


def _percentile(ascending, q):
    """Nearest-rank q-th percentile of an ascending list; 0 when it is empty."""
    if not ascending:
        return 0
    return ascending[max(0, math.ceil(q / 100 * len(ascending)) - 1)]


def sweep(text, t_list, k_list, queries=1000, seed=0):
    """One BenchRecord per (t, k), deterministic for a fixed seed."""
    ts = sorted(set(t_list))
    ks = sorted(set(k_list))
    if not ts or not ks:
        raise MalformedInputError("t and k lists must be non-empty")
    workload = make_workload(text, queries, seed)
    records = []
    for t in ts:
        for k in ks:
            ix = StringIndex.build(text, t, k)
            report = ix.space_report()
            stats, mismatches = run_queries(ix, text, workload, check=False)
            if mismatches:
                raise AssertionError(f"sweep hit mismatches: {mismatches[:3]}")
            records.append(BenchRecord(
                n=text.n,
                sigma=text.sigma,
                t=t,
                k=k,
                seed=seed,
                r_bits=report.total_bits,
                z_bits=report.z_bits,
                mmphf_bits=report.mmphf_bits,
                pred_bits=report.pred_bits,
                shortcut_bits=report.shortcut_bits,
                shortcut_target_bits=report.shortcut_target_bits,
                header_bits=report.header_bits,
                rank_probes_max=stats["rank_probes_max"],
                select_probes_max=stats["select_probes_max"],
            ))
    return records


def envelope_bits(n, sigma, t):
    """Redundancy envelope: BUDGET_C * (n log2(sigma)/t + n max(1, log2 log2 sigma))
    plus the fixed container allowance."""
    logs = math.log2(sigma)
    loglogs = max(1.0, math.log2(logs) if logs > 1 else 0.0)
    return BUDGET_C * (n * logs / t + n * loglogs) + CONTAINER_ALLOWANCE_BITS


def check_budget(records):
    """Assert probe budgets and the redundancy envelope; returns (ok, lines)."""
    ok = True
    lines = [
        f"redundancy envelope constant C={BUDGET_C} "
        f"(+{CONTAINER_ALLOWANCE_BITS} container bits)"
    ]
    for rec in records:
        sel_budget = select_budget(rec.t)
        rnk_budget = rank_budget(rec.t, rec.k)
        env = envelope_bits(rec.n, rec.sigma, rec.t)
        checks = [
            ("select probes", rec.select_probes_max, sel_budget),
            ("rank probes", rec.rank_probes_max, rnk_budget),
            ("redundancy bits", rec.r_bits, env),
        ]
        for name, got, bound in checks:
            good = got <= bound
            ok = ok and good
            lines.append(
                f"{'PASS' if good else 'FAIL'} t={rec.t} k={rec.k} "
                f"{name}: {got} <= {bound:.0f}"
            )
    by_group = {}
    for rec in records:
        by_group.setdefault((rec.n, rec.sigma, rec.k), []).append(rec)
    for (n, sigma, k), group in sorted(by_group.items()):
        group = sorted(group, key=lambda r: r.t)
        for lo, hi in zip(group, group[1:]):
            good = hi.r_bits <= lo.r_bits
            ok = ok and good
            lines.append(
                f"{'PASS' if good else 'FAIL'} k={k} redundancy non-increasing: "
                f"r(t={hi.t})={hi.r_bits} <= r(t={lo.t})={lo.r_bits}"
            )
    return ok, lines


def to_csv(records):
    out = [",".join(CSV_COLUMNS)]
    for rec in records:
        row = rec.row()
        out.append(",".join(str(row[col]) for col in CSV_COLUMNS))
    return "\n".join(out) + "\n"


def to_json(records):
    return json.dumps([rec.row() for rec in records], sort_keys=True, indent=2) + "\n"
