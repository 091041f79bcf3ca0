"""Workloads, oracle and measurement for the strindex benchmark.

One call of measure() runs one workload in the calling process and thread.
It times the public calls into strindex from outside, checks every answer
against an oracle made from the generated symbols, and returns the result
object that run.py prints.  Queries run as a closed loop with one client:
each query is sent after the previous answer has returned.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import struct
from array import array
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import accumulate
from time import perf_counter, perf_counter_ns

import strindex.text
from strindex import ProbedText, ProbeSession, StringIndex

from layers import Tracer

N = 100_000
ROUND = 12000  # queries per round; every run answers whole rounds
CYCLES = 6  # build, save and open cycles per untraced run
BUILDS = 2  # builds per cycle
SAVES = 5  # saves per cycle

SELECT, RANK, ACCESS = 0, 1, 2
KINDS = ("select", "rank", "access")


@dataclass(frozen=True)
class Workload:
    sigma: int
    t: int
    k: int
    zipf: float | None  # exponent of the symbol distribution; None is uniform


WORKLOADS = {
    # Long pi walks, each step paying a select0 over a 2,048-bit Z string;
    # almost no predecessor set leaves direct search.
    "uniform-s1024-t16": Workload(sigma=1024, t=16, k=1, zipf=None),
    # Short pi walks over one-superblock Z strings; the heavy symbols put a
    # third of all occurrences into trie-backed predecessor sets.  k=2, not
    # 3: at sigma=64 a predecessor bucket holds g=6 members, and k=3 samples
    # only 2 of them, which are stored verbatim, so no BlindTrie would ever
    # be built or searched.  k=2 samples 3, which builds the trie, and still
    # leaves one member between samples for the in-bucket binary search.
    "zipf-s64-t2": Workload(sigma=64, t=2, k=2, zipf=1.1),
}

END_TO_END = (
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("build_s", "s", "lower"),
    ("save_s", "s", "lower"),
    ("select_us_p50", "us", "lower"),
    ("select_us_p99", "us", "lower"),
    ("rank_us_p50", "us", "lower"),
    ("rank_us_p99.5", "us", "lower"),
    ("access_us_p50", "us", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("select_probes_mean", "probes", "lower"),
    ("rank_probes_mean", "probes", "lower"),
    ("index_bits_per_symbol", "bits", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

QUERY_LAYERS = (
    "text.ProbedText.access",
    "bits.RsBitvector.select0",
    "bits.RsBitvector.select1",
    "bits.RsBitvector.rank1",
    "bits.RsBitvector.get",
    "mmphf.MonotoneHash.eval",
    "perm.ShortcutTable.invert",
    "pred.PredIndex.rank",
    "pred.BlindTrie.predecessor",
    "index.StringIndex.select",
    "index.StringIndex.rank",
)
SETUP_LAYERS = (
    "text.load",
    "text.ProbedText.fingerprint",
    "index.StringIndex.from_bytes",
    "bits.BitReader.read",
    "bits.BitReader.read_bv",
    "bits.RsBitvector.select0",
    "mmphf.MonotoneHash.read",
    "pred.PredIndex.read",
    "perm.ShortcutTable.read",
)
BUILD_LAYERS = (
    "index.StringIndex.build",
    "mmphf.MonotoneHash.__init__",
    "pred.PredIndex.__init__",
    "perm.ShortcutTable.__init__",
    "bits.BitBuilder.build",
)
SAVE_LAYERS = (
    "index.StringIndex.to_bytes",
    "bits.BitWriter.write",
    "bits.BitWriter.write_bv",
)
SPACE = (
    # metric suffix, SpaceReport field
    ("z", "z_bits"),
    ("cross", "cross_bits"),
    ("mmphf", "mmphf_bits"),
    ("pred", "pred_bits"),
    ("shortcut", "shortcut_bits"),
    ("header", "header_bits"),
    ("directory", "directory_bits"),
)


def per_layer_metrics():
    """(name, unit) of every metric the traced run reports, in print order."""
    out = []
    for phase in ("select", "rank"):
        for fn in QUERY_LAYERS:
            out += [(f"{phase}.{fn}.calls", "count"), (f"{phase}.{fn}.self_us", "us")]
    for fn in SETUP_LAYERS:
        out += [(f"setup.{fn}.calls", "count"), (f"setup.{fn}.self_s", "s")]
    out += [(f"build.{fn}.self_s", "s") for fn in BUILD_LAYERS]
    for fn in SAVE_LAYERS:
        out += [(f"save.{fn}.calls", "count"), (f"save.{fn}.self_s", "s")]
    out += [(f"space.{name}", "bits") for name, _ in SPACE]
    out.append(("trace.overhead_pct", "%"))
    return out


# -- inputs ---------------------------------------------------------------------


def make_inputs(name, seed, n=N, round_size=ROUND):
    """Symbols, their oracle and one round of queries, all from `seed`."""
    wl = WORKLOADS[name]
    rng = random.Random(seed)
    symbols = make_symbols(wl, n, rng)
    oracle = Oracle(symbols)
    return symbols, oracle, make_round(symbols, oracle.occ, round_size, rng)


def make_symbols(wl, n, rng):
    if wl.zipf is None:
        return [rng.randrange(wl.sigma) for _ in range(n)]
    cum = list(accumulate(1.0 / r ** wl.zipf for r in range(1, wl.sigma + 1)))
    return rng.choices(range(wl.sigma), cum_weights=cum, k=n)


def make_round(symbols, occ, count, rng):
    """Mixed query list: (kind, a, b) with every select ordinal in range."""
    n = len(symbols)
    queries = []
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == ACCESS:
            queries.append((ACCESS, rng.randrange(n), 0))
            continue
        c = symbols[rng.randrange(n)]
        if kind == SELECT:
            queries.append((SELECT, c, rng.randint(1, len(occ[c]))))
        else:
            queries.append((RANK, c, rng.randint(0, n)))
    return queries


class Oracle:
    """Answers from sorted occurrence lists of the generated symbols."""

    def __init__(self, symbols):
        self.symbols = symbols
        occ = {}
        for i, c in enumerate(symbols):
            occ.setdefault(c, []).append(i)
        self.occ = occ

    def answer(self, kind, a, b):
        if kind == SELECT:
            return self.occ[a][b - 1]
        if kind == RANK:
            return bisect_left(self.occ.get(a, ()), b)
        return self.symbols[a]


def probe_budgets(t, k):
    """Most probes each kind may use: the paper's bounds, with ceil(log2 k)."""
    evals = 2 * t + 1
    return (evals, (3 + (k - 1).bit_length()) * evals, 1)


# -- query loop -------------------------------------------------------------------


def run_round(index, text, queries, tracer=None):
    """Answer the queries one after another: (answers, probes, per-call ns).

    An exception is recorded as the answer and counts as a failed query.
    """
    select, rank, access = index.select, index.rank, index.access
    clock = perf_counter_ns
    answers = []
    probes = []
    nanos = []
    for kind, a, b in queries:
        if tracer is not None:
            tracer.phase = KINDS[kind]
        session = ProbeSession()
        start = clock()
        try:
            if kind == SELECT:
                ans = select(text, session, a, b)
            elif kind == RANK:
                ans = rank(text, session, a, b)
            else:
                ans = access(text, session, a)
        except Exception as exc:  # any exception is a failed query
            ans = exc
        nanos.append(clock() - start)
        answers.append(ans)
        probes.append(session.count)
    return answers, probes, nanos


def count_failed(queries, answers, probes, oracle, budgets):
    """Queries with a wrong answer, an exception, or probes over budget."""
    failed = 0
    for (kind, a, b), ans, used in zip(queries, answers, probes):
        within = used == 1 if kind == ACCESS else used <= budgets[kind]
        if isinstance(ans, Exception) or ans != oracle.answer(kind, a, b) or not within:
            failed += 1
    return failed


def _comparable(answers):
    return [type(a).__name__ if isinstance(a, Exception) else a for a in answers]


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * q / 100) - 1)]


# -- the run ------------------------------------------------------------------------


def open_index(text_path, index_path, sigma):
    """What `strindex query` does before its first answer."""
    text = strindex.text.load(text_path.read_bytes(), "u32le", sigma)
    index = StringIndex.from_bytes(index_path.read_bytes())
    index.check_pairing(text)
    return index, text


def measure(name, seed, seconds, trace, workdir, n=N, round_size=ROUND,
            cycles=CYCLES):
    """Run one workload; return {correct, attempted, failed, metrics}.

    The run is `cycles` cycles, each of which builds BUILDS times from a
    fresh text (so every build pays the fingerprint, as `strindex build`
    does), saves SAVES times, opens the saved index as `strindex query` does,
    and then answers whole rounds of the mixed query stream for its share of
    `seconds`.  Spreading the cycles over the run keeps a slow stretch of the
    machine from hitting all of them.  With trace true there is one cycle,
    under the layer tracer, and its rounds alternate between untraced and
    traced.
    """
    wl = WORKLOADS[name]
    symbols, oracle, queries = make_inputs(name, seed, n, round_size)
    budgets = probe_budgets(wl.t, wl.k)
    tracer = Tracer() if trace else None
    text_path = workdir / "text.u32le"
    index_path = workdir / "index.ssix"
    text_path.write_bytes(struct.pack(f"<{n}I", *symbols))

    times = {"build": [], "save": [], "setup": []}
    walls = ([], [])  # round wall times: untraced, traced
    timings = []  # query timings of each cycle
    attempted = failed = 0
    correct = True
    payload = None
    cycles, builds, saves = (1, 1, 1) if trace else (cycles, BUILDS, SAVES)
    for cycle in range(cycles):
        index = text = None
        for _ in range(builds):
            built = None
            fresh = ProbedText(symbols, wl.sigma)
            built = _timed(times, tracer, "build",
                           lambda: StringIndex.build(fresh, wl.t, wl.k))
        for _ in range(saves):
            data = _timed(times, tracer, "save", lambda: built.to_bytes())
            if payload is None:
                payload = data
                index_path.write_bytes(payload)
            correct = correct and data == payload
        index, text = _timed(times, tracer, "setup",
                             lambda: open_index(text_path, index_path, wl.sigma))
        if not cycle:
            # Later cycles make the same bytes, so checking the first is enough.
            report = built.space_report()
            correct = (correct
                       and StringIndex.from_bytes(payload).to_bytes() == payload
                       and report.total_bits == 8 * len(payload))
            # The loaded index must answer as the built one does, with the
            # same probes; these two checked rounds also warm the query path.
            runs = [run_round(built, fresh, queries), run_round(index, text, queries)]
            for answers, probes, _ in runs:
                attempted += len(queries)
                failed += count_failed(queries, answers, probes, oracle, budgets)
            (built_answers, built_probes, _), (answers, probes, _) = runs
            correct = (correct and probes == built_probes
                       and _comparable(answers) == _comparable(built_answers))
            runs = None
        built = fresh = None

        gc.collect()
        elapsed = 0.0
        share = seconds / cycles
        samples = []  # per-call ns of each untraced round of this cycle
        while not walls[0] or elapsed < share or (trace and len(walls[1]) < len(walls[0])):
            traced = trace and len(walls[0]) > len(walls[1])
            active = tracer if traced else None
            with _traced(active, None):
                start = perf_counter()
                answers, probes, nanos = run_round(index, text, queries, active)
                wall = perf_counter() - start
            elapsed += wall
            walls[traced].append(wall)
            if not trace:
                samples.append(array("q", nanos))
            attempted += len(queries)
            failed += count_failed(queries, answers, probes, oracle, budgets)
        if not trace:
            timings.append(_cycle_timings(queries, samples))
        samples = None  # freed before the next cycle's builds, which set peak RSS

    if trace:
        # Each traced round is paired with the untraced round just before it.
        overhead = statistics.median(t / u for u, t in zip(*walls))
        metrics = _layer_metrics(tracer, queries, len(walls[1]), report, n, overhead)
    else:
        rate = len(queries) / statistics.median(walls[0])
        metrics = _end_to_end_metrics(queries, probes, timings, rate, times,
                                      payload, n)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _timed(times, tracer, phase, call):
    """Run call() from a collected heap, adding its wall time to times[phase].

    `call` looks the library function up only once the tracer is installed.
    """
    gc.collect()
    with _traced(tracer, phase):
        start = perf_counter()
        result = call()
        times[phase].append(perf_counter() - start)
    return result


def _traced(tracer, phase):
    """The tracer, installed for `phase`, or a no-op without a tracer."""
    if tracer is None:
        return nullcontext()
    tracer.phase = phase
    return tracer


def _cycle_timings(queries, samples):
    """Percentiles, in us, over the queries of each query's median call.

    `samples` holds the per-call times of each round of one cycle.  Taking
    each query's median over the rounds first leaves out the calls that a
    timer interrupt or a preemption happened to hit, so the tail percentiles
    describe the slow queries, not the slow moments of the host.
    """
    calls = [statistics.median(ns) for ns in zip(*samples)]
    sel, rnk, acc = (sorted(ns for q, ns in zip(queries, calls) if q[0] == kind)
                     for kind in range(3))
    return {
        "select_us_p50": statistics.median(sel) / 1e3,
        "select_us_p99": _percentile(sel, 99) / 1e3,
        "rank_us_p50": statistics.median(rnk) / 1e3,
        "rank_us_p99.5": _percentile(rnk, 99.5) / 1e3,
        "access_us_p50": statistics.median(acc) / 1e3,
    }


def _end_to_end_metrics(queries, probes, timings, rate, times, payload, n):
    """Every timing is a median over the run's repeats; see README.md."""
    values = {
        "setup_s": statistics.median(times["setup"]),
        "build_s": statistics.median(times["build"]),
        "save_s": statistics.median(times["save"]),
        **{key: statistics.median(r[key] for r in timings) for key in timings[0]},
        "queries_per_s": rate,
        "select_probes_mean": _mean([p for q, p in zip(queries, probes) if q[0] == SELECT]),
        "rank_probes_mean": _mean([p for q, p in zip(queries, probes) if q[0] == RANK]),
        "index_bits_per_symbol": 8 * len(payload) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def _layer_metrics(tracer, queries, traced_rounds, report, n, overhead_ratio):
    values = {}
    for kind in (SELECT, RANK):
        phase = KINDS[kind]
        count = traced_rounds * sum(1 for q in queries if q[0] == kind) or 1
        for fn in QUERY_LAYERS:
            values[f"{phase}.{fn}.calls"] = tracer.calls(phase, fn) / count
            values[f"{phase}.{fn}.self_us"] = tracer.self_ns(phase, fn) / 1e3 / count
    for fn in SETUP_LAYERS:
        values[f"setup.{fn}.calls"] = tracer.calls("setup", fn)
        values[f"setup.{fn}.self_s"] = tracer.self_ns("setup", fn) / 1e9
    for fn in BUILD_LAYERS:
        values[f"build.{fn}.self_s"] = tracer.self_ns("build", fn) / 1e9
    for fn in SAVE_LAYERS:
        values[f"save.{fn}.calls"] = tracer.calls("save", fn)
        values[f"save.{fn}.self_s"] = tracer.self_ns("save", fn) / 1e9
    for name, field in SPACE:
        values[f"space.{name}"] = getattr(report, field) / n
    values["trace.overhead_pct"] = (overhead_ratio - 1) * 100
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_metrics()}
