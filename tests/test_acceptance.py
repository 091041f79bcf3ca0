"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1 and 2 enumerate large string spaces and fan out across processes;
expect a few minutes of wall time on a small machine.
"""

import math
import multiprocessing
import random
from itertools import combinations, product

from strindex import (
    MonotoneHash,
    PredIndex,
    ProbeSession,
    ProbedText,
    StringIndex,
    build,
    max_k,
    rank_budget,
    select_budget,
)
from strindex.audit import make_workload, run_queries, sweep, to_csv
from strindex.pred import budget as scall_budget
from conftest import brute_rank, brute_select, make_random_text, positions_of

T_SET_EXHAUSTIVE = (1, 2, 4)
K_SET_EXHAUSTIVE = (1, 2)


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def _pool():
    return multiprocessing.get_context("fork").Pool(multiprocessing.cpu_count())


# -- criterion 1: exhaustive oracle equivalence ------------------------------


def _digits(code, sigma, n):
    out = [0] * n
    for i in range(n - 1, -1, -1):
        code, out[i] = divmod(code, sigma)
    return out


def _c1_task(args):
    sigma, n, lo, hi = args
    configs = [
        (t, k)
        for t in T_SET_EXHAUSTIVE
        for k in K_SET_EXHAUSTIVE
        if k <= max_k(sigma)
    ]
    queries = 0
    bad = []
    for code in range(lo, hi):
        tup = _digits(code, sigma, n)
        text = ProbedText(tup, sigma)
        occ = positions_of(text)
        for t, k in configs:
            ix = build(text, t, k)
            for c in range(sigma):
                lst = occ.get(c, ())
                for p in range(n + 1):
                    sess = ProbeSession()
                    got = ix.rank(text, sess, c, p)
                    want = brute_rank(occ, c, p)
                    queries += 1
                    if got != want or sess.count > rank_budget(t, k):
                        bad.append(f"rank s={tup} t={t} k={k} c={c} p={p}: "
                                   f"{got}!={want} probes={sess.count}")
                for j in range(1, n + 2):
                    sess = ProbeSession()
                    got = ix.select(text, sess, c, j)
                    want = lst[j - 1] if j <= len(lst) else -1
                    queries += 1
                    if got != want or sess.count > select_budget(t):
                        bad.append(f"select s={tup} t={t} k={k} c={c} j={j}: "
                                   f"{got}!={want} probes={sess.count}")
    return queries, bad[:5]


def test_criterion_1_exhaustive_oracle_equivalence():
    tasks = []
    chunk = 1500
    for sigma in (2, 3, 4):
        for n in range(sigma, 9):  # sigma <= n by the model's own constraint
            total = sigma**n
            for lo in range(0, total, chunk):
                tasks.append((sigma, n, lo, min(lo + chunk, total)))
    with _pool() as pool:
        results = pool.map(_c1_task, tasks, chunksize=1)
    queries = sum(q for q, _ in results)
    bad = [line for _, lines in results for line in lines]
    ok = not bad
    _report(1, ok, f"{queries} exhaustive queries, {len(bad)} mismatches")
    assert ok, bad[:10]


# -- criterion 2: randomized equivalence -------------------------------------


def _c2_task(args):
    sigma, seed = args
    rng = random.Random(seed)
    text = ProbedText([rng.randrange(sigma) for _ in range(10_000)], sigma)
    queries = make_workload(text, 1000, seed)
    out = []
    for t in (1, 4, 16):
        ix = build(text, t, 1)
        stats, mismatches = run_queries(ix, text, queries, check=True)
        out.append({
            "t": t,
            "mismatches": mismatches[:3],
            "n_mismatches": len(mismatches),
            "rank_max": stats["rank_probes_max"],
            "select_max": stats["select_probes_max"],
            "queries": stats["queries"],
        })
    return sigma, seed, out


def test_criterion_2_randomized_equivalence():
    tasks = [(sigma, 1000 * sigma + rep)
             for sigma in (4, 64, 256, 1024)
             for rep in range(100)]
    with _pool() as pool:
        results = pool.map(_c2_task, tasks, chunksize=4)
    total_queries = 0
    bad = []
    for sigma, seed, points in results:
        for point in points:
            total_queries += point["queries"]
            if point["n_mismatches"]:
                bad.append(f"sigma={sigma} seed={seed} t={point['t']}: "
                           f"{point['mismatches']}")
            if point["rank_max"] > rank_budget(point["t"], 1):
                bad.append(f"sigma={sigma} seed={seed} t={point['t']}: rank probes "
                           f"{point['rank_max']}")
            if point["select_max"] > select_budget(point["t"]):
                bad.append(f"sigma={sigma} seed={seed} t={point['t']}: select probes "
                           f"{point['select_max']}")
    ok = not bad
    _report(2, ok, f"{len(tasks)} strings, {total_queries} queries, "
                   f"{len(bad)} failures")
    assert ok, bad[:10]


# -- criterion 3: probe budgets ----------------------------------------------


def test_criterion_3_probe_budgets():
    bad = []
    for sigma, n in ((4, 4096), (256, 4096)):
        text = make_random_text(n, sigma, seed=sigma)
        queries = make_workload(text, 400, seed=1)
        for t in (1, 4, 16):
            for k in (1, 2):
                ix = build(text, t, k)
                stats, mismatches = run_queries(ix, text, queries, check=True)
                if mismatches:
                    bad.append(f"sigma={sigma} t={t} k={k}: wrong answers")
                if stats["rank_probes_max"] > rank_budget(t, k):
                    bad.append(f"sigma={sigma} t={t} k={k}: rank probes "
                               f"{stats['rank_probes_max']} > {rank_budget(t, k)}")
                if stats["select_probes_max"] > select_budget(t):
                    bad.append(f"sigma={sigma} t={t} k={k}: select probes "
                               f"{stats['select_probes_max']} > {select_budget(t)}")
        ix = build(text, 2, 1)
        rng = random.Random(0)
        for _ in range(200):
            sess = ProbeSession()
            ix.access(text, sess, rng.randrange(n))
            if sess.count != 1:
                bad.append(f"access probes {sess.count} != 1")
    ok = not bad
    _report(3, ok, "access=1, select<=2t+1, rank<=(3+ceil(log2 k))(2t+1) "
                   f"across battery; {len(bad)} violations")
    assert ok, bad[:10]


# -- criterion 4: trade-off shape ---------------------------------------------


def test_criterion_4_tradeoff_shape():
    n, sigma = 100_000, 1024
    text = make_random_text(n, sigma, seed=42)
    records = {rec.t: rec for rec in sweep(text, [1, 2, 4, 8, 16], [1], queries=0)}
    failures = []
    for t in (1, 2, 4, 8):
        lo = records[t].shortcut_target_bits
        hi = records[2 * t].shortcut_target_bits
        ratio = hi / lo
        line = (f"shortcut-table bits t={2*t}/t={t}: {hi}/{lo} = {ratio:.3f}")
        print(f"  {line}")
        if not 0.4 <= ratio <= 0.6:
            failures.append(line)
    ts = sorted(records)
    for a, b in zip(ts, ts[1:]):
        if records[b].r_bits > records[a].r_bits:
            failures.append(
                f"r not non-increasing: r(t={b})={records[b].r_bits} > "
                f"r(t={a})={records[a].r_bits}"
            )
    text_bits = n * math.log2(sigma)
    for t in (2, 4, 8, 16):
        r = records[t].r_bits
        line = (f"r(t={t}) = {r} vs n*log2(sigma) = {text_bits:.0f} "
                f"({100 * r / text_bits:.1f}%)")
        print(f"  {line}")
        if not r < text_bits:
            failures.append(line)
    ok = not failures
    _report(4, ok, f"halving/monotonicity/systematic-size at n={n} sigma={sigma}; "
                   f"{len(failures)} failures")
    assert ok, failures


# -- criterion 5: Z structure exactness ----------------------------------------


def test_criterion_5_z_exactness():
    cases = [
        make_random_text(5000, 256, seed=1),   # short last block (5000 = 19*256 + 136)
        make_random_text(4096, 64, seed=2),    # sigma divides n
        make_random_text(64, 64, seed=3),      # single block
        ProbedText([1, 0, 2, 1, 0, 0], 3),
    ]
    bad = []
    for text in cases:
        built = build(text, t=2)
        sigma = text.sigma
        # The stored Z section, as built and as loaded.
        for ix in (built, StringIndex.from_bytes(built.to_bytes())):
            where = f"n={text.n} sigma={sigma}"
            bits = "".join(f"{byte:08b}"[::-1] for byte in ix.z)
            # Block b's Z ends just after the section's (b+1)*sigma-th zero.
            ends = [i + 1 for i, bit in enumerate(bits) if bit == "0"][sigma - 1::sigma]
            if len(ends) < len(ix.blocks):
                bad.append(f"{where}: {len(ends)} Z strings for {len(ix.blocks)} blocks")
                continue
            for b, blk in enumerate(ix.blocks):
                z = bits[ends[b - 1] if b else 0:ends[b]]
                if z.count("0") != sigma:
                    bad.append(f"{where} block={b}: {z.count('0')} zeros")
                if z.count("1") != blk.length:
                    bad.append(f"{where} block={b}: "
                               f"{z.count('1')} ones != {blk.length}")
                if len(z) != blk.length + sigma:
                    bad.append(f"{where} block={b}: bad Z length")
            padding = bits[ends[len(ix.blocks) - 1]:]
            if "1" in padding or len(padding) >= 8:
                bad.append(f"{where}: Z section ends in {padding!r}, not padding")
    ok = not bad
    _report(5, ok, f"Z strings over {len(cases)} texts checked; {len(bad)} defects")
    assert ok, bad


# -- criterion 6: component correctness -----------------------------------------


def test_criterion_6_component_correctness():
    bad = []
    # mmphf member-rank identity, exhaustively per built instance
    battery = [
        make_random_text(3000, 16, seed=4),
        make_random_text(3000, 300, seed=5),
        make_random_text(10_000, 1024, seed=6),
    ]
    for text in battery:
        symbols = text.symbols()
        ix = build(text, t=2)
        for blk in ix.blocks:
            occ = {}
            for i in range(blk.length):
                occ.setdefault(symbols[blk.start + i], []).append(i)
            for c, members in occ.items():
                h = blk.hashes[c]
                for rank, key in enumerate(members):
                    if h.eval(key) != rank:
                        bad.append(f"mmphf n={text.n} block@{blk.start} c={c}")
                        break
            # stable-sort permutation round-trip: invert(pi[i]) == i
            base = {}
            acc = 0
            for c in sorted(occ):
                base[c] = acc
                acc += len(occ[c])
            pi = [0] * blk.length
            seen = dict.fromkeys(occ, 0)
            for i in range(blk.length):
                c = symbols[blk.start + i]
                pi[i] = base[c] + seen[c]
                seen[c] += 1
            for i in range(blk.length):
                if blk.shortcuts.invert(pi[i], pi.__getitem__) != i:
                    bad.append(f"pi round-trip n={text.n} block@{blk.start} i={i}")
                    break
    # random standalone monotone hashes, exhaustive member check
    rng = random.Random(7)
    for _ in range(50):
        u = rng.randrange(2, 5000)
        m = rng.randrange(0, min(u, 400))
        keys = sorted(rng.sample(range(u), m))
        h = MonotoneHash(keys, u)
        for rank, key in enumerate(keys):
            if h.eval(key) != rank:
                bad.append(f"mmphf standalone u={u} m={m}")
                break
    # predecessor counts: exhaustive over all subsets for sigma <= 10
    for sigma in range(2, 11):
        g = max_k(sigma)
        for size in range(sigma + 1):
            for members in combinations(range(sigma), size):
                members = list(members)
                for k in range(1, g + 1):
                    ix = PredIndex(members, sigma, k)
                    calls = [0]

                    def fetch(r, _m=members, _calls=calls):
                        _calls[0] += 1
                        return _m[r]

                    for p in range(sigma + 1):
                        calls[0] = 0
                        got = ix.rank(p, fetch)
                        want = sum(1 for x in members if x < p)
                        if got != want or calls[0] > scall_budget(k):
                            bad.append(f"pred sigma={sigma} T={members} k={k} p={p}")
    ok = not bad
    _report(6, ok, f"mmphf identity, permutation round-trips, exhaustive "
                   f"predecessor subsets; {len(bad)} defects")
    assert ok, bad[:10]


# -- criterion 7: serialization ---------------------------------------------------


def test_criterion_7_serialization():
    bad = []
    for sigma, t in ((64, 4), (1024, 16)):
        text = make_random_text(10_000, sigma, seed=sigma + 1)
        ix = build(text, t, 1)
        blob = ix.to_bytes()
        back = StringIndex.from_bytes(blob)
        if back.to_bytes() != blob:
            bad.append(f"sigma={sigma}: re-serialization differs")
        queries = make_workload(text, 1000, seed=2)
        for kind, c, arg in queries:
            s1, s2 = ProbeSession(), ProbeSession()
            if kind == "rank":
                a = ix.rank(text, s1, c, arg)
                b = back.rank(text, s2, c, arg)
            else:
                a = ix.select(text, s1, c, arg)
                b = back.select(text, s2, c, arg)
            if a != b or s1.count != s2.count:
                bad.append(f"sigma={sigma} {kind}({c},{arg}): "
                           f"{a}/{s1.count} vs {b}/{s2.count}")
    ok = not bad
    _report(7, ok, f"byte-identical round-trips and identical post-reload "
                   f"answers+probes; {len(bad)} defects")
    assert ok, bad[:10]


# -- criterion 8: determinism ------------------------------------------------------


def test_criterion_8_determinism():
    bad = []
    text = make_random_text(10_000, 256, seed=9)
    if build(text, 4, 1).to_bytes() != build(text, 4, 1).to_bytes():
        bad.append("repeated builds differ")
    bench_text = make_random_text(4096, 64, seed=10)
    csv_a = to_csv(sweep(bench_text, [1, 2, 4], [1], queries=200, seed=5))
    csv_b = to_csv(sweep(bench_text, [1, 2, 4], [1], queries=200, seed=5))
    if csv_a != csv_b:
        bad.append("repeated benches differ")
    ok = not bad
    _report(8, ok, f"index bytes and bench CSV reproduce; {len(bad)} defects")
    assert ok, bad
