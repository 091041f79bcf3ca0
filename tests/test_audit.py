import dataclasses
import random

import pytest

import strindex.audit
from strindex import MalformedInputError
from strindex.audit import (
    BUDGET_C,
    CSV_COLUMNS,
    Reference,
    check_budget,
    envelope_bits,
    make_workload,
    run_queries,
    sweep,
    to_csv,
    to_json,
)
from strindex.index import build, select_budget
from conftest import make_random_text


def test_reference_matches_scanning_oracle():
    text = make_random_text(400, 8, seed=3)
    symbols = text.symbols()
    ref = Reference(text)
    rng = random.Random(1)
    for _ in range(300):
        c = rng.randrange(8)
        p = rng.randrange(401)
        j = rng.randrange(1, 80)
        # A linear scan, independent of Reference's bisection.
        assert ref.rank(c, p) == sum(1 for s in symbols[:p] if s == c)
        hits = [i for i, s in enumerate(symbols) if s == c]
        assert ref.select(c, j) == (hits[j - 1] if j <= len(hits) else -1)


def test_workload_is_deterministic_and_covers_boundaries():
    text = make_random_text(300, 16, seed=4)
    a = make_workload(text, 100, seed=9)
    b = make_workload(text, 100, seed=9)
    assert a == b
    assert make_workload(text, 100, seed=10) != a
    rank_ps = {arg for kind, _, arg in a if kind == "rank"}
    assert 0 in rank_ps and text.n in rank_ps
    assert len(a) > 100  # boundary battery rides on top


def test_workload_selects_mostly_have_an_answer():
    text = make_random_text(3000, 16, seed=4)
    ref = Reference(text)
    selects = [(c, j) for kind, c, j in make_workload(text, 2000, seed=0)
               if kind == "select"]
    answered = sum(ref.select(c, j) != -1 for c, j in selects)
    assert answered >= 0.9 * len(selects)


def test_empty_workload():
    text = make_random_text(64, 4, seed=5)
    assert make_workload(text, 0, seed=0) == []
    records = sweep(text, [1], [1], queries=0, seed=0)
    assert len(records) == 1
    rec = records[0]
    assert rec.rank_probes_max == 0 and rec.select_probes_max == 0
    assert rec.r_bits > 0


def test_run_queries_detects_mismatches():
    text = make_random_text(128, 4, seed=6)
    ix = build(text, t=2)
    stats, mismatches = run_queries(ix, text, make_workload(text, 50, 1), check=True)
    assert mismatches == []
    assert stats["queries"] > 0
    assert stats["select_probes_max"] <= select_budget(2)


def test_sweep_records_and_exports():
    text = make_random_text(4096, 64, seed=7)
    records = sweep(text, [2, 1, 2], [1], queries=60, seed=3)
    assert [(r.t, r.k) for r in records] == [(1, 1), (2, 1)]
    for rec in records:
        parts = (rec.z_bits + rec.mmphf_bits + rec.pred_bits
                 + rec.shortcut_bits + rec.header_bits)
        assert parts == rec.r_bits
    csv_a = to_csv(records)
    csv_b = to_csv(sweep(text, [1, 2], [1], queries=60, seed=3))
    assert csv_a == csv_b
    assert csv_a.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(csv_a.splitlines()) == 3
    json_a = to_json(records)
    json_b = to_json(sweep(text, [1, 2], [1], queries=60, seed=3))
    assert json_a == json_b


def test_sweep_times_queries_on_decoded_blocks_only(monkeypatch):
    """The timed queries of a sweep point decode no block: sweep decodes
    them all before run_queries starts its clock."""
    pending = []

    def counted(ix, *args, **kwargs):
        pending.append(sum(blk is None for blk in ix._blocks))
        return run_queries(ix, *args, **kwargs)

    monkeypatch.setattr(strindex.audit, "run_queries", counted)
    sweep(make_random_text(4096, 64, seed=7), [1, 2], [1], queries=60, seed=3)
    assert pending == [0, 0]


def test_sweep_rejects_empty_lists():
    text = make_random_text(64, 4, seed=8)
    with pytest.raises(MalformedInputError):
        sweep(text, [], [1])


def test_check_budget_passes_for_real_records():
    text = make_random_text(4096, 64, seed=9)
    records = sweep(text, [1, 2, 4], [1, 2], queries=80, seed=0)
    ok, lines = check_budget(records)
    assert ok, "\n".join(lines)
    assert any(f"C={BUDGET_C}" in line for line in lines)


def test_check_budget_flags_probe_violation():
    text = make_random_text(256, 16, seed=10)
    records = sweep(text, [2], [1], queries=40, seed=0)
    bad = dataclasses.replace(records[0], select_probes_max=select_budget(2) + 1)
    ok, lines = check_budget([bad])
    assert not ok
    assert any("FAIL" in line and "select probes" in line for line in lines)


def test_check_budget_flags_nonmonotone_redundancy():
    text = make_random_text(256, 16, seed=11)
    records = sweep(text, [1, 2], [1], queries=0, seed=0)
    worse = dataclasses.replace(records[1], r_bits=records[0].r_bits + 1)
    ok, lines = check_budget([records[0], worse])
    assert not ok
    assert any("non-increasing" in line and "FAIL" in line for line in lines)


def test_redundancy_decreases_with_t():
    text = make_random_text(4096, 64, seed=12)
    records = sweep(text, [1, 2, 4, 8], [1], queries=0, seed=0)
    rs = [rec.r_bits for rec in records]
    assert rs == sorted(rs, reverse=True)


def test_envelope_formula():
    import math

    from strindex.audit import CONTAINER_ALLOWANCE_BITS

    want = BUDGET_C * (1000 * 10 / 2 + 1000 * math.log2(10)) + CONTAINER_ALLOWANCE_BITS
    assert envelope_bits(1000, 1024, 2) == pytest.approx(want)
    # the log-log term is clamped at 1 for binary alphabets
    want2 = BUDGET_C * (1000 / 4 + 1000) + CONTAINER_ALLOWANCE_BITS
    assert envelope_bits(1000, 2, 4) == pytest.approx(want2)
