import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strindex import MalformedInputError, PredIndex, ProbeBudgetError
from strindex.bits import BitReader, BitWriter, width
from strindex.pred import (
    DIRECT_LIMIT,
    EMPTY_PRED_BITS,
    BlindTrie,
    _bucket_bits,
    budget,
)
from strindex.mmphf import widths


class CountingFetch:
    """Accessor over an explicit member list that counts its own calls."""

    def __init__(self, members):
        self.members = members
        self.calls = 0

    def __call__(self, rank):
        self.calls += 1
        return self.members[rank]


def check_all_ranks(members, sigma, k):
    ix = PredIndex(members, sigma, k)
    bound = budget(k)
    for p in range(sigma + 1):
        fetch = CountingFetch(members)
        got = ix.rank(p, fetch)
        want = sum(1 for x in members if x < p)
        assert got == want, (members, sigma, k, p, got, want)
        assert fetch.calls <= bound, (members, sigma, k, p, fetch.calls)


def test_hand_examples():
    ix = PredIndex([1, 2], 3, 1)
    assert ix.rank(1, CountingFetch([1, 2])) == 0
    assert PredIndex([], 8, 1).rank(0, CountingFetch([])) == 0
    assert PredIndex([], 8, 1).rank(5, CountingFetch([])) == 0
    assert PredIndex([1], 3, 1).rank(3, CountingFetch([1])) == 1


def test_exhaustive_all_subsets_small_sigma():
    for sigma in range(2, 8):
        g = width(sigma)
        universe = range(sigma)
        for size in range(sigma + 1):
            for members in combinations(universe, size):
                for k in range(1, g + 1):
                    check_all_ranks(list(members), sigma, k)


def test_exhaustive_all_subsets_sigma_10():
    sigma = 10
    g = width(sigma)
    for size in range(sigma + 1):
        for members in combinations(range(sigma), size):
            for k in range(1, g + 1):
                check_all_ranks(list(members), sigma, k)


def test_structured_path_against_brute_force():
    rng = random.Random(11)
    sigma = 2**16
    for m in (8, 33, 64, 256):
        members = sorted(rng.sample(range(sigma), m))
        for k in (1, 2, 4, 16):
            ix = PredIndex(members, sigma, k)
            bound = budget(k)
            probes = [0, sigma, sigma - 1]
            probes += [rng.randrange(sigma + 1) for _ in range(50)]
            for x in members[:20]:
                probes += [x, x + 1, max(0, x - 1)]
            for p in probes:
                fetch = CountingFetch(members)
                got = ix.rank(p, fetch)
                want = sum(1 for x in members if x < p)
                assert got == want, (m, k, p)
                assert fetch.calls <= bound


def test_construction_shape_every_gth_element():
    members = list(range(16))
    ix = PredIndex(members, 16, 2)
    assert ix.g == 4
    assert ix._top == [0, 4, 8, 12]


def test_direct_sets_store_nothing():
    for m in range(DIRECT_LIMIT + 1):
        ix = PredIndex(list(range(m)), 1024, 1)
        assert ix.nbits == EMPTY_PRED_BITS


def test_bits_shrink_with_larger_k():
    rng = random.Random(5)
    sigma = 2**16
    members = sorted(rng.sample(range(sigma), 256))
    b1 = PredIndex(members, sigma, 1).nbits
    b4 = PredIndex(members, sigma, 4).nbits
    assert b4 < b1


def test_bits_grow_roughly_linearly():
    rng = random.Random(6)
    sigma = 2**16
    for m in (64, 128, 256):
        small = sorted(rng.sample(range(sigma), m))
        large = sorted(rng.sample(range(sigma), 2 * m))
        ratio = PredIndex(large, sigma, 1).nbits / PredIndex(small, sigma, 1).nbits
        assert 1.5 <= ratio <= 2.5


def test_serialization_round_trip():
    rng = random.Random(7)
    sigma = 4096
    members = sorted(rng.sample(range(sigma), 100))
    for k in (1, 3, width(sigma)):
        ix = PredIndex(members, sigma, k)
        bw = BitWriter()
        bw.write(ix.payload, ix.nbits)
        assert bw.bit_length == ix.nbits
        g = PredIndex.read(BitReader(bw.getvalue()), ix.m, sigma, k)
        bw2 = BitWriter()
        bw2.write(g.payload, g.nbits)
        assert bw2.getvalue() == bw.getvalue()
        for p in [0, sigma] + [rng.randrange(sigma + 1) for _ in range(100)]:
            want = sum(1 for x in members if x < p)
            assert g.rank(p, CountingFetch(members)) == want


def test_build_rejects_malformed():
    with pytest.raises(MalformedInputError):
        PredIndex([3, 1], 8, 1)
    with pytest.raises(MalformedInputError):
        PredIndex([1, 1], 8, 1)
    with pytest.raises(MalformedInputError):
        PredIndex([9], 8, 1)
    with pytest.raises(MalformedInputError):
        PredIndex([1], 8, 99)
    with pytest.raises(MalformedInputError):
        PredIndex([1], 8, 0)


# -- blind trie ------------------------------------------------------------


def brute_predecessor_rank(keys, p):
    best = None
    for i, key in enumerate(keys):
        if key < p:
            best = i
    return best


def test_trie_hand_examples():
    fetch = CountingFetch([1, 2])
    trie = BlindTrie([1, 2], 2)
    assert trie.predecessor(2, fetch) == 0
    assert fetch.calls <= 3

    assert BlindTrie([1, 2], 2).predecessor(0, CountingFetch([1, 2])) is None
    assert BlindTrie([5], 3).predecessor(7, CountingFetch([5])) == 0


def test_trie_exhaustive_subsets():
    w = 3
    universe = range(8)
    for size in range(1, 9):
        for keys in combinations(universe, size):
            keys = list(keys)
            trie = BlindTrie(keys, w)
            for p in range(9):
                fetch = CountingFetch(keys)
                got = trie.predecessor(p, fetch)
                assert got == brute_predecessor_rank(keys, p), (keys, p)
                assert fetch.calls <= 3


def test_trie_randomized_wide_keys():
    rng = random.Random(3)
    w = 16
    for _ in range(200):
        size = rng.randrange(1, 40)
        keys = sorted(rng.sample(range(1 << w), size))
        trie = BlindTrie(keys, w)
        for p in [0, 1 << w] + [rng.randrange((1 << w) + 1) for _ in range(20)]:
            # predecessor is defined over [sigma], clamp the overflow probe
            p = min(p, (1 << w) - 1)
            fetch = CountingFetch(keys)
            assert trie.predecessor(p, fetch) == brute_predecessor_rank(keys, p)
            assert fetch.calls <= 3


@pytest.mark.parametrize("sigma", [2, 3, 8, 9, 64, 1000, 1024, 65537])
def test_payload_bits_closed_form_equals_the_bucket_loop(sigma):
    for k in range(1, width(sigma) + 1):
        w, sw = widths(sigma)
        for m in range(3 * w + 1):
            # One w-bit top key per bucket, then its samples past the first.
            loop = sum(w + _bucket_bits(min(w, m - base), k, w, sw)
                       for base in range(0, m, w))
            want = EMPTY_PRED_BITS if m <= DIRECT_LIMIT else loop
            assert PredIndex.payload_bits(m, sigma, k) == want, (m, sigma, k)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_payload_size_depends_only_on_m_sigma_and_k(data):
    sigma = data.draw(st.integers(min_value=2, max_value=1 << 16))
    k = data.draw(st.integers(min_value=1, max_value=width(sigma)))
    members = sorted(data.draw(st.sets(st.integers(0, sigma - 1), max_size=150)))
    ix = PredIndex(members, sigma, k)
    bw = BitWriter()
    bw.write(ix.payload, ix.nbits)
    assert PredIndex.payload_bits(len(members), sigma, k) == ix.nbits == bw.bit_length
    g = PredIndex.read(BitReader(bw.getvalue()), len(members), sigma, k)
    bw2 = BitWriter()
    bw2.write(g.payload, g.nbits)
    assert bw2.getvalue() == bw.getvalue()


# Recorded payloads that write() emits: (members, sigma, k, payload_bits,
# payload in hex).
_SPREAD = sorted({(i * 2654435761) % 4096 for i in range(100)})
_RECORDED = [
    (list(range(0, 32, 3)), 32, 2, 37, "8409f9e0"),
    (list(range(1, 32, 2)), 32, 1, 83, "110cc5046204113fd561"),
    (_SPREAD, 4096, 1, 663,
     "10690302102084204194a0230204108c08338c046021030842045280840420610940921020"
     "460c102108114a0408c18204108c48c0c08420c0821087280810840420418427f5cd88b859"
     "b17ae5ab3d71d4000"),
    (_SPREAD, 4096, 3, 272,
     "fd10614a0c38c0422809410108a0230c042280427f5cd88b859b17ae5ab3d71d4000"),
    (_SPREAD, 4096, 12, 108, "f5cd88b859b17ae5ab3d71d4000"),
    (list(range(DIRECT_LIMIT)), 1024, 1, 0, "0"),
]


@pytest.mark.parametrize("members, sigma, k, nbits, payload", _RECORDED,
                         ids=["trie", "tries", "spread-k1", "spread-k3",
                              "spread-top-only", "direct"])
def test_encode_is_the_recorded_payload(members, sigma, k, nbits, payload):
    payload = int(payload, 16)
    assert PredIndex.encode(members, sigma, k) == payload
    assert PredIndex.payload_bits(len(members), sigma, k) == nbits
    bw = BitWriter()
    ix = PredIndex(members, sigma, k)
    bw.write(ix.payload, ix.nbits)
    assert bw.bit_length == nbits
    assert bw.getvalue() == payload.to_bytes((nbits + 7) // 8, "little")


@pytest.mark.parametrize("members, sigma, k", [
    ([3, 1], 8, 1), ([1, 1], 8, 1), ([9], 8, 1), ([-1, 2], 8, 1), ([1], 8, 99),
    ([1], 8, 0), (list(range(20, 0, -1)), 64, 1),
])
def test_encode_rejects_what_the_constructor_rejects(members, sigma, k):
    with pytest.raises(MalformedInputError):
        PredIndex.encode(members, sigma, k)
    with pytest.raises(MalformedInputError):
        PredIndex(members, sigma, k)


@pytest.mark.parametrize("k", [2, 3, 6])
def test_count_raises_once_its_calls_pass_the_budget(k):
    # A search within budget(k) never meets the check, so the budget is cut
    # below what the costliest search needs and that search must raise.  At
    # k = 1 no binary search follows the bucket, and the check is not met.
    members = list(range(1, 64, 3))  # 21 members: top keys and buckets
    ix = PredIndex(members, 64, k)
    assert ix.m > DIRECT_LIMIT
    needed = {}
    for p in range(65):
        fetch = CountingFetch(members)
        assert ix.rank(p, fetch) == sum(1 for x in members if x < p)
        needed[p] = fetch.calls
    p = max(needed, key=needed.get)
    assert needed[p] >= 1
    ix._budget = needed[p] - 1
    with pytest.raises(ProbeBudgetError, match=rf"pred rank exceeded {needed[p] - 1} "
                                               rf"accessor calls \(k={k}\)"):
        ix.rank(p, CountingFetch(members))
