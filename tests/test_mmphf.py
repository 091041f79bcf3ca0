import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strindex import (
    CorruptIndexError,
    MalformedInputError,
    MonotoneHash,
    PredIndex,
    ShortcutTable,
)
from strindex.bits import BitReader, BitWriter, width
from strindex.mmphf import (
    SIZE_C,
    SIZE_CPRIME,
    _bucket,
    _bucket_bits,
    decode_trie,
    encode_trie,
    trie_bits,
    widths,
)
from strindex.pred import BlindTrie


def test_two_keys():
    h = MonotoneHash([1, 2], 3)
    assert h.eval(1) == 0
    assert h.eval(2) == 1


def test_empty_set():
    h = MonotoneHash([], 8)
    assert h.nbits == 0
    assert 0 <= h.eval(5) <= 0
    bw = BitWriter()
    bw.write(h.payload, h.nbits)
    assert bw.getvalue() == b""
    assert MonotoneHash.read(BitReader(b""), 0, 8).eval(5) == 0


def test_identity_on_full_universe():
    h = MonotoneHash(range(8), 8)
    for i in range(8):
        assert h.eval(i) == i


def test_hand_ranks():
    assert MonotoneHash([0, 3], 6).eval(3) == 1
    assert MonotoneHash([5], 8).eval(5) == 0
    assert MonotoneHash([1, 2], 3).eval(1) == 0


def test_eval_in_range_for_non_members():
    h = MonotoneHash([3, 9, 17, 40, 41], 64)
    for x in range(64):
        assert 0 <= h.eval(x) < 5


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_member_rank_identity(data):
    u = data.draw(st.integers(min_value=1, max_value=4096))
    keys = data.draw(
        st.lists(st.integers(min_value=0, max_value=u - 1), unique=True, max_size=200)
    )
    keys.sort()
    h = MonotoneHash(keys, u)
    for rank, key in enumerate(keys):
        assert h.eval(key) == rank


def test_build_rejects_malformed():
    with pytest.raises(MalformedInputError):
        MonotoneHash([2, 1], 4)
    with pytest.raises(MalformedInputError):
        MonotoneHash([1, 1], 4)
    with pytest.raises(MalformedInputError):
        MonotoneHash([1, 9], 8)


def _payload(h):
    bw = BitWriter()
    bw.write(h.payload, h.nbits)
    return bw.getvalue()


def test_rebuild_is_byte_identical():
    keys = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
    assert _payload(MonotoneHash(keys, 64)) == _payload(MonotoneHash(keys, 64))


def test_serialization_round_trip():
    keys = [1, 4, 6, 7, 100, 1000, 4095]
    blob = _payload(MonotoneHash(keys, 4096))
    g = MonotoneHash.read(BitReader(blob), len(keys), 4096)
    assert _payload(g) == blob
    for rank, key in enumerate(keys):
        assert g.eval(key) == rank


@pytest.mark.parametrize("u", [1, 2, 3, 5, 16, 17, 255, 1024, 65537, 1 << 40])
def test_payload_bits_closed_form_equals_the_bucket_loop(u):
    w, sw = widths(u)
    for m in range(3 * w + 1):
        # One w-bit separator before every bucket but the first.
        loop = max(0, sum(w + _bucket_bits(min(w, m - lo), sw)
                          for lo in range(0, m, w)) - w)
        assert MonotoneHash.payload_bits(m, u) == loop, (m, u)


def test_embedded_write_read_round_trip():
    keys = list(range(0, 300, 7))
    h = MonotoneHash(keys, 512)
    bw = BitWriter()
    bw.write(h.payload, h.nbits)
    assert bw.bit_length == h.nbits
    g = MonotoneHash.read(BitReader(bw.getvalue()), h.m, h.u)
    for rank, key in enumerate(keys):
        assert g.eval(key) == rank


def test_bits_meet_audit_bound():
    m, u = 64, 2**16
    keys = list(range(0, m * 1000, 1000))
    h = MonotoneHash(keys, u)
    beta = width(u)
    bound = SIZE_C * m * math.log2(math.log2(u)) + SIZE_CPRIME * (m / beta) * math.log2(u)
    assert h.nbits <= bound


def test_bits_grow_roughly_linearly():
    u = 2**16
    import random

    rng = random.Random(42)
    for m in (64, 128, 256):
        small = sorted(rng.sample(range(u), m))
        large = sorted(rng.sample(range(u), 2 * m))
        ratio = MonotoneHash(large, u).nbits / MonotoneHash(small, u).nbits
        assert 1.5 <= ratio <= 2.5


def test_tiny_universe():
    h = MonotoneHash([0, 1], 2)
    assert h.eval(0) == 0
    assert h.eval(1) == 1
    h = MonotoneHash([1], 2)
    assert h.eval(1) == 0


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_payload_size_depends_only_on_m_and_u(data):
    u = data.draw(st.integers(min_value=1, max_value=1 << 20))
    keys = sorted(data.draw(st.sets(st.integers(0, u - 1), max_size=120)))
    h = MonotoneHash(keys, u)
    bw = BitWriter()
    bw.write(h.payload, h.nbits)
    assert MonotoneHash.payload_bits(len(keys), u) == h.nbits == bw.bit_length
    g = MonotoneHash.read(BitReader(bw.getvalue()), len(keys), u)
    for rank, key in enumerate(keys):
        assert g.eval(key) == rank


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_eval_over_several_buckets(data):
    """Members map to their rank and every x into [0, max(m, 1)), m up to 3w."""
    u = data.draw(st.integers(min_value=1, max_value=4096))
    w = width(u)
    keys = sorted(data.draw(st.sets(st.integers(0, u - 1), max_size=min(u, 3 * w))))
    h = MonotoneHash(keys, u)
    for rank, key in enumerate(keys):
        assert h.eval(key) == rank
    for x in data.draw(st.lists(st.integers(0, u - 1), max_size=40)):
        assert 0 <= h.eval(x) < max(len(keys), 1)
    bw = BitWriter()
    bw.write(h.payload, h.nbits)
    g = MonotoneHash.read(BitReader(bw.getvalue()), len(keys), u)
    assert [g.eval(x) for x in range(min(u, 512))] == [h.eval(x) for x in range(min(u, 512))]


def test_equal_buckets_are_one_object_through_one_memo():
    u = 64  # w = 6: buckets of up to 6 keys, so 7+ keys span several buckets
    rng = random.Random(4)
    streams = []
    for _ in range(2):  # two loads' worth of hashes, read through one memo
        sets = [sorted(rng.sample(range(u), m)) for m in (1, 2, 3, 4, 7, 8, 13, 20)
                for _ in range(15)]
        bw = BitWriter()
        for keys in sets:
            h = MonotoneHash(keys, u)
            bw.write(h.payload, h.nbits)
        streams.append((sets, bw.getvalue()))
    memo = {}
    hashes = []
    for sets, payload in streams:
        br = BitReader(payload)
        hashes += [MonotoneHash.read(br, len(keys), u, memo) for keys in sets]
    for h, keys in zip(hashes, [k for sets, _ in streams for k in sets]):
        assert [h.eval(key) for key in keys] == list(range(len(keys)))
    buckets = [b for h in hashes for b in h._buckets]
    ids = {}
    for b in buckets:
        ids.setdefault(b, set()).add(id(b))
    assert all(len(same) == 1 for same in ids.values())
    first = {id(b) for h in hashes[:len(hashes) // 2] for b in h._buckets}
    second = {id(b) for h in hashes[len(hashes) // 2:] for b in h._buckets}
    assert len(first & second) > 10  # the second load reuses the first's


def test_read_shares_equal_payloads_through_memo():
    bw = BitWriter()
    for keys in ([3, 9], [1, 3], [2, 9], [5]):  # [3, 9] and [2, 9] split at bit 0
        h = MonotoneHash(keys, 16)
        bw.write(h.payload, h.nbits)
    br = BitReader(bw.getvalue())
    memo = {}
    a, b, c, d = (MonotoneHash.read(br, m, 16, memo) for m in (2, 2, 2, 1))
    assert a is c and a is not b
    assert d is MonotoneHash.read(BitReader(b""), 1, 16, memo)


def _reference_shape(keys, w):
    """(shift, left, right, minleaf, maxleaf) of the compacted trie, built
    top-down by splitting each key range at its first key with a 1 at the
    highest bit where the range's first and last keys differ."""
    shift, left, right, minleaf, maxleaf = [], [], [], [], []

    def rec(lo, hi):
        if hi - lo == 1:
            return ~lo
        bit = (keys[lo] ^ keys[hi - 1]).bit_length() - 1
        node = len(shift)
        shift.append(bit)
        minleaf.append(lo)
        maxleaf.append(hi - 1)
        left.append(0)
        right.append(0)
        split = next(i for i in range(lo, hi) if (keys[i] >> bit) & 1)
        left[node] = rec(lo, split)
        right[node] = rec(split, hi)
        return node

    rec(0, len(keys))
    return tuple(map(tuple, (shift, left, right, minleaf, maxleaf)))


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_decode_trie_inverts_encode_trie(data):
    w = data.draw(st.integers(min_value=1, max_value=16))
    keys = sorted(data.draw(st.sets(st.integers(0, (1 << w) - 1), min_size=1,
                                    max_size=40)))
    s = len(keys)
    sw = width(w)
    payload = encode_trie(keys, w, sw)
    size = trie_bits(s, sw)
    shape = _reference_shape(keys, w)
    assert payload < 1 << size
    # Bits past the documented size are never read ...
    junk = data.draw(st.integers(0, 255))
    assert decode_trie(payload | junk << size, s, w, sw) == shape
    # ... and the last of them is the last leaf's 0 bit.
    with pytest.raises(CorruptIndexError):
        decode_trie(payload | 1 << (size - 1), s, w, sw)


@pytest.mark.parametrize("keys, w", [
    ([3, 9, 17, 40, 41], 6), ([0, 1, 2], 2), (list(range(5, 1024, 85)), 10),
])
def test_hash_bucket_and_blind_trie_are_one_trie_form(keys, w):
    """One encode_trie payload decodes to the same (shift, left, right) nodes
    as a hash bucket and as a predecessor bucket trie."""
    sw = width(w)
    payload = encode_trie(keys, w, sw)
    bucket = _bucket(payload, len(keys), w, sw)
    trie = object.__new__(BlindTrie)._decode(payload, len(keys), w, sw)
    nodes = list(zip(*bucket))
    assert nodes == list(zip(trie.shift, trie.left, trie.right))
    assert len(nodes) == len(keys) - 1
    assert all(0 <= shift < w for shift, _, _ in nodes)


# Recorded payloads that write() emits: (keys, u, payload_bits, payload in hex).
# A pair bucket is its branch depth alone, sw bits.
_SPREAD = sorted({(i * 2654435761) % 4096 for i in range(100)})
_RECORDED = [
    ([3, 9], 16, 2, "0"),
    ([3, 9, 17, 40, 41], 64, 21, "48111"),
    (list(range(0, 1000, 37)), 1024, 173, "410204210c1810211808430808c0420408423b9172"),
    (list(range(5, 1024, 85)), 1024, 69, "40108404202108757"),
    (_SPREAD, 4096, 651,
     "10690302102084204194a0230204108c08338c046021030842045280840420610940921020"
     "460c102108114a0408c18204108c48c0c08420c0821087280810840420418427f5cd88b859"
     "b17ae5ab3d71d4"),
]


@pytest.mark.parametrize("keys, u, nbits, payload", _RECORDED,
                         ids=["pair", "trie", "samples", "pair-last", "spread"])
def test_encode_is_the_recorded_payload(keys, u, nbits, payload):
    payload = int(payload, 16)
    assert MonotoneHash.encode(keys, u) == payload
    assert MonotoneHash.payload_bits(len(keys), u) == nbits
    bw = BitWriter()
    h = MonotoneHash(keys, u)
    bw.write(h.payload, h.nbits)
    assert bw.bit_length == nbits
    assert bw.getvalue() == payload.to_bytes((nbits + 7) // 8, "little")


@pytest.mark.parametrize("keys, u", [
    ([2, 1], 4), ([1, 1], 4), ([1, 9], 8), ([-1, 2], 4), ([0], 0),
])
def test_encode_rejects_what_the_constructor_rejects(keys, u):
    with pytest.raises(MalformedInputError):
        MonotoneHash.encode(keys, u)
    with pytest.raises(MalformedInputError):
        MonotoneHash(keys, u)


_PI = [3, 0, 4, 1, 2, 6, 5, 9, 7, 8]
_KEYS = [1, 3, 4, 9, 12]
_MEMBERS = list(range(0, 40, 2))  # past DIRECT_LIMIT: a top array and buckets
_EVALUATORS = {
    "invert": lambda q: ShortcutTable(_PI.__getitem__, 10, 2).invert(q, _PI.__getitem__),
    "eval": lambda x: MonotoneHash(_KEYS, 16).eval(x),
    "rank": lambda p: PredIndex(_MEMBERS, 64, 2).rank(p, _MEMBERS.__getitem__),
    "predecessor": lambda p: BlindTrie(_KEYS, 4).predecessor(p, _KEYS.__getitem__),
}


@pytest.mark.parametrize("arg", [1.5, 2.0, "1", None])
@pytest.mark.parametrize("name", sorted(_EVALUATORS))
def test_public_evaluators_reject_a_non_integer(name, arg):
    """The adapters over a plain evaluator raise MalformedInputError for a
    non-integer argument, and take True as 1."""
    evaluate = _EVALUATORS[name]
    with pytest.raises(MalformedInputError, match="must be an integer"):
        evaluate(arg)
    assert evaluate(True) == evaluate(1)


@pytest.mark.parametrize("keys", [
    [0.5, 1], [2.0], [1.5, 2], [0.5, 3, 9], [i + 0.5 for i in range(20)], ["1", "2"],
])
@pytest.mark.parametrize("make", [
    lambda keys: MonotoneHash(keys, 64),
    lambda keys: MonotoneHash.encode(keys, 64),
    lambda keys: PredIndex(keys, 64, 1),
    lambda keys: PredIndex.encode(keys, 64, 1),
    lambda keys: BlindTrie(keys, 6),
], ids=["hash", "hash-encode", "pred", "pred-encode", "blind-trie"])
def test_sets_reject_non_integer_keys(make, keys):
    with pytest.raises(MalformedInputError, match="strictly increasing integers"):
        make(keys)
    make([False, True])  # a bool is an integer
