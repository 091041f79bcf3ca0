import gc
import hashlib
import random
import struct
import sys
import zlib
from array import array
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strindex import (
    BadSymbolError,
    CorruptIndexError,
    MalformedInputError,
    OutOfRangeError,
    PairingError,
    ProbeBudgetError,
    ProbeSession,
    ProbedText,
    StringIndex,
    StrindexError,
    build,
    max_k,
    rank_budget,
    select_budget,
)
from strindex.audit import Reference, make_workload
from strindex.bits import BitReader, BitWriter, ef_bits, typecode, unary_counts, width
from strindex.index import (
    _HEADER,
    _TABLE_ENTRY,
    _TAG_MMPHF,
    _TAG_PRED,
    _TAG_SHORT,
    _TAG_Z,
    _TAGS,
    _set_forms,
)
import strindex.index
from strindex.mmphf import MemberList, MonotoneHash
from strindex.perm import ShortcutTable, eval_budget
from strindex.pred import _EXPLICIT, _TRIE, PredIndex
from strindex.text import RecordingText
from conftest import brute_rank, brute_select, make_random_text, positions_of


def bits_of(data):
    """The bits of `data`, bit 0 of byte 0 first."""
    return "".join(f"{byte:08b}"[::-1] for byte in data)


def test_build_block_decomposition(sample_text):
    built = build(sample_text, t=1, k=1)
    blob = built.to_bytes()
    for ix in (built, StringIndex.from_bytes(blob)):
        assert len(ix.blocks) == 2
        off, length = _section(blob, _TAG_Z)
        assert ix.z == blob[off:off + length]
        # Block 0's Z, then block 1's, then zero padding to a byte.
        assert bits_of(ix.z) == "101010" + "110100" + "0000"


def test_single_block_cross_vectors():
    text = ProbedText([2, 0, 1, 2], 4)  # n == sigma: one block
    ix = build(text, t=1)
    assert len(ix.blocks) == 1
    # Row c of the routing table: c's occurrences before block 0, then count(c).
    assert list(ix.before) == [0, 1, 0, 1, 0, 2, 0, 0]


def test_absent_character_short_circuits():
    text = ProbedText([0, 0, 0, 0], 2)
    ix = build(text, t=3)
    for blk in ix.blocks:
        assert blk.hashes[1] is None and blk.preds[1] is None
    sess = ProbeSession()
    assert ix.select(text, sess, 1, 1) == -1
    assert sess.count == 0
    sess = ProbeSession()
    assert ix.rank(text, sess, 1, 4) == 0
    assert sess.count == 0


def test_access(sample_text):
    ix = build(sample_text, t=1)
    sess = ProbeSession()
    assert ix.access(sample_text, sess, 4) == 0
    assert sess.count == 1
    assert ix.access(sample_text, sess, 0) == 1
    assert sess.count == 2
    with pytest.raises(OutOfRangeError):
        ix.access(sample_text, sess, 6)
    assert sess.count == 2


def test_select_examples(sample_text):
    ix = build(sample_text, t=1)
    sess = ProbeSession()
    assert ix.select(sample_text, sess, 0, 2) == 4
    assert sess.count <= select_budget(1)
    sess = ProbeSession()
    assert ix.select(sample_text, sess, 2, 2) == -1
    assert sess.count == 0
    two = ProbedText([0, 0], 2)
    assert build(two, t=1).select(two, ProbeSession(), 0, 1) == 0


def test_rank_examples(sample_text):
    ix = build(sample_text, t=1)
    assert ix.rank(sample_text, ProbeSession(), 0, 4) == 1
    for c in range(3):
        assert ix.rank(sample_text, ProbeSession(), c, 0) == 0
    assert ix.rank(sample_text, ProbeSession(), 0, 6) == 3
    total = sum(ix.rank(sample_text, ProbeSession(), c, 6) for c in range(3))
    assert total == 6


def test_query_domain_errors(sample_text):
    ix = build(sample_text, t=1)
    with pytest.raises(BadSymbolError):
        ix.select(sample_text, ProbeSession(), 3, 1)
    with pytest.raises(BadSymbolError):
        ix.rank(sample_text, ProbeSession(), -1, 2)
    with pytest.raises(OutOfRangeError):
        ix.rank(sample_text, ProbeSession(), 0, 7)
    with pytest.raises(OutOfRangeError):
        ix.select(sample_text, ProbeSession(), 0, 0)


def test_build_parameter_validation(sample_text):
    with pytest.raises(MalformedInputError):
        build(sample_text, t=0)
    with pytest.raises(MalformedInputError):
        build(sample_text, t=1, k=max_k(sample_text.sigma) + 1)
    with pytest.raises(MalformedInputError):
        build(sample_text, t=1, k=0)
    with pytest.raises(MalformedInputError):
        build(ProbedText([0, 0, 0], 1), t=1)


@pytest.mark.parametrize("t, k", [
    (2.5, 1), ("2", 1), (None, 1), (2, 1.5), (2, "1"), (1 << 32, 1), (-(1 << 32), 1),
])
def test_build_rejects_a_t_or_k_that_is_not_a_u32_integer(sample_text, t, k):
    """t and k are header u32 fields: a non-integer or one past 2**32 - 1 is
    malformed input, not a TypeError, AttributeError or struct.error."""
    with pytest.raises(MalformedInputError):
        build(sample_text, t, k)
    top = build(sample_text, (1 << 32) - 1, True)  # the largest t; a bool is an int
    assert (top.t, top.k) == ((1 << 32) - 1, 1)
    assert StringIndex.from_bytes(top.to_bytes()).t == top.t


def test_exhaustive_small_strings():
    for sigma in (2, 3):
        for n in range(sigma, 6):
            for tup in product(range(sigma), repeat=n):
                text = ProbedText(tup, sigma)
                occ = positions_of(text)
                for t, k in ((1, 1), (2, 1), (3, 2)):
                    if k > max_k(sigma):
                        continue
                    ix = build(text, t, k)
                    for c in range(sigma):
                        for p in range(n + 1):
                            sess = ProbeSession()
                            assert ix.rank(text, sess, c, p) == brute_rank(occ, c, p)
                            assert sess.count <= rank_budget(t, k)
                        for j in range(1, n + 2):
                            sess = ProbeSession()
                            assert ix.select(text, sess, c, j) == brute_select(occ, c, j)
                            assert sess.count <= select_budget(t)


def test_randomized_equivalence_and_budgets():
    rng = random.Random(20)
    for sigma, t, k in ((16, 2, 1), (64, 4, 2), (256, 7, 3)):
        text = make_random_text(2048, sigma, seed=sigma + t)
        occ = positions_of(text)
        ix = build(text, t, k)
        for _ in range(300):
            c = rng.randrange(sigma)
            p = rng.randrange(text.n + 1)
            j = rng.randrange(1, text.n + 1)
            sess = ProbeSession()
            assert ix.rank(text, sess, c, p) == brute_rank(occ, c, p)
            assert sess.count <= rank_budget(t, k)
            sess = ProbeSession()
            assert ix.select(text, sess, c, j) == brute_select(occ, c, j)
            assert sess.count <= select_budget(t)
            sess = ProbeSession()
            i = rng.randrange(text.n)
            assert ix.access(text, sess, i) == text.symbols()[i]
            assert sess.count == 1


def test_galois_identities():
    text = make_random_text(1000, 16, seed=77)
    occ = positions_of(text)
    ix = build(text, t=2)
    for c in range(16):
        total = len(occ.get(c, ()))
        for j in range(1, total + 1):
            pos = ix.select(text, ProbeSession(), c, j)
            assert pos != -1
            assert text.symbols()[pos] == c
            assert ix.rank(text, ProbeSession(), c, pos) == j - 1
        for p in (0, 1, 500, 999, 1000):
            r = ix.rank(text, ProbeSession(), c, p)
            if r > 0:
                assert ix.select(text, ProbeSession(), c, r) < p
            nxt = ix.select(text, ProbeSession(), c, r + 1)
            if nxt != -1:
                assert nxt >= p


def test_permutation_round_trip_per_block():
    text = make_random_text(600, 32, seed=5)
    ix = build(text, t=3)
    symbols = text.symbols()
    for blk in ix.blocks:
        seen = {}
        base = {}
        acc = 0
        counts = [0] * text.sigma
        for i in range(blk.length):
            counts[symbols[blk.start + i]] += 1
        for c in range(text.sigma):
            base[c] = acc
            acc += counts[c]
        pi = []
        for i in range(blk.length):
            c = symbols[blk.start + i]
            pi.append(base[c] + seen.get(c, 0))
            seen[c] = seen.get(c, 0) + 1
        for i in range(blk.length):
            assert blk.shortcuts.invert(pi[i], pi.__getitem__) == i


def test_serialization_round_trip_and_reload_answers():
    text = make_random_text(3000, 64, seed=8)
    occ = positions_of(text)
    ix = build(text, t=4, k=2)
    blob = ix.to_bytes()
    back = StringIndex.from_bytes(blob)
    assert back.to_bytes() == blob
    for built, loaded in zip(ix.blocks, back.blocks):
        a, b = built.shortcuts, loaded.shortcuts
        assert (a.payload, a.nbits, a.jumps) == (b.payload, b.nbits, b.jumps)
    rng = random.Random(4)
    for _ in range(200):
        c = rng.randrange(64)
        p = rng.randrange(3001)
        j = rng.randrange(1, 200)
        s1, s2 = ProbeSession(), ProbeSession()
        assert ix.rank(text, s1, c, p) == back.rank(text, s2, c, p) == brute_rank(occ, c, p)
        assert s1.count == s2.count
        s1, s2 = ProbeSession(), ProbeSession()
        assert ix.select(text, s1, c, j) == back.select(text, s2, c, j) == brute_select(occ, c, j)
        assert s1.count == s2.count


def test_deserialization_errors():
    text = make_random_text(100, 8, seed=1)
    blob = build(text, t=2).to_bytes()
    with pytest.raises(CorruptIndexError):
        StringIndex.from_bytes(blob[:10])
    with pytest.raises(CorruptIndexError):
        StringIndex.from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CorruptIndexError):
        StringIndex.from_bytes(blob[:4] + b"\x09" + blob[5:])  # bad version
    with pytest.raises(CorruptIndexError):
        StringIndex.from_bytes(blob[:-3])  # truncated section


def _patch_header(blob, **fields):
    names = ("magic", "version", "n", "sigma", "t", "k", "fingerprint", "nsections")
    header = dict(zip(names, _HEADER.unpack_from(blob, 0)))
    header.update(fields)
    return _HEADER.pack(*(header[name] for name in names)) + blob[_HEADER.size:]


@pytest.mark.parametrize("fields", [
    {"version": 1},  # v1 files must be rebuilt
    {"version": 2},  # v2 fingerprints are FNV-1a; rebuild from the text
    {"version": 3},  # v3 stores every mark bit and targets as positions
    {"sigma": 0},
    {"sigma": 1},
    {"sigma": 101},  # sigma > n
    {"t": 0},
    {"k": 0},
    {"k": 99},
    {"n": 2**40},  # Z section far shorter than the header implies
], ids=lambda fields: ",".join(f"{k}={v}" for k, v in fields.items()))
def test_bad_header_fields_are_corrupt(fields):
    blob = build(make_random_text(100, 8, seed=1), t=2).to_bytes()
    with pytest.raises(CorruptIndexError):
        StringIndex.from_bytes(_patch_header(blob, **fields))


def _section(blob, tag):
    """(offset, length) of section `tag` in a serialized index."""
    for i in range(_HEADER.unpack_from(blob, 0)[-1]):
        got, off, length = _TABLE_ENTRY.unpack_from(
            blob, _HEADER.size + i * _TABLE_ENTRY.size
        )
        if got == tag:
            return off, length
    raise KeyError(tag)


@pytest.mark.parametrize("tag", [_TAG_Z], ids=["z"])
@pytest.mark.parametrize("where", [0.0, 0.37, 1.0])
def test_unary_payload_bit_flip_is_corrupt(tag, where):
    text = make_random_text(100, 8, seed=1)
    ix = build(text, t=2)
    blob = bytearray(ix.to_bytes())
    # The section holds n ones and sigma zeros per block; flip one of them.
    bit = round(where * (text.n + len(ix.blocks) * text.sigma - 1))
    blob[_section(blob, tag)[0] + bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(CorruptIndexError):
        StringIndex.from_bytes(bytes(blob))


def _restamp(blob):
    """`blob` with its CRC32 trailer recomputed, so that only structure checks
    can reject it."""
    return bytes(blob[:-4]) + struct.pack("<I", zlib.crc32(blob[:-4]))


def test_one_moved_between_blocks_is_corrupt():
    # sigma=8: every block holds all 8 symbols, so its Z ends in "10".
    text = ProbedText(list(range(8)) * 3, 8)
    ix = build(text, t=2)
    bits = bits_of(ix.z)
    assert bits[:16] == "10" * 8
    # Block 0's last one moves to the start of block 1's Z: the section keeps
    # its ones and zeros, and only block 0's Z (its first 16 bits) ends in a 1.
    moved = bits[:14] + "01" + bits[16:]
    blob = bytearray(ix.to_bytes())
    off, length = _section(blob, _TAG_Z)
    blob[off:off + length] = int(moved[::-1], 2).to_bytes(length, "little")
    with pytest.raises(CorruptIndexError, match="runs each closed by a zero"):
        StringIndex.from_bytes(_restamp(blob))


def _relaid(blob, table, body):
    """A file with blob's header fields, the given (tag, offset, length) table
    and body, and a valid checksum."""
    return _restamp(_patch_header(blob, nsections=len(table))[:_HEADER.size]
                    + b"".join(_TABLE_ENTRY.pack(*entry) for entry in table)
                    + body + bytes(4))


@pytest.mark.parametrize("fault", ["inserted", "gap", "duplicate", "unknown"])
def test_sections_must_tile_the_file(fault):
    blob = build(make_random_text(100, 8, seed=1), t=2).to_bytes()
    table = [_TABLE_ENTRY.unpack_from(blob, _HEADER.size + i * _TABLE_ENTRY.size)
             for i in range(len(_TAGS))]
    first = _HEADER.size + len(table) * _TABLE_ENTRY.size
    body = blob[first:-4]
    if fault == "inserted":  # two bytes between the last section and the trailer
        bad = _relaid(blob, table, body + b"\x00\x00")
    elif fault == "gap":  # one byte before the shortcut section
        tag, off, length = table[-1]
        split = off - first
        bad = _relaid(blob, table[:-1] + [(tag, off + 1, length)],
                      body[:split] + b"\x00" + body[split:])
    else:  # a fifth entry, which shifts every section by one entry
        extra = table[-1] if fault == "duplicate" else (9, len(blob) - 4, 0)
        table = [(tag, off + _TABLE_ENTRY.size, length)
                 for tag, off, length in table + [extra]]
        bad = _relaid(blob, table, body)
    with pytest.raises(CorruptIndexError, match="tile"):
        StringIndex.from_bytes(bad)


def _zipf_text(n, sigma, seed):
    rng = random.Random(seed)
    cum, acc = [], 0
    for r in range(sigma):
        acc += 10**6 // (r + 1)
        cum.append(acc)
    return ProbedText([bisect_right(cum, rng.randrange(acc)) for _ in range(n)], sigma)


def _trie_text():
    """A text whose index at k = 3 keeps predecessor tries: at sigma = 256
    and k = 3 a hash plus a predecessor set is smaller than a member list
    only at m = 8, whose one bucket of g = 8 members keeps 3 samples in a
    trie, and three sets of its first block hold 8 members.  At sigma 64 or
    less no set keeps a predecessor set past direct search."""
    return _zipf_text(300, 256, seed=9)


@pytest.mark.parametrize("text, t, k, sha256", [
    (make_random_text(3000, 64, seed=11), 4, 2,
     "b37c357d773593e5fa0fdeb2fc724dd79ae58d502021ceb81a43adc97d4b9c03"),
    (_zipf_text(3000, 16, seed=12), 2, 2,
     "890dd99233a29691be8673313c8bb689ada2745dcee06d7d90e44630f28aa1ac"),
], ids=["uniform", "zipf"])
def test_index_bytes_are_pinned(text, t, k, sha256):
    ix = build(text, t, k)
    blob = ix.to_bytes()
    assert hashlib.sha256(blob).hexdigest() == sha256
    back = StringIndex.from_bytes(blob)
    assert [blk.base for blk in back.blocks] == [blk.base for blk in ix.blocks]


_PINNED_TEXTS = {
    "uniform": make_random_text(3000, 64, seed=11),
    "zipf": _zipf_text(3000, 16, seed=12),
}


_PINNED_PROBES = [
    ("uniform", 1, "e7e057a9c41d3e0fafac16b37c215df3d3159d6228553a220b2861cd2d5a7c6d"),
    ("uniform", 2, "971d20ad2c34f690ded12051675c189c1b429b1fb32812202e93e9526dfe995b"),
    ("uniform", 5, "7456d64de19991b507c51982ce25e1b94a40f25d9e37538250e2d245dbd10949"),
    ("zipf", 1, "374e5453966dd430473b9bfcc20d89b4698d0bcc8cef60ea9a8d18ed3105d0ac"),
    ("zipf", 2, "569c3132b274426df326690ac0c20f17a867c2e1a9f84d79b6dc626194d6a17f"),
    ("zipf", 5, "f2bcb3e3d1d9a19ea3faec2659bd62ae0a098f4178bf3b955cda4782aed0c15b"),
]


@pytest.mark.parametrize("name, t, sha256", _PINNED_PROBES,
                         ids=[f"{name}-t{t}" for name, t, _ in _PINNED_PROBES])
def test_probe_counts_are_pinned(name, t, sha256):
    """Each query's probe count on a fixed workload; an optimisation must leave
    every one unchanged."""
    text = _PINNED_TEXTS[name]
    ix = build(text, t, k=2)
    probes = []
    for kind, c, arg in make_workload(text, 1500, seed=t):
        session = ProbeSession()
        getattr(ix, kind)(text, session, c, arg)
        probes.append(session.count)
    assert hashlib.sha256(",".join(map(str, probes)).encode()).hexdigest() == sha256


def test_each_set_takes_the_smaller_form_and_open_sizes_as_build_does():
    """For every sigma in 2-1100, every k and every m: a symbol's sets are a
    member list exactly where it is strictly smaller than a hash plus a
    predecessor set, and then the predecessor section stores nothing for
    them, so the stored bits are the smaller form's.  The tables open makes,
    up to the largest count, are the start of build's.  Past the last m
    where a list is no smaller than a hash alone, the list is the smaller
    form at every k, since a predecessor set only adds bits; below it each
    k is checked."""
    for sigma in range(2, 1101):
        ms = range(sigma + 1)
        lists = [min(sigma, ef_bits(m, sigma)) for m in ms]
        hashes = [MonotoneHash.payload_bits(m, sigma) for m in ms]
        band = max(m for m in ms if lists[m] >= hashes[m]) + 1
        built = list(_set_forms(sigma, 1, sigma))
        assert built[0][band:] == [MemberList] * (sigma + 1 - band)
        assert built[1][band:] == lists[band:]
        assert built[2][band:] == [0] * (sigma + 1 - band)
        for k in range(1, max_k(sigma) + 1):
            want = [[], [], []]
            for m in range(band):
                e, h, p = lists[m], hashes[m], PredIndex.payload_bits(m, sigma, k)
                form = (MemberList, e, 0) if e < h + p else (MonotoneHash, h, p)
                assert form[1] + form[2] == min(e, h + p)
                for column, value in zip(want, form):
                    column.append(value)
            got = list(_set_forms(sigma, k, band - 1))
            assert got == want, (sigma, k)
            if k == 1:
                assert got == [column[:band] for column in built]


def test_a_rank_on_a_listed_symbol_makes_no_probe():
    """On the pinned zipf text, every rank inside a block on a symbol whose
    sets there are a member list: the oracle's answer, for no probe."""
    text = _PINNED_TEXTS["zipf"]
    ix = build(text, t=2, k=2)
    occ = positions_of(text)
    ranks = 0
    for blk in ix.blocks:
        for c, pred in enumerate(blk.preds):
            if type(pred) is not MemberList:
                continue
            assert blk.hashes[c] is pred
            for p in range(blk.start + 1, blk.start + blk.length):
                session = ProbeSession()
                assert ix.rank(text, session, c, p) == brute_rank(occ, c, p)
                assert session.count == 0, (c, p)
                ranks += 1
    assert ranks > 1000


def test_a_member_list_past_a_short_last_block_is_corrupt():
    """The last block holds 8 positions, and symbol 0 six of them: a list of
    16 plain bits at sigma = 16, the whole hash section.  Moving its last
    member to position 12, below sigma but past the block, keeps it a list
    the codec reads; the block's decode rejects it."""
    text = ProbedText(list(range(16)) + [0] * 6 + [1, 2], 16)
    ix = build(text, t=2)
    assert type(ix.blocks[1].hashes[0]) is MemberList
    blob = bytearray(ix.to_bytes())
    off, length = _section(blob, _TAG_MMPHF)
    assert blob[off:off + length] == bytes([0b00111111, 0])
    blob[off:off + 2] = bytes([0b00011111, 0b00010000])
    loaded = StringIndex.from_bytes(_restamp(blob))
    assert loaded.select(text, ProbeSession(), 0, 1) == 0  # block 0 decodes
    with pytest.raises(CorruptIndexError, match="member list past its block's 8"):
        loaded.rank(text, ProbeSession(), 0, 18)
    assert loaded._blocks[1] is None


def test_pairing_mismatch_detected_at_query_time():
    text = make_random_text(100, 8, seed=2)
    other = make_random_text(100, 8, seed=3)
    ix = build(text, t=2)
    with pytest.raises(PairingError):
        ix.rank(other, ProbeSession(), 0, 10)
    with pytest.raises(PairingError):
        ix.select(other, ProbeSession(), 0, 1)
    with pytest.raises(PairingError):
        ix.access(other, ProbeSession(), 0)


def test_build_is_deterministic():
    text = make_random_text(500, 16, seed=6)
    assert build(text, t=3, k=2).to_bytes() == build(text, t=3, k=2).to_bytes()


def test_space_report_components_sum():
    text = make_random_text(2000, 32, seed=7)
    for t in (8, 2):  # Elias-Fano marks at L = 32, then plain mark bits
        ix = build(text, t)
        rep = ix.space_report()
        tables = [blk.shortcuts for blk in ix.blocks]
        marks = [sum(map(bool, table.jumps)) for table in tables]
        assert rep.shortcut_target_bits == sum(m * width(m) for m in marks)
        assert rep.shortcut_bits == sum(table.nbits for table in tables)
        assert (rep.shortcut_bits < text.n) == (t == 8)
    parts = (rep.z_bits + rep.cross_bits + rep.mmphf_bits + rep.pred_bits
             + rep.shortcut_bits + rep.header_bits)
    assert parts == rep.total_bits
    assert rep.total_bits == 8 * len(ix.to_bytes())
    # unary scaffolding sizes are fully determined by (n, sigma, #blocks)
    nblocks = len(ix.blocks)
    assert rep.cross_bits == 0  # the file has no cross section
    assert rep.z_bits == text.n + text.sigma * nblocks
    jump_bits = sum(8 * blk.shortcuts.jumps.itemsize * len(blk.shortcuts.jumps)
                    for blk in ix.blocks)
    base_bits = 8 * ix.blocks[0].base.itemsize * text.sigma * nblocks
    table_bits = 8 * ix.before.itemsize * text.sigma * (nblocks + 1)
    assert rep.directory_bits == jump_bits + base_bits + table_bits


@st.composite
def _section_texts(draw):
    """(symbols, sigma, k): blocks of distinct symbols, whose sets store
    nothing, of a few heavy symbols, whose sets store wide payloads, or of
    any symbols; the last block may be partial."""
    sigma = draw(st.integers(2, 64))
    symbols = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["distinct", "heavy", "any"]))
        if kind == "distinct":
            symbols += draw(st.permutations(range(sigma)))
        else:
            pool = (st.integers(0, sigma - 1) if kind == "any" else
                    st.sampled_from(draw(st.lists(st.integers(0, sigma - 1),
                                                  min_size=1, max_size=3))))
            symbols += draw(st.lists(pool, min_size=sigma, max_size=sigma))
    if len(symbols) > sigma and draw(st.booleans()):
        del symbols[-draw(st.integers(1, sigma - 1)):]
    return symbols, sigma, draw(st.integers(1, max_k(sigma)))


# Block 0 stores nothing in either set section; in block 1, symbol 0's 81
# members are a list of 128 plain bits, which is also its predecessor entry.
_EDGE_TEXT = (list(range(128)) + [0] * 80 + list(range(1, 49)), 128, 2)


@pytest.mark.parametrize("t", [4, 5, 8])
def test_open_and_read_agree_on_every_tables_size(t):
    """The offsets open records in the shortcut section, from each table's
    leading field, are where ShortcutTable.read, reading the tables in turn,
    starts each one; at t = 4 the tables keep plain mark bits, at t = 5 and
    t = 8 the full ones an Elias-Fano list, and the last block is short: at
    t = 5 in plain bits, at t = 8 as a list."""
    text = make_random_text(64 * 5 + 37, 64, seed=9)
    ix = build(text, t)
    section, offsets, _ = ix._sections[-1]  # as open left them
    br = BitReader(section)
    for b, blk in enumerate(ix.blocks):
        assert br.bits_consumed == offsets[b]
        table = ShortcutTable.read(br, blk.length, t)
        want = blk.shortcuts
        assert (table.payload, table.nbits, table.jumps) == (want.payload, want.nbits,
                                                             want.jumps)
    assert br.bits_consumed == offsets[-1] == ix.space_report().shortcut_bits
    assert [blk.length for blk in ix.blocks][-1] == 37
    m = sum(map(bool, ix.blocks[0].shortcuts.jumps))
    assert (offsets[1] - m * width(m) < 64) == (t >= 5)  # block 0's marks
    m = sum(map(bool, ix.blocks[-1].shortcuts.jumps))
    assert (offsets[-1] - offsets[-2] - m * width(m) < 37) == (t == 8)  # the last's


def test_edge_text_has_an_empty_block_and_a_wide_payload():
    symbols, sigma, k = _EDGE_TEXT
    ix = build(ProbedText(symbols, sigma), t=2, k=k)
    sizes = [[s.nbits for s in blk.hashes if s is not None] for blk in ix.blocks]
    assert sum(sizes[0]) == 0 and max(sizes[1]) > 64
    wide = ix.blocks[1].hashes[0]
    assert type(wide) is MemberList and ix.blocks[1].preds[0] is wide
    assert ix.space_report().pred_bits == 0


@settings(deadline=None, max_examples=100)
@given(_section_texts())
@example(_EDGE_TEXT)
def test_set_sections_are_the_per_set_writes(case):
    symbols, sigma, k = case
    ix = build(ProbedText(symbols, sigma), t=2, k=k)
    blob = ix.to_bytes()  # the bytes the index holds, which build packed
    # A member list is written once, in the hash section.
    for tag, per_block in ((_TAG_MMPHF, [blk.hashes for blk in ix.blocks]),
                           (_TAG_PRED, [[p for p, h in zip(blk.preds, blk.hashes)
                                         if p is not h] for blk in ix.blocks]),
                           (_TAG_SHORT, [(blk.shortcuts,) for blk in ix.blocks])):
        bw = BitWriter()
        for objs in per_block:
            for s in objs:
                if s is not None:
                    bw.write(s.payload, s.nbits)
        off, length = _section(blob, tag)
        assert blob[off:off + length] == bw.getvalue()
    assert ix.to_bytes() is blob
    assert StringIndex.from_bytes(blob).to_bytes() == blob


@st.composite
def _texts_with_gaps(draw):
    """Blocks drawn from palettes held over runs of blocks, so a symbol can be
    missing from many blocks in a row; the last block may be partial."""
    sigma = draw(st.integers(2, 9))
    symbols = []
    for _ in range(draw(st.integers(1, 4))):
        palette = draw(st.lists(st.integers(0, sigma - 1), min_size=1,
                                max_size=sigma, unique=True))
        for _ in range(draw(st.integers(1, 4))):
            symbols += draw(st.lists(st.sampled_from(palette), min_size=sigma,
                                     max_size=sigma))
    if len(symbols) > sigma and draw(st.booleans()):
        del symbols[-draw(st.integers(1, sigma - 1)):]
    return ProbedText(symbols, sigma)


@settings(deadline=None, max_examples=150)
@given(_texts_with_gaps(), st.integers(1, 3))
def test_routing_matches_reference_at_edges(text, t):
    n, sigma = text.n, text.sigma
    ref = Reference(text)
    built = build(text, t)
    nblocks = len(built.blocks)
    seams = [b * sigma for b in range(nblocks + 1) if b * sigma <= n]
    for ix in (built, StringIndex.from_bytes(built.to_bytes())):
        block_counts = unary_counts(ix.z, [blk.length for blk in ix.blocks], sigma)
        for c in range(sigma):
            row = ix.before[c * (nblocks + 1):(c + 1) * (nblocks + 1)]
            counts = [cnt[c] for cnt in block_counts]
            assert list(row) == list(accumulate(counts, initial=0))
            total = ref.count(c)
            for j in {1, max(1, total), total + 1}:
                assert ix.select(text, ProbeSession(), c, j) == ref.select(c, j)
            for p in seams + [n - 1, n]:  # n is on a seam or inside the last block
                assert ix.rank(text, ProbeSession(), c, p) == ref.rank(c, p)


@pytest.mark.parametrize("largest, code", [
    (255, "B"), (256, "H"), (65535, "H"), (65536, "I"),
    (2**32 - 1, "I"), (2**32, "Q"),
])
def test_typecode_is_the_narrowest_that_holds_the_value(largest, code):
    assert typecode(largest) == code
    assert array(code, [largest])[0] == largest


def test_base_holds_sigma_when_a_full_block_lacks_the_last_symbol():
    sigma = 256
    # Block 1 is full and lacks symbol 255, so its base[255] is 256.
    text = ProbedText(list(range(sigma)) + [0] + list(range(255)) + [255] * 9, sigma)
    ix = build(text, t=2)
    assert ix.blocks[1].base[255] == 256
    assert {blk.base.typecode for blk in ix.blocks} == {"H"}
    back = StringIndex.from_bytes(ix.to_bytes())
    assert [blk.base for blk in back.blocks] == [blk.base for blk in ix.blocks]
    assert back.before == ix.before
    assert back.to_bytes() == ix.to_bytes()
    ref = Reference(text)
    for j in range(1, ref.count(255) + 2):
        assert back.select(text, ProbeSession(), 255, j) == ref.select(255, j)
    for p in (256, 511, 512, 513, text.n):
        assert back.rank(text, ProbeSession(), 255, p) == ref.rank(255, p)


def test_routing_table_is_sized_by_the_largest_count():
    assert build(ProbedText([0] * 255 + [1], 2), t=1).before.typecode == "B"
    wide = build(ProbedText([0] * 256 + [1], 2), t=1)
    assert wide.before.typecode == "H"
    assert wide.before[len(wide.blocks)] == 256  # row 0 ends in count(0)


def test_rank_at_exact_text_end_multiple_of_sigma():
    text = ProbedText([0, 1, 1, 0], 2)  # n divisible by sigma
    ix = build(text, t=1)
    assert ix.rank(text, ProbeSession(), 1, 4) == 2
    assert ix.rank(text, ProbeSession(), 0, 4) == 2


def test_load_reads_each_set_once_and_shares_equal_ones(monkeypatch):
    ix = build(make_random_text(4096, 1024, seed=3), t=4, k=1)
    blob = ix.to_bytes()
    pairs = sum(h is not None for blk in ix.blocks for h in blk.hashes)
    reads = Counter()
    read = strindex.index.read_bits

    def counting_read(data, start, end):
        reads[bytes(data)] += 1
        return read(data, start, end)

    monkeypatch.setattr(strindex.index, "read_bits", counting_read)
    back = StringIndex.from_bytes(blob)
    back.blocks
    # One field per block whose sets store bits: its payloads are read at
    # once, and then split.  A block whose sets store nothing reads none.
    for tag, kind in ((_TAG_MMPHF, "hashes"), (_TAG_PRED, "preds")):
        off, length = _section(blob, tag)
        stored = sum(any(s is not None and s.nbits for s in getattr(blk, kind))
                     for blk in ix.blocks)
        assert reads[blob[off:off + length]] == stored
    hashes = {id(h) for blk in back.blocks for h in blk.hashes if h is not None}
    preds = {id(p) for blk in back.blocks for p in blk.preds if p is not None}
    assert len(hashes) < pairs / 4
    assert len(preds) < pairs / 100
    assert back.to_bytes() == blob


@pytest.mark.parametrize("tag", [_TAG_MMPHF, _TAG_PRED], ids=["mmphf", "pred"])
@pytest.mark.parametrize("delta, match", [(-1, "truncated"), (1, "disagrees")])
def test_hash_and_pred_section_of_the_wrong_length_is_corrupt(tag, delta, match):
    blob = build(_trie_text(), t=2, k=3).to_bytes()  # both sections store bits
    off, length = _section(blob, tag)
    # Resize the section in the table; the bytes after it stay in the file.
    entry = _HEADER.size + _TAGS.index(tag) * _TABLE_ENTRY.size
    assert _TABLE_ENTRY.unpack_from(blob, entry) == (tag, off, length)
    resized = (blob[:entry] + _TABLE_ENTRY.pack(tag, off, length + delta)
               + blob[entry + _TABLE_ENTRY.size:])
    with pytest.raises(CorruptIndexError, match=match):
        StringIndex.from_bytes(resized)


def test_build_shares_equal_sets_as_load_does():
    text = make_random_text(4096, 1024, seed=3)
    ix = build(text, t=4, k=1)
    pairs = sum(h is not None for blk in ix.blocks for h in blk.hashes)
    hashes = {id(h) for blk in ix.blocks for h in blk.hashes if h is not None}
    preds = {id(p) for blk in ix.blocks for p in blk.preds if p is not None}
    assert len(hashes) < pairs / 4
    assert len(preds) < pairs / 100
    blob = ix.to_bytes()
    assert StringIndex.from_bytes(blob).to_bytes() == blob
    occ = positions_of(text)
    for kind, c, arg in make_workload(text, 300, seed=2):
        want = brute_select(occ, c, arg) if kind == "select" else brute_rank(occ, c, arg)
        assert getattr(ix, kind)(text, ProbeSession(), c, arg) == want


def test_block_sets_are_per_symbol_tuples_none_where_absent():
    # sigma=32, k=2: the heavy symbols' predecessor sets store payloads too.
    text = _zipf_text(3000, 32, seed=14)
    ix = build(text, t=2, k=2)
    symbols = text.symbols()
    for index in (ix, StringIndex.from_bytes(ix.to_bytes())):
        shared = {}
        for blk in index.blocks:
            counts = Counter(symbols[blk.start:blk.start + blk.length])
            for sets in (blk.hashes, blk.preds):
                assert type(sets) is tuple and len(sets) == text.sigma
                assert [c for c, s in enumerate(sets) if s is not None] == sorted(counts)
                for c, m in counts.items():
                    assert sets[c].m == m
                    # Sets with equal payloads are one object.
                    key = (type(sets[c]), m, sets[c].payload)
                    assert shared.setdefault(key, sets[c]) is sets[c]
        assert len(shared) < sum(h is not None for blk in index.blocks for h in blk.hashes)


@pytest.mark.parametrize("target", [6, 7])
def test_shortcut_target_past_the_block_is_corrupt(target):
    # sigma=12, t=2: block 0 keeps its 12 mark bits plain and has 5 marks,
    # whose target ranks take width(5) = 3 bits, which also hold 6 and 7.
    text = make_random_text(120, 12, seed=3)
    ix = build(text, t=2)
    shortcuts = ix.blocks[0].shortcuts
    m = sum(map(bool, shortcuts.jumps))
    assert m == 5 and shortcuts.nbits == 12 + 5 * width(m)
    blob = bytearray(ix.to_bytes())
    # Block 0's mark bits come first in the section, then its target ranks.
    off = 8 * _section(blob, _TAG_SHORT)[0] + shortcuts.length
    for i in range(width(m)):
        byte, bit = divmod(off + i, 8)
        blob[byte] = blob[byte] & ~(1 << bit) | ((target >> i) & 1) << bit
    # The file is sound in structure; its payload fault shows at block 0's
    # first decode.
    loaded = StringIndex.from_bytes(_restamp(blob))
    with pytest.raises(CorruptIndexError, match="shortcut target"):
        loaded.blocks



def test_a_fault_in_a_middle_block_keeps_the_blocks_before_it():
    """A shortcut target rank past its block's 6 marks in block 4 of 10, the
    CRC re-stamped: blocks decodes and keeps blocks 0-3, and each call raises
    the same CorruptIndexError, block 4 staying undecoded; queries into
    blocks 0-3 answer as the oracle does."""
    text = make_random_text(120, 12, seed=3)
    ix = build(text, t=2)
    b = 4
    shortcuts = ix.blocks[b].shortcuts
    m = sum(map(bool, shortcuts.jumps))
    assert m == 6 and shortcuts.nbits == shortcuts.length + m * width(m)
    blob = bytearray(ix.to_bytes())
    # Block 4's mark bits come first in its field, then its target ranks,
    # of width(6) = 3 bits; the first becomes 7.
    off = (8 * _section(blob, _TAG_SHORT)[0] + shortcuts.length
           + sum(blk.shortcuts.nbits for blk in ix.blocks[:b]))
    for i in range(width(m)):
        byte, bit = divmod(off + i, 8)
        blob[byte] |= 1 << bit
    loaded = StringIndex.from_bytes(_restamp(blob))
    messages = set()
    for _ in range(3):
        with pytest.raises(CorruptIndexError, match="shortcut target") as err:
            loaded.blocks
        messages.add(str(err.value))
        assert [blk is not None for blk in loaded._blocks] == [True] * b + [False] * 6
    assert len(messages) == 1
    ref = Reference(text)
    end = b * text.sigma
    for c in range(text.sigma):
        for j in range(1, ref.rank(c, end) + 1):
            assert loaded.select(text, ProbeSession(), c, j) == ref.select(c, j)
        for p in range(end + 1):
            assert loaded.rank(text, ProbeSession(), c, p) == ref.rank(c, p)


def test_from_bytes_takes_only_bytes_like_data():
    blob = build(make_random_text(100, 8, seed=1), t=2).to_bytes()
    for data in (bytearray(blob), memoryview(blob), array("B", blob)):
        assert StringIndex.from_bytes(data).to_bytes() == blob
    # bytes(5) would be five zero bytes, and bytes([83, 83]) two bytes.
    for data in (5, "abc", None, [83, 83]):
        with pytest.raises(MalformedInputError, match="bytes-like, got"):
            StringIndex.from_bytes(data)

def test_build_and_load_leave_no_cyclic_garbage():
    # sigma=32, k=2: buckets of 5 keys, so both kinds of bucket trie are decoded.
    text = _zipf_text(3000, 32, seed=14)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        blob = build(text, t=2, k=2).to_bytes()
        StringIndex.from_bytes(blob).blocks  # load decodes no block until asked
        # Cycles would wait for the collector, which walks every live object.
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_loaded_index_answers_as_built_with_equal_probes():
    text = _zipf_text(3000, 32, seed=14)
    ix = build(text, t=2, k=2)
    back = StringIndex.from_bytes(ix.to_bytes())
    for kind, c, arg in make_workload(text, 600, seed=5):
        s1, s2 = ProbeSession(), ProbeSession()
        assert getattr(ix, kind)(text, s1, c, arg) == getattr(back, kind)(text, s2, c, arg)
        assert s1.count == s2.count


def _pred_paths(ix):
    """How the predecessor entries of ix's blocks answer, counted: by a
    member list, by direct search, or from top keys, and per bucket kind."""
    paths = Counter()
    for blk in ix.blocks:
        for pred in filter(None, blk.preds):
            if type(pred) is MemberList:
                paths["list"] += 1
            else:
                paths["direct" if pred._top is None else "top"] += 1
                paths.update(kind for kind, _ in pred._buckets or ())
    return paths


def _list_bits(ix):
    """The bits of the hash section that member lists take."""
    pos = 0
    for blk in ix.blocks:
        for h in filter(None, blk.hashes):
            if type(h) is MemberList:
                yield from range(pos, pos + h.nbits)
            pos += h.nbits


@pytest.mark.parametrize("tag, t, lists", [
    (_TAG_MMPHF, 2, False), (_TAG_PRED, 2, False), (_TAG_SHORT, 2, False),
    (_TAG_SHORT, 8, False), (_TAG_MMPHF, 2, True),
], ids=["mmphf", "pred", "short-plain", "short-elias-fano", "list"])
def test_hash_and_pred_bit_flips_fail_cleanly(tag, t, lists):
    """A sample of single-bit flips in the hash, predecessor or shortcut
    section, or in the member lists alone, the CRC re-stamped as a forger
    would: each mutant is rejected at open, or answers each query or raises
    a StrindexError, at its block's first decode or later.  Answers may be
    wrong; no other exception may escape.  The shortcut tables keep plain
    mark bits at t = 2 and an Elias-Fano list at t = 8; at sigma = 32 the
    lists are plain bits or Elias-Fano lists, and the predecessor flips are
    made in the tries of _trie_text."""
    text, k = (_trie_text(), 3) if tag == _TAG_PRED else (_zipf_text(500, 32, seed=13), 2)
    ix = build(text, t, k)
    blob = ix.to_bytes()
    rng = random.Random(tag)
    queries = [("select", c, j) for c, positions in positions_of(text).items()
               for j in range(1, len(positions) + 1)]
    queries += [("rank", rng.randrange(text.sigma), rng.randrange(1, text.n))
                for _ in range(300)]
    off, length = _section(blob, tag)
    bits = list(_list_bits(ix)) if lists else range(8 * length)
    if tag == _TAG_PRED:
        assert _pred_paths(ix)[_TRIE]
    outcomes = Counter()
    for bit in rng.sample(bits, min(len(bits), 200)):
        flipped = bytearray(blob)
        flipped[off + bit // 8] ^= 1 << (bit % 8)
        try:
            ix = StringIndex.from_bytes(_restamp(flipped))
        except CorruptIndexError:
            outcomes["rejected at open"] += 1
            continue
        for kind, c, arg in queries:
            try:
                getattr(ix, kind)(text, ProbeSession(), c, arg)
            except StrindexError as err:
                outcomes[type(err).__name__] += 1
            else:
                outcomes["answered"] += 1
    # Mutants load, and some fail only when a query decodes their block.
    assert outcomes["answered"] and outcomes["CorruptIndexError"], outcomes


def test_load_decodes_a_block_at_its_first_query_only(monkeypatch):
    """Calls of the three decoders, on a loaded index and on a freshly built
    one: none at open, nor at build, save and space report; one select
    decodes the sets and the table of its own block, each distinct set
    once; a second query on that block decodes nothing."""
    text = _zipf_text(3000, 32, seed=14)
    built = build(text, t=2, k=2)
    blob = built.to_bytes()
    b = 3
    blk = built.blocks[b]
    report = built.space_report()
    calls = Counter()
    for cls in (MonotoneHash, MemberList, PredIndex, ShortcutTable):
        def counted(self, *args, _cls=cls, _decode=cls._decode):
            calls[_cls] += 1
            return _decode(self, *args)
        monkeypatch.setattr(cls, "_decode", counted)
    for opened in ("loaded", "built"):
        if opened == "loaded":
            ix = StringIndex.from_bytes(blob)
        else:
            ix = build(text, t=2, k=2)
            assert ix.to_bytes() == blob
            assert ix.space_report() == report
        assert not calls, opened
        c = max(range(text.sigma), key=lambda c: blk.hashes[c].m if blk.hashes[c] else 0)
        j = ix.before[c * (len(built.blocks) + 1) + b] + 1  # c's first occurrence in block b
        assert ix.select(text, ProbeSession(), c, j) >= blk.start
        # A member list is decoded once, for its hash and predecessor entries.
        assert calls == {
            cls: len({(s.m, s.payload) for s in sets if type(s) is cls})
            for cls, sets in ((MonotoneHash, blk.hashes), (MemberList, blk.hashes),
                              (PredIndex, blk.preds))
        } | {ShortcutTable: 1}, opened
        assert [b for b, got in enumerate(ix._blocks) if got is not None] == [b]
        calls.clear()
        ix.rank(text, ProbeSession(), c, blk.start + blk.length - 1)
        ix.select(text, ProbeSession(), c, j + 1)
        assert not calls, opened


def test_save_round_trips_with_none_some_or_all_blocks_decoded():
    text = _zipf_text(3000, 32, seed=14)
    blob = build(text, t=2, k=2).to_bytes()
    assert StringIndex.from_bytes(blob).to_bytes() == blob  # none decoded
    ix = StringIndex.from_bytes(blob)
    for kind, c, arg in make_workload(text, 12, seed=3):
        getattr(ix, kind)(text, ProbeSession(), c, arg)
    decoded = sum(blk is not None for blk in ix._blocks)
    assert 0 < decoded < len(ix._blocks)
    assert ix.to_bytes() == blob  # some decoded
    assert sum(blk is not None for blk in ix._blocks) == decoded  # save decodes none
    assert all(blk is not None for blk in ix.blocks)
    assert ix.to_bytes() == blob  # all decoded


def _small_v2_file():
    # Some predecessor buckets keep 3 samples in a trie, and every section
    # ends in a partly used byte.
    return build(_trie_text(), t=2, k=3)


def test_every_bit_flip_and_truncation_is_corrupt():
    ix = _small_v2_file()
    assert _pred_paths(ix)[_TRIE]
    blob = ix.to_bytes()
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(CorruptIndexError):
            StringIndex.from_bytes(bytes(flipped))
    for size in range(len(blob)):
        with pytest.raises(CorruptIndexError):
            StringIndex.from_bytes(blob[:size])


@pytest.mark.parametrize("tag", _TAGS, ids=["z", "mmphf", "pred", "short"])
def test_set_padding_bits_are_corrupt(tag):
    ix = _small_v2_file()
    rep = ix.space_report()
    nbits = {_TAG_Z: rep.z_bits, _TAG_MMPHF: rep.mmphf_bits,
             _TAG_PRED: rep.pred_bits, _TAG_SHORT: rep.shortcut_bits}[tag]
    assert nbits % 8  # the section's last byte holds padding
    blob = bytearray(ix.to_bytes())
    off, length = _section(blob, tag)
    blob[off + length - 1] |= 0x80
    # A valid checksum, so that only the padding check can reject the file.
    blob[-4:] = struct.pack("<I", zlib.crc32(blob[:-4]))
    with pytest.raises(CorruptIndexError, match="padding"):
        StringIndex.from_bytes(bytes(blob))


@pytest.mark.parametrize("kind, args", [
    ("select", (0, 1.5)), ("select", (0, 0.5)), ("select", (0, 1e9)),
    ("select", ("a", 1)), ("select", (1.0, 1)), ("select", (None, 1)),
    ("rank", (0, 2.5)), ("rank", (0, 7.5)), ("rank", (1.0, 2)), ("rank", ("a", 2)),
    ("access", (2.0,)), ("access", (9.0,)), ("access", ("1",)),
])
def test_non_integer_query_arguments_are_malformed(sample_text, kind, args):
    ix = build(sample_text, t=1)
    session = ProbeSession()
    with pytest.raises(MalformedInputError, match="must be an integer"):
        getattr(ix, kind)(sample_text, session, *args)
    if kind == "access":
        assert session.count == 0  # a failed access charges no probe
    # A bool is an int: True is 1.
    assert ix.select(sample_text, ProbeSession(), True, True) == 0
    assert ix.rank(sample_text, ProbeSession(), True, True) == 1
    assert ix.access(sample_text, ProbeSession(), True) == 0


def test_moved_shortcut_target_answers_or_exceeds_the_budget():
    # sigma=16, t=2, k=2: block 0 holds marks, and sets of more than 7 members
    # put both bucket kinds on the rank path.
    text = _zipf_text(64, 16, seed=3)
    ix = build(text, t=2, k=2)
    ref = Reference(text)
    blk = ix.blocks[0]
    marks = [x for x, j in enumerate(blk.shortcuts.jumps) if j]
    tw = width(len(marks))
    blob = bytearray(ix.to_bytes())
    # Block 0's mark bits come first in the section, then the first mark's
    # target rank.
    off = 8 * _section(blob, _TAG_SHORT)[0] + blk.length
    first = marks.index(blk.shortcuts.jumps[marks[0]] - 1)  # its rank
    over = answered = 0
    for rank in range(len(marks)):
        if rank == first:
            continue
        for i in range(tw):
            byte, bit = divmod(off + i, 8)
            blob[byte] = blob[byte] & ~(1 << bit) | ((rank >> i) & 1) << bit
        moved = StringIndex.from_bytes(_restamp(blob))
        assert next(filter(None, moved.blocks[0].shortcuts.jumps)) == marks[rank] + 1
        queries = [("select", c, j) for c in range(text.sigma)
                   for j in range(1, ref.count(c) + 1) if ref.select(c, j) < blk.length]
        queries += [("rank", c, p) for c in range(text.sigma)
                    for p in range(1, blk.length + 1)]
        for kind, c, arg in queries:
            try:
                got = getattr(moved, kind)(text, ProbeSession(), c, arg)
            except ProbeBudgetError:
                over += 1
                continue
            assert got == getattr(ref, kind)(c, arg), (rank, kind, c, arg)
            answered += 1
    assert over and answered


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_rank_loop_agrees_with_its_adapter(k):
    """Every rank inside the blocks of _trie_text: the index's answer and
    probes against PredIndex.rank over a plain accessor, and, for a member
    list, against the oracle at no probe.  At sigma = 256 a set of 8 members
    keeps a predecessor set at k >= 3, one bucket of g = 8 members: k = 3
    samples 3 (a trie), and k = 4 samples 2 (kept verbatim), whose last
    members, past the last sample, make the in-bucket binary search.  At
    k <= 2 every set past direct search is a member list."""
    text = _trie_text()
    ix = build(text, t=2, k=k)
    occ = positions_of(text)
    for b, blk in enumerate(ix.blocks):
        for c, pred in enumerate(blk.preds):
            if pred is None:
                continue
            prior = ix.before[c * (len(ix.blocks) + 1) + b]
            first = blk.base[c]
            for p_local in range(1, blk.length):
                s1, s2 = ProbeSession(), ProbeSession()
                got = ix.rank(text, s1, c, blk.start + p_local)
                if type(pred) is MemberList:
                    assert got == brute_rank(occ, c, blk.start + p_local), (b, c, p_local)
                    assert s1.count == 0
                    continue

                def fetch(r):
                    return blk.shortcuts.walk(first + r, text, s2, blk.start,
                                              blk.base, blk.hashes)

                assert got == prior + pred.rank(p_local, fetch), (b, c, p_local)
                assert s1.count == s2.count
    paths = _pred_paths(ix)
    assert paths["direct"] and paths["list"]
    assert paths[{3: _TRIE, 4: _EXPLICIT}.get(k, "list")]
    assert (paths["top"] > 0) == (k >= 3)


def _walk_reads(monkeypatch):
    """The reads each ShortcutTable.walk makes from here on, one entry per
    walk, as the RecordingText it was given logged them."""
    walks = []
    walk = ShortcutTable.walk

    def recorded(self, q, text, *rest):
        before = len(text.log)
        try:
            return walk(self, q, text, *rest)
        finally:
            walks.append(len(text.log) - before)

    monkeypatch.setattr(ShortcutTable, "walk", recorded)
    return walks


@pytest.mark.parametrize("t", [2, 5])
@pytest.mark.parametrize("name", sorted(_PINNED_TEXTS))
def test_a_walk_charges_the_reads_it_makes_in_its_block(name, t, monkeypatch):
    """Every select and a sample of ranks: the session's charge is the count
    of reads the recording text logged, each one in the query's block, and
    no walk reads more than eval_budget(t) symbols."""
    text = _PINNED_TEXTS[name]
    ix = build(text, t, k=2)
    ref = Reference(text)
    rec = RecordingText(text)
    walks = _walk_reads(monkeypatch)
    rng = random.Random(t)
    sigma = text.sigma
    queries = [("select", c, j) for c in range(sigma) for j in range(1, ref.count(c) + 1)]
    queries += [("rank", rng.randrange(sigma), rng.randrange(text.n + 1))
                for _ in range(2000)]
    reads = 0
    for kind, c, arg in queries:
        rec.log.clear()
        session = ProbeSession()
        got = getattr(ix, kind)(rec, session, c, arg)
        assert got == getattr(ref, kind)(c, arg), (kind, c, arg)
        assert session.count == len(rec.log), (kind, c, arg)
        block = (got if kind == "select" else arg) // sigma
        assert {i // sigma for i in rec.log} <= {block}, (kind, c, arg, rec.log)
        reads += session.count
    assert reads == sum(walks)
    assert max(walks) <= eval_budget(t)


@pytest.mark.parametrize("t", [1, 2, 5, 8, 16])
@pytest.mark.parametrize("name", sorted(_PINNED_TEXTS))
def test_a_walk_over_its_own_text_takes_at_most_t_steps(name, t, monkeypatch):
    """On an index over its own text, every select takes at most t probes,
    and so does each walk inside a rank: the mark a walk meets first points
    at the mark before it on the cycle, which is at most t steps behind."""
    text = _PINNED_TEXTS[name]
    ix = build(text, t, k=2)
    ref = Reference(text)
    walks = _walk_reads(monkeypatch)
    rec = RecordingText(text)
    rng = random.Random(t)
    for c in range(text.sigma):
        for j in range(1, ref.count(c) + 1):
            session = ProbeSession()
            assert ix.select(rec, session, c, j) == ref.select(c, j)
            assert session.count <= t, (c, j)
    assert len(walks) == text.n and max(walks) <= t
    walks.clear()
    for _ in range(2000):
        c, p = rng.randrange(text.sigma), rng.randrange(text.n + 1)
        assert ix.rank(rec, ProbeSession(), c, p) == ref.rank(c, p)
    assert walks and max(walks) <= t


def _forged_pair():
    """An index of one text whose header carries another text's fingerprint,
    CRC re-stamped as a forger would: it loads and pairs with that text."""
    text = make_random_text(2000, 64, seed=1)
    blob = build(make_random_text(2000, 64, seed=2), t=2, k=2).to_bytes()
    forged = _restamp(_patch_header(blob, fingerprint=text.fingerprint))
    return StringIndex.from_bytes(forged), text


def test_an_index_that_disagrees_with_its_text_fails_cleanly(monkeypatch):
    """Only StrindexError escapes: a symbol absent from its block's index
    is CorruptIndexError, a walk that never meets its value
    ProbeBudgetError.  Each charges exactly the reads made, at most
    eval_budget(t) per walk."""
    ix, text = _forged_pair()
    rec = RecordingText(text)
    walks = _walk_reads(monkeypatch)
    nblocks = len(ix.blocks)
    errors = Counter()
    for c in range(text.sigma):
        count = ix.before[c * (nblocks + 1) + nblocks]
        queries = [("select", j) for j in range(1, count + 1)]
        queries += [("rank", p) for p in range(1, text.n, 7)]
        for kind, arg in queries:
            rec.log.clear()
            session = ProbeSession()
            try:
                getattr(ix, kind)(rec, session, c, arg)
            except StrindexError as err:
                errors[kind, type(err)] += 1
            assert session.count == len(rec.log), (kind, c, arg)
    for kind in ("select", "rank"):
        assert errors[kind, CorruptIndexError] and errors[kind, ProbeBudgetError]
    assert max(walks) == eval_budget(ix.t)


def _hash_kind(h):
    """A hash's kind as walk() meets it: a member list, sampled, or its one
    bucket's."""
    if type(h) is MemberList:
        return "list"
    if h._samples:
        return "sampled"
    return ("one key", "pair")[len(h._buckets[0][0])] if h.m < 3 else "trie"


# (text, t, k, the hash kinds its walks meet): the pinned indexes, and one
# where, at sigma = 256 and k = 8, sets of 9 and 10 members keep a hash,
# which samples a separator, in place of a member list.
_WALK_INDEXES = {
    "uniform": (_PINNED_TEXTS["uniform"], 4, 2, {"one key", "pair", "trie"}),
    "zipf": (_PINNED_TEXTS["zipf"], 2, 2, {"one key", "pair", "trie", "list"}),
    "sampled": (_zipf_text(2000, 256, seed=3), 2, 8, {"sampled", "list"}),
}


@pytest.mark.parametrize("name", sorted(_WALK_INDEXES))
def test_a_walk_steps_as_the_reference_hash_does(name):
    """Every select's walk, as a recording text logged its reads: each read
    is the q the select asks for or its back-jump, then base[c] +
    MonotoneHash.eval(x) of the read before it, or that value's back-jump,
    and the last read's step is q.  Between them the walks meet a hash of
    every kind, and member lists."""
    text, t, k, want = _WALK_INDEXES[name]
    ix = build(text, t, k)
    rec = RecordingText(text)
    symbols = text.symbols()
    sigma = text.sigma
    kinds = set()
    for c in range(sigma):
        for j, got in enumerate(positions_of(text).get(c, ()), 1):
            rec.log.clear()
            assert ix.select(rec, ProbeSession(), c, j) == got
            blk = ix.blocks[got // sigma]
            jumps = blk.shortcuts.jumps
            q = blk.base[c] + list(symbols[blk.start:got]).count(c)
            x = q
            for i, read in enumerate(rec.log):
                if jumps is not None and jumps[x]:
                    x = jumps[x] - 1
                    jumps = None
                assert read == blk.start + x, (c, j, rec.log)
                h = blk.hashes[symbols[read]]
                kinds.add(_hash_kind(h))
                x = blk.base[symbols[read]] + h.eval(x)
            assert x == q and rec.log[-1] == got
    assert kinds >= want


def _python_calls(query):
    """query()'s Python function calls by name, and the type of the
    StrindexError it raised or None.  sys.setprofile reports each call of a
    Python function, not of a C one such as a memoryview read."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    error = None
    sys.setprofile(profile)
    try:
        query()
    except StrindexError as err:
        error = type(err)
    finally:
        sys.setprofile(None)
    return calls, error


def test_a_walk_makes_no_python_call_per_step():
    """A select or a one-walk rank on a t = 16 index makes the same Python
    calls after a walk of 1 step as after one of t, the most a walk over
    its own text takes.  On an index forged under the text's fingerprint,
    a walk that runs out its 2t+1 steps makes those of a failing 1-step
    walk and the one eval_budget call of its error message.  It counts
    calls; it times nothing."""
    t = 16
    text = make_random_text(4096, 64, seed=1)
    blob = build(make_random_text(4096, 64, seed=2), t, k=1).to_bytes()
    forged = StringIndex.from_bytes(_restamp(_patch_header(blob, fingerprint=text.fingerprint)))
    queries = [("select", c, j) for c in range(text.sigma) for j in range(1, 40)]
    queries += [("rank", c, p) for c in range(text.sigma) for p in range(1, text.n, 61)]
    groups = {}  # (forged, kind, error) -> {calls: the step counts seen}
    for ix in build(text, t, k=1), forged:
        ix.blocks
        ix.check_pairing(text)
        for kind, c, arg in queries:
            session = ProbeSession()
            calls, error = _python_calls(lambda: getattr(ix, kind)(text, session, c, arg))
            if calls["walk"] == 1:
                key = tuple(sorted(calls.items()))
                groups.setdefault((ix is forged, kind, error), {}).setdefault(
                    key, set()).add(session.count)
    for kind in ("select", "rank"):
        (steps,) = groups[False, kind, None].values()
        assert {1, t} <= steps and max(steps) == t
        ((failing, steps),) = groups[True, kind, CorruptIndexError].items()
        assert 1 in steps
        ((spent, steps),) = groups[True, kind, ProbeBudgetError].items()
        assert steps == {eval_budget(t)}
        assert Counter(dict(spent)) == Counter(dict(failing)) + Counter(eval_budget=1)
