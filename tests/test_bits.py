import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strindex import NotFoundError, OutOfRangeError, RsBitvector
from strindex.bits import (
    SUPER,
    BitReader,
    BitWriter,
    CorruptIndexError,
    _select_in_word,
    ef_bits,
    ef_decode,
    ef_encode,
    ones,
    unary_counts,
    unary_section,
    width,
)


def bv(pattern):
    return RsBitvector(int(ch) for ch in pattern)


def test_build_and_popcount():
    assert bv("101010").nbits == 6
    assert bv("101010").rank1(6) == 3
    assert bv("110100").rank1(6) == 3


def test_empty():
    v = bv("")
    assert v.nbits == 0
    assert v.rank1(0) == 0
    assert v.ones == 0 and v.zeros == 0


def test_rank_by_hand():
    v = bv("110100")
    assert v.rank1(3) == 2
    assert v.rank1(0) == 0
    assert [v.rank0(p) + v.rank1(p) for p in range(7)] == list(range(7))


def test_select_by_hand():
    v = bv("110100")
    assert v.select1(2) == 1
    assert v.select0(1) == 2
    assert v.select1(1) == 0
    assert v.select1(3) == 3
    assert v.select0(2) == 4
    assert v.select0(3) == 5


def test_select_not_found():
    with pytest.raises(NotFoundError):
        bv("000").select1(1)
    with pytest.raises(NotFoundError):
        bv("111").select0(1)
    with pytest.raises(NotFoundError):
        bv("10").select1(2)
    with pytest.raises(NotFoundError):
        bv("10").select1(0)


def test_rank_out_of_range():
    with pytest.raises(OutOfRangeError):
        bv("10").rank1(3)
    with pytest.raises(OutOfRangeError):
        bv("10").get(2)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.booleans(), max_size=700))
def test_galois_identities(bits):
    v = RsBitvector(bits)
    ones = sum(bits)
    assert v.ones == ones
    for j in range(1, ones + 1):
        pos = v.select1(j)
        assert bits[pos]
        assert v.rank1(pos) == j - 1
    for j in range(1, (len(bits) - ones) + 1):
        pos = v.select0(j)
        assert not bits[pos]
        assert v.rank0(pos) == j - 1


@settings(deadline=None, max_examples=100)
@given(st.lists(st.booleans(), max_size=700), st.data())
def test_rank_matches_prefix_sums(bits, data):
    v = RsBitvector(bits)
    p = data.draw(st.integers(min_value=0, max_value=len(bits)))
    assert v.rank1(p) == sum(bits[:p])


def test_directory_overhead_budget():
    for size in (0, 5, 64, 255, 256, 257, 1000, 5000):
        v = RsBitvector([i % 3 == 0 for i in range(size)])
        assert v.directory_bits <= 0.5 * max(1, v.nbits)
    assert RsBitvector([1] * 100).directory_bits == 0  # small vectors scan words


def test_bit_writer_reader_round_trip():
    bw = BitWriter()
    values = [(5, 3), (0, 1), (1, 1), (1023, 10), (0, 0), (2**40 - 3, 64)]
    for value, width in values:
        bw.write(value, width)
    payload = bw.getvalue()
    br = BitReader(payload)
    for value, width in values:
        assert br.read(width) == value
    with pytest.raises(CorruptIndexError):
        br.read(64)


def test_bit_writer_rejects_overflow():
    bw = BitWriter()
    bw.write(5, 3)
    for value, width in [(4, 2), (1, 0), (-1, 8), (0, -1), (1 << 64, 64)]:
        with pytest.raises(ValueError):
            bw.write(value, width)
    assert bw.bit_length == 3 and bw.getvalue() == b"\x05"


class _ByteAtATimeWriter:
    """The reference writer: shifts its accumulator out one byte per step."""

    def __init__(self):
        self.buf = bytearray()
        self.acc = self.fill = self.nbits = 0

    def write(self, value, width):
        self.acc |= value << self.fill
        self.fill += width
        self.nbits += width
        while self.fill >= 8:
            self.buf.append(self.acc & 0xFF)
            self.acc >>= 8
            self.fill -= 8

    def getvalue(self):
        return bytes(self.buf) + (bytes([self.acc & 0xFF]) if self.fill else b"")


@st.composite
def _fields(draw):
    """A (value, width) pair with value < 2**width."""
    w = draw(st.one_of(st.sampled_from([0, 8, 63, 64]), st.integers(1, 7),
                       st.integers(0, 3000)))
    return draw(st.integers(0, (1 << w) - 1)), w


@settings(deadline=None, max_examples=300)
@given(st.lists(_fields(), max_size=30))
def test_bit_writer_matches_a_byte_at_a_time_writer(fields):
    bw, ref = BitWriter(), _ByteAtATimeWriter()
    for value, w in fields:
        bw.write(value, w)
        ref.write(value, w)
        assert bw.bit_length == ref.nbits
        assert bw.getvalue() == ref.getvalue()


def test_write_bv_read_bv_round_trip():
    bw = BitWriter()
    v1 = bv("1011001110")
    v2 = bv("01" * 45)
    bw.write_bv(v1)
    bw.write_bv(v2)
    br = BitReader(bw.getvalue())
    assert br.read_bv(v1.nbits) == v1
    assert br.read_bv(v2.nbits) == v2


def _section(bits):
    """The bytes whose bit i, counted from bit 0 of byte 0, is bits[i]."""
    return int(bits[::-1] or "0", 2).to_bytes((len(bits) + 7) // 8, "little")


@given(st.integers(1, 8), st.data())
@settings(max_examples=100, deadline=None)
def test_unary_counts_inverts_unary_encoding(nzeros, data):
    parts = data.draw(st.lists(st.lists(st.integers(0, 20), min_size=nzeros,
                                        max_size=nzeros), max_size=6))
    section = unary_section(parts)
    assert section == _section("".join("1" * r + "0" for part in parts for r in part))
    assert unary_counts(section, [sum(part) for part in parts], nzeros) == parts


@given(st.integers(0, 300), st.data())
@settings(max_examples=100, deadline=None)
def test_from_int_takes_bit_i_of_the_value(nbits, data):
    value = data.draw(st.integers(0, (1 << nbits) - 1))
    v = RsBitvector.from_int(value, nbits)
    assert v == bv(format(value, "b").zfill(nbits)[::-1] if nbits else "")
    assert v.ones == value.bit_count()


@pytest.mark.parametrize("pattern, nzeros", [
    ("1010", 1),   # one zero too many
    ("1010", 3),   # one zero too few
    ("10101", 2),  # ones after the last zero
    ("", 1),       # no room for the zero
])
def test_unary_counts_rejects_malformed(pattern, nzeros):
    # The pattern is one part's bits, so the part holds the rest as ones.
    ones = max(0, len(pattern) - nzeros)
    with pytest.raises(CorruptIndexError):
        unary_counts(_section(pattern), [ones], nzeros)


@pytest.mark.parametrize("section, sizes, match", [
    (_section("1010") + b"\x00", [2], "length"),
    (b"", [2], "length"),
    (_section("10101"), [2], "padding"),  # a set bit past the last part
    # [1, 1], [0, 1] with part 0's last one moved to part 1's start: the
    # section's ones and zeros hold, and part 0 ends in a one.
    (_section("1001010"), [2, 1], "runs"),
], ids=["longer", "shorter", "padding", "one-moved-across-parts"])
def test_unary_counts_rejects_a_section_its_parts_do_not_fill(section, sizes, match):
    with pytest.raises(CorruptIndexError, match=match):
        unary_counts(section, sizes, 2)


def test_width_is_bits_for_values_below_x():
    assert [width(x) for x in (0, 1, 2, 3, 4, 5, 1024, 1025)] == [1, 1, 1, 2, 2, 3, 10, 11]


def _set_bits(word):
    return [i for i in range(64) if word >> i & 1]


@pytest.mark.parametrize("seed", range(4))
def test_select_in_word_matches_a_bit_scan(seed):
    rng = random.Random(seed)
    # Random words of every density, plus the edge words.
    words = [rng.getrandbits(64) & rng.getrandbits(64) for _ in range(100)]
    words += [rng.getrandbits(64) | rng.getrandbits(64) for _ in range(100)]
    words += [1, 1 << 63, (1 << 64) - 1, 0x8000000000000001, 0xFF << 56, 0xFF]
    for word in words:
        for r, pos in enumerate(_set_bits(word), 1):
            assert _select_in_word(word, r) == pos, (hex(word), r)


@pytest.mark.parametrize("nbits", [SUPER * 3 + 37, SUPER * 5, SUPER * 2 + 1, 63])
@pytest.mark.parametrize("density", [0.03, 0.5, 0.97])
def test_select_matches_a_scan_across_superblocks(nbits, density):
    rng = random.Random(nbits * 100 + int(density * 100))
    bits = [int(rng.random() < density) for _ in range(nbits)]
    v = RsBitvector(bits)
    ones = [i for i, b in enumerate(bits) if b]
    zeros = [i for i, b in enumerate(bits) if not b]
    assert [v.select1(j) for j in range(1, len(ones) + 1)] == ones
    assert [v.select0(j) for j in range(1, len(zeros) + 1)] == zeros
    # The padding bits of the last word are zeros in memory; none is selected.
    with pytest.raises(NotFoundError):
        v.select0(len(zeros) + 1)
    with pytest.raises(NotFoundError):
        v.select1(len(ones) + 1)


@st.composite
def _position_lists(draw):
    length = draw(st.integers(1, 2000))
    chosen = draw(st.sets(st.integers(0, length - 1), max_size=min(length, 80)))
    return sorted(chosen), length


@settings(deadline=None, max_examples=300)
@given(_position_lists())
def test_elias_fano_round_trips_at_its_size(case):
    """The list is ef_bits long: l = floor(log2(length / m)) low bits per
    position and an upper part of m ones among m + ((length - 1) >> l)
    bits; ef_decode gives the positions back."""
    positions, length = case
    m = len(positions)
    value = ef_encode(positions, length)
    low = (length // m).bit_length() - 1 if m else 0
    assert ef_bits(m, length) == (m + ((length - 1) >> low) + m * low if m else 0)
    assert value.bit_length() <= ef_bits(m, length)
    assert ef_decode(value, m, length, "test") == positions
    # Bits past the list are not the list's.
    assert ef_decode(value | 1 << ef_bits(m, length), m, length, "test") == positions
    assert list(ones(sum(1 << x for x in positions))) == positions


@pytest.mark.parametrize("value, m, length, match", [
    # At m = 2 and length 8: l = 2 and a 3-bit upper part; at length 5,
    # l = 1 and a 4-bit upper part; at m = 3 and length 64, a 6-bit one.
    (0b011, 3, 64, "upper part does not hold 3 ones"),
    (0b1111, 2, 8, "upper part does not hold 2 ones"),
    (0b011 | 0b0101 << 3, 2, 8, "does not increase strictly below 8"),  # 1, 1
    (0b011 | 0b0110 << 3, 2, 8, "does not increase strictly below 8"),  # 2, 1
    (0b1001 | 0b10 << 4, 2, 5, "does not increase strictly below 5"),  # 0, 5
])
def test_elias_fano_rejects_what_the_encoder_cannot_make(value, m, length, match):
    with pytest.raises(CorruptIndexError, match=match):
        ef_decode(value, m, length, "test")
