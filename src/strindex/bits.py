"""Plain bitvector with a sampled rank/select directory, plus bit-level I/O
and the encoder and parser of unary count sections.

The directory stores one cumulative popcount per 256-bit superblock and is
rebuilt on load; only the payload is ever serialized.  Queries scan at most
four 64-bit words past a directory entry.  No index, query or load path uses
RsBitvector, BitReader or BitWriter.write_bv any more (load reads its fields
with read_bits): the benchmark's traced layers, the sets' `read` methods and
this module's tests still name them.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left
from operator import lshift

from .errors import CorruptIndexError, NotFoundError, OutOfRangeError

WORD = 64
SUPER = 256  # bits per rank-directory entry
_WORDS_PER_SUPER = SUPER // WORD
_WORD_MASK = (1 << WORD) - 1
DIRECTORY_ENTRY_BITS = 32  # accounting width of one directory entry


def width(x):
    """Bits needed to write any value in [0, x); at least 1."""
    return max(1, (x - 1).bit_length())


def typecode(largest):
    """The narrowest unsigned array typecode, of B, H, I and Q, that holds largest."""
    return next(code for code in "BHIQ" if largest < 1 << 8 * array(code).itemsize)


def split_fields(value, count, w):
    """The `count` consecutive w-bit fields of `value`, lowest bits first."""
    mask = (1 << w) - 1
    return [(value >> (i * w)) & mask for i in range(count)]


def join_fields(values, w):
    """The int whose consecutive w-bit fields, lowest first, are `values`;
    split_fields inverts it."""
    return sum(map(lshift, values, range(0, len(values) * w, w or 1)))


class BitBuilder:
    """Accumulates bits one at a time and freezes into an RsBitvector."""

    def __init__(self):
        self._words = []
        self._acc = 0
        self._fill = 0  # bits used in _acc

    def append(self, bit):
        if bit:
            self._acc |= 1 << self._fill
        self._fill += 1
        if self._fill == WORD:
            self._words.append(self._acc)
            self._acc = 0
            self._fill = 0

    def build(self):
        words = list(self._words)
        nbits = len(words) * WORD + self._fill
        if self._fill:
            words.append(self._acc)
        return RsBitvector._from_words(words, nbits)


class RsBitvector:
    """Immutable bit sequence supporting rank and select in both directions."""

    __slots__ = ("_words", "_nbits", "_ranks", "_ones")

    def __init__(self, bits=()):
        b = BitBuilder()
        for bit in bits:
            b.append(1 if bit else 0)
        v = b.build()
        self._words = v._words
        self._nbits = v._nbits
        self._ranks = v._ranks
        self._ones = v._ones

    @classmethod
    def from_int(cls, value, nbits):
        """The nbits-bit vector whose bit i is bit i of the int `value`."""
        nwords = (nbits + WORD - 1) // WORD
        payload = value.to_bytes(8 * nwords, "little")
        return cls._from_words(list(struct.unpack(f"<{nwords}Q", payload)), nbits)

    @classmethod
    def _from_words(cls, words, nbits):
        v = object.__new__(cls)
        v._words = words
        v._nbits = nbits
        v._build_directory()
        return v

    def _build_directory(self):
        # Cumulative rank1 at every SUPER-bit boundary, boundary 0 excluded.
        ranks = []
        acc = 0
        words = self._words
        full = self._nbits // SUPER
        for blk in range(full):
            for w in words[blk * _WORDS_PER_SUPER:(blk + 1) * _WORDS_PER_SUPER]:
                acc += w.bit_count()
            ranks.append(acc)
        tail = 0
        for w in words[full * _WORDS_PER_SUPER:]:
            tail += w.bit_count()
        self._ranks = ranks
        self._ones = acc + tail

    # -- queries ---------------------------------------------------------

    def __len__(self):
        return self._nbits

    @property
    def nbits(self):
        return self._nbits

    @property
    def ones(self):
        return self._ones

    @property
    def zeros(self):
        return self._nbits - self._ones

    def get(self, i):
        if not 0 <= i < self._nbits:
            raise OutOfRangeError(f"bit index {i} out of range [0, {self._nbits})")
        return (self._words[i >> 6] >> (i & 63)) & 1

    def rank1(self, p):
        """Number of 1-bits in positions [0, p)."""
        if not 0 <= p <= self._nbits:
            raise OutOfRangeError(f"rank prefix {p} out of range [0, {self._nbits}]")
        blk = p // SUPER
        acc = self._ranks[blk - 1] if blk else 0
        lo_word = blk * _WORDS_PER_SUPER
        hi_word = p >> 6
        words = self._words
        for wi in range(lo_word, hi_word):
            acc += words[wi].bit_count()
        rem = p & 63
        if rem:
            acc += (words[hi_word] & ((1 << rem) - 1)).bit_count()
        return acc

    def rank0(self, p):
        """Number of 0-bits in positions [0, p)."""
        return p - self.rank1(p)

    def select1(self, j):
        """Zero-based position of the j-th (1-based) 1-bit."""
        if j < 1 or j > self._ones:
            raise NotFoundError(f"no {j}-th one; vector has {self._ones}")
        blk = bisect_left(self._ranks, j)
        acc = self._ranks[blk - 1] if blk else 0
        wi = blk * _WORDS_PER_SUPER
        words = self._words
        while True:
            cnt = words[wi].bit_count()
            if acc + cnt >= j:
                return wi * WORD + _select_in_word(words[wi], j - acc)
            acc += cnt
            wi += 1

    def select0(self, j):
        """Zero-based position of the j-th (1-based) 0-bit."""
        if j < 1 or j > self.zeros:
            raise NotFoundError(f"no {j}-th zero; vector has {self.zeros}")
        ranks = self._ranks
        blk, hi = 0, len(ranks)
        while blk < hi:  # first superblock whose end holds j zeros or more
            mid = (blk + hi) // 2
            if (mid + 1) * SUPER - ranks[mid] < j:
                blk = mid + 1
            else:
                hi = mid
        acc = (blk * SUPER - ranks[blk - 1]) if blk else 0
        wi = blk * _WORDS_PER_SUPER
        words = self._words
        while True:
            # Pad bits past nbits count as ones so they are never selected.
            w = ~words[wi] & _WORD_MASK
            base = wi * WORD
            if base + WORD > self._nbits:
                w &= (1 << max(0, self._nbits - base)) - 1
            cnt = w.bit_count()
            if acc + cnt >= j:
                return base + _select_in_word(w, j - acc)
            acc += cnt
            wi += 1

    # -- accounting -------------------------------------------------------

    @property
    def directory_bits(self):
        """Reported in-memory overhead of the rank directory."""
        return len(self._ranks) * DIRECTORY_ENTRY_BITS

    def __eq__(self, other):
        if not isinstance(other, RsBitvector):
            return NotImplemented
        return self._nbits == other._nbits and self._words == other._words

    def __hash__(self):
        return hash((self._nbits, tuple(self._words)))

    def __repr__(self):
        return f"RsBitvector(len={self._nbits}, ones={self._ones})"


def unary_section(parts):
    """Bytes of 1^{r_0} 0 1^{r_1} 0 ... over each part's runs in turn, bit 0
    first, zero-padded to a byte; unary_counts inverts it.  Runs are joined
    per part, so one part's run strings at most are held at once."""
    bits = "".join(["0".join(["1" * r for r in part]) + "0" for part in parts])
    return int(bits[::-1], 2).to_bytes((len(bits) + 7) // 8, "little") if bits else b""


def unary_counts(section, sizes, nzeros):
    """Per part p, the nzeros run lengths of a unary_section whose part p
    holds sizes[p] ones: [[r_0, ..., r_{nzeros-1}] for each part].

    Raises CorruptIndexError unless the section has the byte length of its
    parts, zero padding bits, and each part exactly nzeros runs, each closed
    by a zero.  One pass over the section; no bitvector is made.
    """
    nbits = sum(sizes) + nzeros * len(sizes)
    if (nbits + 7) // 8 != len(section):
        raise CorruptIndexError("unary section length disagrees with its parts")
    value = int.from_bytes(section, "little")
    if value >> nbits:
        raise CorruptIndexError("section padding bits are not zero")
    bits = format(value, "b").zfill(nbits)[::-1]
    out = []
    end = 0
    for size in sizes:
        start, end = end, end + size + nzeros
        runs = bits[start:end].split("0")
        if len(runs) != nzeros + 1 or runs[-1]:
            raise CorruptIndexError(
                f"unary part of {end - start} bits does not hold exactly "
                f"{nzeros} runs each closed by a zero"
            )
        runs.pop()
        out.append(list(map(len, runs)))
    return out


#: _SELECT_IN_BYTE[8 * byte + r - 1]: position of the r-th set bit of byte.
_SELECT_IN_BYTE = bytes(
    ([i for i in range(8) if byte >> i & 1] + [0] * 8)[r] for byte in range(256)
    for r in range(8)
)


def _select_in_word(word, r):
    """Position of the r-th (1-based) set bit inside a 64-bit word."""
    pos = 0
    for half in (32, 16, 8):
        low = word & ((1 << half) - 1)
        cnt = low.bit_count()
        if cnt < r:
            r -= cnt
            word >>= half
            pos += half
        else:
            word = low
    return pos + _SELECT_IN_BYTE[8 * word + r - 1]


class BitWriter:
    """Packs fixed-width integers LSB-first into a byte stream."""

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0
        self._fill = 0
        self._nbits = 0

    @property
    def bit_length(self):
        return self._nbits

    def write(self, value, width):
        if width < 0 or value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = self._acc | value << self._fill
        fill = self._fill + width
        self._nbits += width
        if fill >= 8:  # emit every whole byte at once
            nbytes = fill >> 3
            self._buf += (acc & ((1 << 8 * nbytes) - 1)).to_bytes(nbytes, "little")
            acc >>= 8 * nbytes
            fill &= 7
        self._acc = acc
        self._fill = fill

    def write_bv(self, bv):
        """Append exactly bv.nbits payload bits (no header, no padding)."""
        nbits = bv.nbits
        words = bv._words
        full = nbits // WORD
        for wi in range(full):
            self.write(words[wi], WORD)
        rem = nbits & 63
        if rem:
            self.write(words[full] & ((1 << rem) - 1), rem)

    def getvalue(self):
        out = bytes(self._buf)
        if self._fill:
            out += bytes([self._acc & 0xFF])
        return out


def read_bits(data, start, end):
    """Bits [start, end) of the bytes `data`, bit 0 the lowest, as an int."""
    chunk = int.from_bytes(data[start >> 3:(end + 7) >> 3], "little")
    return (chunk >> (start & 7)) & ((1 << (end - start)) - 1)


class BitReader:
    """Reads back what BitWriter wrote; overruns raise CorruptIndexError."""

    def __init__(self, data):
        self._data = data
        self._pos = 0  # bit cursor

    @property
    def bits_consumed(self):
        return self._pos

    def read(self, width):
        pos = self._pos
        end = pos + width
        if end > len(self._data) * 8:
            raise CorruptIndexError("bit stream truncated")
        self._pos = end
        return read_bits(self._data, pos, end)

    def read_bv(self, nbits):
        return RsBitvector.from_int(self.read(nbits), nbits)
