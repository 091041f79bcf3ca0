"""Monotone minimal perfect hashing over a sorted key set.

Maps every member of a strictly increasing key set T over universe [u] to its
rank in T without storing the keys and without ever touching the indexed
sequence; the result for non-members is arbitrary but in range.  Layout:
every beta-th key is kept verbatim as a bucket separator (beta ~ log2 u), and
each bucket of at most beta keys stores just enough branching structure to
tell its members apart:

  * one key      - nothing at all (rank offset is 0);
  * two keys     - the highest bit position where they differ, plus the
                   smaller key's bit there;
  * three+ keys  - a compacted binary trie over the keys, recorded as a
                   preorder shape bitstream with per-node skip lengths; a
                   member's offset is the leaf reached by descending on its
                   own bits (no key material is needed for members).

Evaluation is a binary search over separators plus one short descent.
"""

from __future__ import annotations

import struct
from bisect import bisect_right

from .bits import BitReader, BitWriter, split_fields, width
from .errors import CorruptIndexError, MalformedInputError

# Audit constants for the size bound checked by tests:
# bits(h) <= SIZE_C * m * log2(log2(u)) + SIZE_CPRIME * (m / beta) * log2(u).
SIZE_C = 8
SIZE_CPRIME = 4

STANDALONE_HEADER_BITS = 128  # u64 m + u64 u

_EMPTY = 0
_PAIR = 1
_TRIE = 2


def _bucket_bits(size, sw):
    if size <= 1:
        return 0
    if size == 2:
        return sw + 1
    return (2 * size - 1) + (size - 1) * sw


def increasing_below(keys, u):
    """True when keys is strictly increasing and every key is < u."""
    return all(a < b for a, b in zip(keys, keys[1:])) and (not keys or keys[-1] < u)


def decode_trie(payload, nleaves, w, sw, rw=0):
    """Parse a preorder shape-and-skip trie from the bits of the int `payload`.

    This is the layout of _Trie and, with rw > 0, of pred.BlindTrie: a leaf
    is a 0 bit; an internal node is a 1 bit, its skip in sw bits and, when
    rw > 0, its subtree's first and last leaf rank in rw bits each.  Returns
    (branch, left, right, minleaf, maxleaf).  Raises CorruptIndexError
    unless every branch depth is < w, every stored leaf range is the one the
    shape implies, and there are exactly nleaves leaves, so that the trie is
    exactly (2 * nleaves - 1) + (nleaves - 1) * (sw + 2 * rw) bits long.
    """
    branch, left, right, minleaf, maxleaf = [], [], [], [], []
    skip_mask = (1 << sw) - 1
    rank_mask = (1 << rw) - 1
    pos = leaves = 0

    def rec(depth):
        nonlocal pos, leaves
        bit = (payload >> pos) & 1
        pos += 1
        if not bit:
            leaves += 1
            return ~(leaves - 1)
        node = len(branch)
        d = depth + ((payload >> pos) & skip_mask)
        if d >= w or node == nleaves - 1:
            raise CorruptIndexError("trie node past the key width or the leaf count")
        stored = ((payload >> (pos + sw)) & rank_mask,
                  (payload >> (pos + sw + rw)) & rank_mask)
        pos += sw + 2 * rw
        branch.append(d)
        left.append(0)
        right.append(0)
        minleaf.append(leaves)
        maxleaf.append(0)
        left[node] = rec(d + 1)
        right[node] = rec(d + 1)
        maxleaf[node] = leaves - 1
        if rw and stored != (minleaf[node], maxleaf[node]):
            raise CorruptIndexError("trie leaf range disagrees with its shape")
        return node

    rec(0)
    if leaves != nleaves:
        raise CorruptIndexError("trie leaf count disagrees with bucket size")
    return branch, left, right, minleaf, maxleaf


class _Trie:
    """Flat compacted binary trie; children >= 0 are nodes, ~child is a leaf rank."""

    __slots__ = ("branch", "left", "right")

    def __init__(self, keys, w):
        branch, left, right = [], [], []

        def rec(lo, hi, depth):
            if hi - lo == 1:
                return ~lo
            xor = keys[lo] ^ keys[hi - 1]
            d = w - xor.bit_length()
            node = len(branch)
            branch.append(d)
            left.append(0)
            right.append(0)
            # First key whose bit at d is 1; keys share all bits above d.
            a, b = lo + 1, hi
            while a < b:
                mid = (a + b) // 2
                if (keys[mid] >> (w - 1 - d)) & 1:
                    b = mid
                else:
                    a = mid + 1
            left[node] = rec(lo, a, d + 1)
            right[node] = rec(a, hi, d + 1)
            return node

        rec(0, len(keys), 0)
        self.branch = branch
        self.left = left
        self.right = right

    def descend(self, x, w):
        node = 0
        branch, left, right = self.branch, self.left, self.right
        while node >= 0:
            if (x >> (w - 1 - branch[node])) & 1:
                node = right[node]
            else:
                node = left[node]
        return ~node


class MonotoneHash:
    """Rank-of-member evaluator for a fixed sorted key set; zero probes."""

    __slots__ = ("m", "u", "_w", "_beta", "_samples", "_buckets")

    def __init__(self, keys, u):
        keys = list(keys)
        if u < 1:
            raise MalformedInputError(f"universe size must be positive, got {u}")
        prev = -1
        for k in keys:
            if k <= prev:
                raise MalformedInputError("keys must be strictly increasing")
            prev = k
        if keys and keys[-1] >= u:
            raise MalformedInputError(f"key {keys[-1]} outside universe [0, {u})")
        self.m = len(keys)
        self.u = u
        self._w = width(u)  # key width, also the sampling rate beta
        self._beta = self._w
        self._samples = [keys[r] for r in range(self._beta, self.m, self._beta)]
        self._buckets = [
            self._make_bucket(keys[lo:lo + self._beta])
            for lo in range(0, self.m, self._beta)
        ]

    def _make_bucket(self, bkeys):
        if len(bkeys) == 1:
            return (_EMPTY, None)
        if len(bkeys) == 2:
            d = self._w - (bkeys[0] ^ bkeys[1]).bit_length()
            v = (bkeys[0] >> (self._w - 1 - d)) & 1
            return (_PAIR, (d, v))
        return (_TRIE, _Trie(bkeys, self._w))

    # -- evaluation --------------------------------------------------------

    def eval(self, x):
        """Rank of x in the key set when x is a member; arbitrary otherwise."""
        if self.m == 0:
            return 0
        j = bisect_right(self._samples, x)
        kind, data = self._buckets[j]
        if kind == _EMPTY:
            offset = 0
        elif kind == _PAIR:
            d, v = data
            offset = 0 if ((x >> (self._w - 1 - d)) & 1) == v else 1
        else:
            offset = data.descend(x, self._w)
        return j * self._beta + offset

    # -- size accounting ---------------------------------------------------

    @staticmethod
    def payload_bits(m, u):
        """Payload size of every hash of m keys over [u]; what write() emits.

        Samples take (ceil(m / beta) - 1) * w bits; a pair bucket takes sw + 1;
        a trie over s keys has s - 1 internal nodes, so (2s - 1) + (s - 1) * sw.
        """
        w = width(u)
        sw = width(w)
        # Every bucket but the first is preceded by its w-bit separator.
        return max(0, sum(w + _bucket_bits(min(w, m - lo), sw)
                          for lo in range(0, m, w)) - w)

    def bits(self):
        """Exact payload size in bits; equals what write() emits."""
        return self.payload_bits(self.m, self.u)

    # -- serialization -----------------------------------------------------

    def write(self, bw):
        """Emit the payload; m and u are carried by the container."""
        w = self._w
        sw = width(w)
        for s in self._samples:
            bw.write(s, w)
        for kind, data in self._buckets:
            if kind == _PAIR:
                d, v = data
                bw.write(d, sw)
                bw.write(v, 1)
            elif kind == _TRIE:
                self._write_trie(bw, data, sw)

    @staticmethod
    def _write_trie(bw, trie, sw):
        def rec(node, depth):
            if node < 0:
                bw.write(0, 1)
                return
            bw.write(1, 1)
            bw.write(trie.branch[node] - depth, sw)
            rec(trie.left[node], trie.branch[node] + 1)
            rec(trie.right[node], trie.branch[node] + 1)

        rec(0, 0)

    @classmethod
    def read(cls, br, m, u, memo=None):
        """Rebuild from a payload previously produced by write().

        The payload is read as one field of payload_bits(m, u) bits.  `memo`
        belongs to one load of hashes over the same u.  It maps m to that
        size, (m, payload) to the hash already decoded from it and
        (_Trie, s, bits) to a bucket trie; a hit is returned again, since
        neither is ever changed after construction.
        """
        if memo is None:
            memo = {}
        size = memo.get(m)
        if size is None:
            size = memo[m] = cls.payload_bits(m, u)
        key = (m, br.read(size) if size else 0)
        h = memo.get(key)
        if h is None:
            h = memo[key] = cls._decode(key[1], m, u, memo)
        return h

    @classmethod
    def _decode(cls, payload, m, u, memo):
        """Parse the int `payload`; raise CorruptIndexError on any field that
        write() cannot produce."""
        h = object.__new__(cls)
        h.m = m
        h.u = u
        h._w = h._beta = w = width(u)
        sw = width(w)
        nsamples = max(0, (m + w - 1) // w - 1)
        h._samples = samples = split_fields(payload, nsamples, w)
        if not increasing_below(samples, u):
            raise CorruptIndexError("hash samples are not increasing keys below u")
        pos = nsamples * w
        h._buckets = buckets = []
        for lo in range(0, m, w):
            size = min(w, m - lo)
            nbits = _bucket_bits(size, sw)
            field = (payload >> pos) & ((1 << nbits) - 1)
            pos += nbits
            if size == 1:
                buckets.append((_EMPTY, None))
            elif size == 2:
                # The smaller key holds the 0 at the first differing bit.
                d = field & ((1 << sw) - 1)
                if d >= w or field >> sw:
                    raise CorruptIndexError("pair bucket the encoder cannot produce")
                buckets.append((_PAIR, (d, 0)))
            else:
                key = (_Trie, size, field)
                trie = memo.get(key)
                if trie is None:
                    trie = memo[key] = object.__new__(_Trie)
                    trie.branch, trie.left, trie.right, _, _ = decode_trie(
                        field, size, w, sw
                    )
                buckets.append((_TRIE, trie))
        return h

    def to_bytes(self):
        bw = BitWriter()
        self.write(bw)
        return struct.pack("<QQ", self.m, self.u) + bw.getvalue()

    @classmethod
    def from_bytes(cls, data):
        if len(data) < 16:
            raise CorruptIndexError("monotone hash header truncated")
        m, u = struct.unpack_from("<QQ", data, 0)
        return cls.read(BitReader(data[16:]), m, u)
