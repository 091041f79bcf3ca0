"""Monotone minimal perfect hashing over a sorted key set.

Maps every member of a strictly increasing key set T over universe [u] to its
rank in T without storing the keys and without ever touching the indexed
sequence; the result for non-members is arbitrary but in range.  Layout:
every beta-th key is kept verbatim as a bucket separator (beta ~ log2 u), and
each bucket of at most beta keys stores just enough branching structure to
tell its members apart:

  * one key      - nothing at all (rank offset is 0);
  * two keys     - the highest bit position where they differ (the smaller
                   key holds the 0 there, so its bit is not stored);
  * three+ keys  - a compacted binary trie over the keys, recorded as a
                   preorder shape bitstream with per-node skip lengths; a
                   member's offset is the leaf reached by descending on its
                   own bits (no key material is needed for members).

In memory every bucket is one flat trie: a (shift, left, right) triple of
per-node tuples, where node i tests bit shift[i] of x and a child < 0 is the
leaf ~rank.  A one-key bucket is the shared empty triple and a two-key bucket
a one-node trie; equal triples decoded through one memo are one object.
Evaluation is a binary search over separators, when there are any, plus one
short descent.

This module also holds the codec that pred.PredIndex shares: widths(u), the
trie payload (encode_trie, decode_trie, trie_bits) and shared(), the memo
through which an index decodes each set at its block's first touch;
pred.BlindTrie keeps the same (shift, left, right) trie form, plus each
node's leaf range.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache, lru_cache
from itertools import islice
from operator import lt

from .bits import split_fields, width
from .errors import CorruptIndexError, MalformedInputError

# Audit constants for the size bound checked by tests:
# h.nbits <= SIZE_C * m * log2(log2(u)) + SIZE_CPRIME * (m / beta) * log2(u).
SIZE_C = 8
SIZE_CPRIME = 4

#: The bucket of one key: a trie with no nodes, whose only leaf is rank 0.
_LEAF = ((), (), ())


def trie_bits(nleaves, sw):
    """Size of the encode_trie payload of nleaves keys: nleaves - 1 nodes."""
    return (2 * nleaves - 1) + (nleaves - 1) * sw


def _bucket_bits(size, sw):
    if size <= 1:
        return 0
    if size == 2:
        return sw
    return trie_bits(size, sw)


def increasing_below(keys, u):
    """True when keys is strictly increasing, non-negative and below u."""
    return (all(map(lt, keys, islice(keys, 1, None)))
            and (not keys or 0 <= keys[0] and keys[-1] < u))


def require_increasing_below(keys, u, what):
    if not increasing_below(keys, u):
        raise MalformedInputError(f"{what} must be strictly increasing in [0, {u})")


def encode_trie(keys, w, sw):
    """The payload int that decode_trie(payload, len(keys), w, sw) parses.

    `keys` are strictly increasing w-bit keys.  A leaf is a 0 bit; an
    internal node is a 1 bit and its skip in sw bits, in preorder with the
    first field in the lowest bits; trie_bits(len(keys), sw) bits.  The trie
    depends only on the bit lengths of the XORs of adjacent keys, so the
    payload is made from those, once per distinct tuple of them.
    """
    return _trie(tuple((a ^ b).bit_length() for a, b in zip(keys, keys[1:])), w, sw)


@lru_cache(maxsize=512)  # a build asks again for most of its tries
def _trie(gaps, w, sw):
    """encode_trie of keys whose adjacent XORs have bit lengths `gaps`.

    The node over keys lo..hi-1 branches on bit top - 1, top the largest of
    gaps[lo:hi-1], and its right subtree starts after the first pair that
    differs there.  Its skip is the count of bits between its parent's
    branch bit and its own.
    """
    payload = pos = 0
    todo = [(0, len(gaps) + 1, w + 1)]  # (lo, hi, parent's top), next on top
    while todo:
        lo, hi, above = todo.pop()
        if hi - lo == 1:
            pos += 1
            continue
        top = max(gaps[lo:hi - 1])
        payload |= (1 | (above - 1 - top) << 1) << pos
        pos += 1 + sw
        split = gaps.index(top, lo, hi - 1) + 1
        todo.append((split, hi, top))
        todo.append((lo, split, top))
    return payload


def decode_trie(payload, nleaves, w, sw):
    """Parse a preorder shape-and-skip trie from the bits of the int `payload`.

    This is the layout of a hash bucket and of pred.BlindTrie: a leaf is a
    0 bit; an internal node is a 1 bit and its skip in sw bits.  Returns the
    tuples (shift, left, right, minleaf, maxleaf): node i tests bit shift[i]
    of a key (shift = w - 1 - its branch depth), a child < 0 is the leaf
    ~rank, and each node's first and last leaf rank follow from the shape.
    Raises CorruptIndexError unless every branch depth is < w and there are
    exactly nleaves leaves, so that the trie is exactly trie_bits(nleaves, sw)
    bits long.  encode_trie is its inverse.
    """
    shift, left, right, minleaf = [], [], [], []
    skip_mask = (1 << sw) - 1
    pos = leaves = 0
    # (children list, node, depth) of each child still to parse, next on
    # top; a loop, not a recursive closure, so that no cycle is left behind.
    todo = [(None, 0, 0)]
    while todo:
        children, parent, depth = todo.pop()
        bit = (payload >> pos) & 1
        pos += 1
        if bit:
            child = len(shift)
            d = depth + ((payload >> pos) & skip_mask)
            if d >= w or child == nleaves - 1:
                raise CorruptIndexError("trie node past the key width or the leaf count")
            pos += sw
            shift.append(w - 1 - d)
            left.append(0)
            right.append(0)
            minleaf.append(leaves)
            todo.append((right, child, d + 1))
            todo.append((left, child, d + 1))
        else:
            child = ~leaves
            leaves += 1
        if children is not None:
            children[parent] = child
    if leaves != nleaves:
        raise CorruptIndexError("trie leaf count disagrees with bucket size")
    # A subtree's last leaf is its right subtree's; children follow parents.
    maxleaf = [0] * len(shift)
    for node in reversed(range(len(shift))):
        r = right[node]
        maxleaf[node] = maxleaf[r] if r >= 0 else ~r
    return tuple(shift), tuple(left), tuple(right), tuple(minleaf), tuple(maxleaf)


def _bucket(field, size, w, sw):
    """The (shift, left, right) flat trie of a bucket of size >= 2 keys."""
    if size == 2:  # the field is the branch depth
        if field >= w:
            raise CorruptIndexError("pair bucket the encoder cannot produce")
        return (w - 1 - field,), (~0,), (~1,)
    return decode_trie(field, size, w, sw)[:3]


@cache  # build asks once per encoded set
def widths(u):
    """(w, sw) of every set over [u]: the key width, also the bucket size of a
    hash (beta) and of a predecessor set (g), and the trie skip width."""
    w = width(u)
    return w, width(w)


def shared(cls, payload, m, params, memo):
    """The cls set of m members decoded from the int `payload`; params are
    what cls._decode takes after m and before memo: (u,) for a MonotoneHash,
    (sigma, k) for a pred.PredIndex.

    `memo` belongs to one index's sets of cls over the same params.
    memo[m] maps a payload to the set of m members already decoded from it,
    and memo[~s] the bits of a bucket of s keys to its trie; a hit is
    returned again, since neither is ever changed after construction.
    Keyed by the payload int, which the set keeps, an entry adds no key.
    """
    sets = memo.setdefault(m, {})
    s = sets.get(payload)
    if s is None:
        s = sets[payload] = object.__new__(cls)._decode(payload, m, *params, memo)
    return s


class MonotoneHash:
    """Rank-of-member evaluator for a fixed sorted key set; zero probes.

    Every hash keeps the payload int it was decoded from as `payload`, and its
    size in bits as `nbits`; hashes decoded from equal payloads through one
    memo are one shared, never-changed object.
    """

    __slots__ = ("m", "u", "_w", "_samples", "_buckets", "payload", "nbits")

    def __init__(self, keys, u):
        keys = list(keys)
        self._decode(self.encode(keys, u), len(keys), u, {})

    @staticmethod
    def encode(keys, u):
        """The payload stored for the strictly increasing keys over [u].

        Samples come first, w bits each, then each bucket in turn: nothing
        for one key, the branch depth in sw bits for two, and encode_trie for
        more.
        """
        if u < 1:
            raise MalformedInputError(f"universe size must be positive, got {u}")
        require_increasing_below(keys, u, "keys")
        w, sw = widths(u)
        m = len(keys)
        payload = pos = 0
        for key in keys[w::w]:
            payload |= key << pos
            pos += w
        for lo in range(0, m, w):
            bkeys = keys[lo:lo + w]
            size = len(bkeys)
            if size == 2:
                payload |= (w - (bkeys[0] ^ bkeys[1]).bit_length()) << pos
            elif size > 2:
                payload |= encode_trie(bkeys, w, sw) << pos
            pos += _bucket_bits(size, sw)
        return payload

    # -- evaluation --------------------------------------------------------

    def eval(self, x):
        """Rank of x in the key set when x is a member; arbitrary otherwise."""
        samples = self._samples
        if samples:
            j = bisect_right(samples, x)
            shift, left, right = self._buckets[j]
            first = j * self._w
        else:
            shift, left, right = self._buckets[0]
            first = 0
        if not shift:
            return first  # a one-key bucket
        node = 0
        while node >= 0:
            node = right[node] if (x >> shift[node]) & 1 else left[node]
        return first + ~node

    # -- size accounting ---------------------------------------------------

    @staticmethod
    def payload_bits(m, u):
        """Payload size of every hash of m keys over [u], as encode() makes it.

        Samples take (ceil(m / beta) - 1) * w bits; a pair bucket takes sw;
        a trie over s keys has s - 1 internal nodes, so (2s - 1) + (s - 1) * sw.
        """
        w, sw = widths(u)
        full, rest = divmod(m, w)
        # Every bucket but the first is preceded by its w-bit separator.
        samples = max(0, full + (rest > 0) - 1) * w
        return samples + full * _bucket_bits(w, sw) + _bucket_bits(rest, sw)

    # -- serialization -----------------------------------------------------

    @classmethod
    def read(cls, br, m, u, memo=None):
        """Rebuild from a payload that encode() made, read from br.

        The payload is read as one field of payload_bits(m, u) bits.  `memo`
        belongs to one load of hashes over the same u; see shared().
        """
        payload = br.read(cls.payload_bits(m, u))
        return shared(cls, payload, m, (u,), {} if memo is None else memo)

    def _decode(self, payload, m, u, memo):
        """Fill self from the int `payload`, memoising each bucket's flat trie
        under memo[~s][bits]; raise CorruptIndexError on any
        field that encode() cannot produce."""
        self.m = m
        self.u = u
        w, sw = widths(u)
        self._w = w
        self.payload = payload
        nsamples = max(0, (m + w - 1) // w - 1)
        self._samples = samples = split_fields(payload, nsamples, w)
        if not increasing_below(samples, u):
            raise CorruptIndexError("hash samples are not increasing keys below u")
        pos = nsamples * w
        self._buckets = buckets = [] if m else [_LEAF]
        for lo in range(0, m, w):
            size = min(w, m - lo)
            nbits = _bucket_bits(size, sw)
            field = (payload >> pos) & ((1 << nbits) - 1)
            pos += nbits
            tries = memo.setdefault(~size, {})
            bucket = tries.get(field) if size > 1 else _LEAF
            if bucket is None:
                bucket = tries[field] = _bucket(field, size, w, sw)
            buckets.append(bucket)
        self.nbits = pos
        return self
