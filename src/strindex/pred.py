"""Predecessor counting over a set reachable only through a paid accessor.

PredIndex answers R(p) = |{x in T : x < p}| for T a sorted set of in-block
positions, where member values are fetched via S(rank) at a per-call cost.
The accessor-call budget per query is BUDGET(k) = 3 + ceil(log2 k), enforced
on every call.

Layout for m = |T| members over universe [sigma]:

  * m <= DIRECT_LIMIT: nothing is stored (payload_bits() is 0); a binary
    search over S resolves R(p) in at most 3 calls.
  * otherwise: every g-th member (g ~ log2 sigma) is stored verbatim in a
    top array that is binary searched for free; inside the resulting bucket
    every k-th member is sampled.  Buckets with at most two samples keep
    them verbatim; larger ones use a blind Patricia trie that stores only
    its shape and skip lengths, never keys.  The trie descends on
    the query's own bits, fetches the single reached key to learn the true
    divergence depth, and descends again to that depth - one S call in all.
    A final binary search over the at most k-1 members between neighbouring
    samples finishes the count.

PredIndex.count runs this search as one loop whose every S call is a direct
call of a block's pi walk (perm.ShortcutTable.walk), with no per-query
closure; PredIndex.rank(p, fetch) and BlindTrie.predecessor(p, fetch) are
adapters for a plain accessor.  The widths, the trie payload and the shared()
memo are mmphf's, the one codec of both set kinds.  An index keeps no PredIndex
where a set's mmphf.MemberList is smaller: the list counts with one bisect.
"""

from __future__ import annotations

from bisect import bisect_left

from .bits import split_fields, width
from .errors import (
    CorruptIndexError,
    MalformedInputError,
    ProbeBudgetError,
    require_integers,
)
from .mmphf import (
    decode_trie,
    encode_trie,
    increasing_below,
    require_increasing_below,
    shared,
    trie_bits,
    widths,
)

#: Largest member count answered by storing nothing at all: a binary search
#: over m + 1 outcomes costs ceil(log2(m + 1)) <= 3 accessor calls.
DIRECT_LIMIT = 7

_EXPLICIT = 0
_TRIE = 1


def max_k(sigma):
    """Largest admissible predecessor sub-sampling rate for this alphabet."""
    return widths(sigma)[0]


def budget(k):
    """Hard per-query accessor-call budget."""
    return 3 + max(0, (k - 1).bit_length())


def _bucket_bits(size, k, w, sw):
    """Payload of a bucket of `size` members: samples past the first, or a trie."""
    nsamp = (size + k - 1) // k
    if nsamp <= 2:
        return (nsamp - 1) * w  # sample 0 is already in top
    return trie_bits(nsamp, sw)


class BlindTrie:
    """Compacted binary trie over w-bit keys storing no key material.

    It has the flat (shift, left, right) form of a hash bucket, where node i
    tests bit shift[i] of a key; leaves are implicit in-order ranks 0, 1, 2,
    ..., so the shape gives each subtree's leaf-rank range, minleaf[i] to
    maxleaf[i].
    """

    __slots__ = ("root", "shift", "left", "right", "minleaf", "maxleaf")

    def __init__(self, keys, w):
        keys = list(keys)
        if len(keys) < 1:
            raise MalformedInputError("blind trie needs at least one key")
        require_increasing_below(keys, 1 << w, "keys")
        sw = width(w)
        self._decode(encode_trie(keys, w, sw), len(keys), w, sw)

    def _decode(self, payload, nleaves, w, sw):
        """Fill self from an encode_trie payload; see mmphf.decode_trie."""
        (self.shift, self.left, self.right, self.minleaf,
         self.maxleaf) = decode_trie(payload, nleaves, w, sw)
        self.root = 0 if self.shift else ~0
        return self

    def leaf(self, p):
        """Leaf rank reached by branching on p's bits: the one key predecessor
        fetches."""
        shift, left, right = self.shift, self.left, self.right
        node = self.root
        while node >= 0:
            node = right[node] if (p >> shift[node]) & 1 else left[node]
        return ~node

    def settle(self, p, leaf, y):
        """Leaf rank of the largest key < p, or None, given y, the key of
        leaf(p).

        Locates the highest bit, cut, where p and y differ, re-descends on
        p's bits to the subtree straddling it, and answers from its leaf
        range: all keys below it compare to p the same way.
        """
        if y == p:
            return leaf - 1 if leaf else None
        cut = (p ^ y).bit_length() - 1
        shift, left, right = self.shift, self.left, self.right
        node = self.root
        while node >= 0 and shift[node] >= cut:
            node = right[node] if (p >> shift[node]) & 1 else left[node]
        if node < 0:
            lo_leaf = hi_leaf = leaf  # divergence inside the leaf edge
        else:
            lo_leaf, hi_leaf = self.minleaf[node], self.maxleaf[node]
        if (p >> cut) & 1:
            return hi_leaf  # whole subtree sits below p
        return lo_leaf - 1 if lo_leaf else None  # whole subtree sits above p

    def predecessor(self, p, fetch):
        """Leaf rank of the largest key < p, or None; exactly one fetch of a
        leaf rank's key.  PredIndex.count runs the same two passes."""
        require_integers(p=p)
        leaf = self.leaf(p)
        return self.settle(p, leaf, fetch(leaf))


class PredIndex:
    """R(p) over a sorted member set, fetching members through S(rank).

    Every index keeps the payload int it was decoded from as `payload`, and
    its size in bits as `nbits`; indexes decoded from equal payloads through
    one memo are one shared, never-changed object.
    """

    __slots__ = ("m", "k", "g", "_top", "_buckets", "_budget",
                 "payload", "nbits")

    def __init__(self, members, sigma, k):
        members = list(members)
        self._decode(self.encode(members, sigma, k), len(members), sigma, k, {})

    @staticmethod
    def encode(members, sigma, k):
        """The payload stored for strictly increasing integer members of
        [sigma] at rate k; MalformedInputError for any other.  See _encode()."""
        if not 1 <= k <= max_k(sigma):
            raise MalformedInputError(f"k={k} outside [1, {max_k(sigma)}]")
        require_increasing_below(members, sigma, "members")
        return PredIndex._encode(members, sigma, k)

    @staticmethod
    def _encode(members, sigma, k):
        """encode() without its checks, for members and a k that cannot fail
        them, as build's in-block positions and checked k cannot.

        Nothing up to DIRECT_LIMIT members.  Otherwise every g-th member
        (the top keys) in w = g bits each, then each bucket in turn: its
        samples past the first in w bits each, or, past two samples, their
        encode_trie.
        """
        m = len(members)
        if m <= DIRECT_LIMIT:
            return 0
        w, sw = widths(sigma)
        payload = pos = 0
        for key in members[::w]:
            payload |= key << pos
            pos += w
        for base in range(0, m, w):
            sampled = members[base:min(base + w, m):k]
            if len(sampled) <= 2:
                for key in sampled[1:]:
                    payload |= key << pos
                    pos += w
            else:
                payload |= encode_trie(sampled, w, sw) << pos
                pos += trie_bits(len(sampled), sw)
        return payload

    def rank(self, p, fetch):
        """Count of members < p, where fetch(r) is the member of rank r;
        0 <= p <= sigma.  An adapter over count(); a non-integer p raises
        MalformedInputError."""
        require_integers(p=p)
        return self.count(p, lambda r, *_: fetch(r), 0, None, None, None, None, None)

    def count(self, p, walk, first, text, session, start, base, hashes):
        """Count of members < p; 0 <= p <= sigma.  Enforces the call budget.

        The member of rank r is walk(first + r, text, session, start, base,
        hashes), as ShortcutTable.walk gives a block's (first + r)-th sorted
        position; each such S call is counted against the budget.
        """
        if p <= 0 or self.m == 0:
            return 0
        calls = 0
        limit = self._budget
        if self._top is None:
            lo, hi = 0, self.m
        else:
            j = bisect_left(self._top, p) - 1
            if j < 0:
                return 0
            k = self.k
            bucket = j * self.g
            kind, data = self._buckets[j]
            if kind == _EXPLICIT:
                local = 0
                for i, key in enumerate(data):
                    if key < p:
                        local = i
            else:
                leaf = data.leaf(p)
                calls = 1  # within every budget, which is at least 3
                local = data.settle(p, leaf, walk(first + bucket + leaf * k, text,
                                                  session, start, base, hashes))
                if local is None:  # sample 0 is top[j] < p unless index and text disagree
                    raise CorruptIndexError("bucket lost its anchor sample")
            rho = bucket + local * k
            lo, hi = rho + 1, min(rho + k, bucket + self.g, self.m)
        while lo < hi:
            calls += 1
            if calls > limit:
                raise ProbeBudgetError(
                    f"pred rank exceeded {limit} accessor calls (k={self.k})"
                )
            mid = (lo + hi) // 2
            if walk(first + mid, text, session, start, base, hashes) < p:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # -- size accounting and serialization ----------------------------------

    @staticmethod
    def payload_bits(m, sigma, k):
        """Payload size of every set of m members over [sigma] at rate k.

        0 up to DIRECT_LIMIT; otherwise one w-bit top key per
        bucket of g = w members, plus each bucket's samples past the first or
        its trie, whose L leaves take (2L - 1) + (L - 1) * sw bits.
        """
        if m <= DIRECT_LIMIT:
            return 0
        w, sw = widths(sigma)
        full, rest = divmod(m, w)
        total = full * (w + _bucket_bits(w, k, w, sw))
        return total + (w + _bucket_bits(rest, k, w, sw) if rest else 0)

    @classmethod
    def read(cls, br, m, sigma, k, memo=None):
        """Rebuild from a payload that encode() made, read from br.

        The payload is read as one field of payload_bits(m, sigma, k) bits.
        `memo` belongs to one load of sets over the same sigma and k; see
        mmphf.shared().
        """
        payload = br.read(cls.payload_bits(m, sigma, k))
        return shared(cls, payload, m, (sigma, k), {} if memo is None else memo)

    def _decode(self, payload, m, sigma, k, memo):
        """Fill self from the int `payload`, memoising each bucket trie under
        memo[~L][bits]; raise CorruptIndexError on any field
        that encode() cannot produce."""
        self.m = m
        self.k = k
        w, sw = widths(sigma)
        self.g = w
        self._budget = budget(k)
        self._top = self._buckets = None
        self.payload = payload
        self.nbits = 0
        if m <= DIRECT_LIMIT:
            return self
        ntop = (m + w - 1) // w
        self._top = top = split_fields(payload, ntop, w)
        pos = ntop * w
        self._buckets = buckets = []
        stored = []  # every stored member, in order
        for j, base in enumerate(range(0, m, w)):
            size = min(w, m - base)
            nsamp = (size + k - 1) // k
            nbits = _bucket_bits(size, k, w, sw)
            field = (payload >> pos) & ((1 << nbits) - 1)
            pos += nbits
            if nsamp <= 2:
                keys = [top[j]] if nsamp == 1 else [top[j], field]
                buckets.append((_EXPLICIT, keys))
                stored += keys
            else:
                tries = memo.setdefault(~nsamp, {})
                trie = tries.get(field)
                if trie is None:
                    trie = tries[field] = object.__new__(BlindTrie)._decode(
                        field, nsamp, w, sw
                    )
                buckets.append((_TRIE, trie))
                stored.append(top[j])
        if not increasing_below(stored, sigma):
            raise CorruptIndexError("predecessor samples are not increasing below sigma")
        self.nbits = pos
        return self
