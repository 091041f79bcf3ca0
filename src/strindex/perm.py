"""Inverse evaluation for a permutation given only forward evaluations.

A permutation pi over [L] is augmented with back-shortcuts: along every
non-trivial cycle of length >= spacing, every spacing-th element (walking
forward from the cycle's minimum) is marked and stores the mark before it
on the cycle, the first mark the last one.  Inverting then walks forward
from the query, takes at most one back-jump at the first marked element,
and walks on until the predecessor shows up; the gap structure bounds the
forward evaluations by 2 * spacing + 1, and on an index over its own text
a walk makes at most spacing of them.  walk() is that one loop, with a
block's pi step inlined: each step reads one symbol through the text's
read-only view (reads) and evaluates the symbol's mmphf.MonotoneHash in
the loop, a binary search of its samples and a descent of one bucket's
flat trie, so that a step makes no Python call.  The walk charges its
session once, with the number of steps it made, on every way out: its
answer, a ProbeBudgetError, or a CorruptIndexError for an index that
disagrees with its text.  The step count is the loop variable, so no step
pays for a counter either.

A decoded table keeps two things.  Its jump array holds 1 plus the
element's target where it is marked, 0 elsewhere, so a step tests its mark
and finds its back-jump with one array read.  Its payload, the stored form
as a hash or predecessor set keeps one, holds the marks, then each mark's
target in mark order as its rank among the table's m marks in width(m)
bits: the same targets, which no walk reads.  The marks' form depends on
(L, spacing) alone: L plain mark bits, or, where ceil(L / spacing) marks
would be smaller so, the mark count m in width(L + 1) bits and then the
marked positions as a bits.ef_encode list.
stored_bits() gives a stored table's size from its leading field, and
stored_offsets() where each table of a section starts.
encode() walks the cycles to make the payload, which build writes to the
file; _decode() turns it back into the jump array when a query first
touches the table's block, in a built or a loaded index alike.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import lru_cache
from itertools import compress, count, groupby, repeat
from operator import index, lshift

from .bits import (ef_bits, ef_decode, ef_encode, join_fields, ones, read_bits,
                   split_fields, typecode, width)
from .errors import (
    CorruptIndexError,
    MalformedInputError,
    OutOfRangeError,
    ProbeBudgetError,
    require_integers,
)
from .mmphf import MonotoneHash
from .text import ProbeSession


class _Forward:
    """A plain evaluator pi over [length] seen as walk()'s text: reads[x] is
    pi(x), checked to lie in [0, length).  With the identity as base and
    _NO_OFFSET as hashes, a step is pi itself."""

    __slots__ = ("_pi", "_length")

    def __init__(self, pi, length):
        self._pi = pi
        self._length = length

    @property
    def reads(self):
        return self

    def __getitem__(self, x):
        y = self._pi(x)
        try:
            y = index(y)
        except TypeError:
            raise MalformedInputError(f"pi({x}) = {y!r} is not an integer") from None
        if not 0 <= y < self._length:
            raise OutOfRangeError(f"pi({x}) = {y} outside [0, {self._length})")
        return y


class _OneKey:
    """walk()'s hashes for a plain evaluator: every symbol's hash has one key,
    so its offset is 0."""

    __slots__ = ()

    def __getitem__(self, c):
        return _ONE_KEY


_ONE_KEY = MonotoneHash([0], 2)
_NO_OFFSET = _OneKey()


def eval_budget(spacing):
    """Hard bound on forward evaluations per inversion."""
    return 2 * spacing + 1


@lru_cache(maxsize=32)
def _shape(length, spacing):
    """What every table over [length] at this spacing shares: the width of
    the mark count that leads an Elias-Fano table, 0 where its marks are L
    plain bits, the typecode of its jumps, and walk's step range, numbered
    from 1 so that the step in hand is the count of reads made.  The marks
    are an Elias-Fano list where ceil(L / spacing) of them would be smaller
    so, count included, than L plain bits."""
    count_w = width(length + 1)
    sparse = count_w + ef_bits(-(-length // spacing), length) < length
    return count_w if sparse else 0, typecode(length), range(1, eval_budget(spacing) + 1)


def stored_bits(field, length, spacing):
    """(nbits, target_bits) of the stored table over [length] whose leading
    field, its mark count or its L mark bits, is the low bits of `field`:
    its size, and its target fields' share of it, m * width(m) for m marks.
    A mark count above length raises CorruptIndexError."""
    count_w = _shape(length, spacing)[0]
    if count_w:
        m = field & ((1 << count_w) - 1)
    else:
        m = (field & ((1 << length) - 1)).bit_count()
    lead, targets = _size(m, length, count_w)
    return lead + targets, targets


def stored_offsets(section, lengths, spacing):
    """Where each stored table over [length], for the lengths in turn,
    starts in the bytes `section`, then where the last one ends, as a "Q"
    array; and the bits all their target fields take.  Tables of one length
    share one form, so it is worked out once per run of equal lengths: the
    full blocks, then a short last one.  A mark count above its length
    raises CorruptIndexError."""
    offsets = array("Q", [0])
    end = target_bits = 0
    for length, run in groupby(lengths):
        count_w = _shape(length, spacing)[0]
        lead_w = count_w or length
        sizes = {}  # _size by mark count
        for _ in run:
            field = read_bits(section, end, end + lead_w)
            m = field if count_w else field.bit_count()
            size = sizes.get(m)
            if size is None:
                size = sizes[m] = _size(m, length, count_w)
            end += size[0] + size[1]
            target_bits += size[1]
            offsets.append(end)
    return offsets, target_bits


def _size(m, length, count_w):
    """(lead, target_bits) of a table over [length] with m marks: the bits
    its marks take, count included, in the form with a count_w-bit mark
    count, or as L plain bits where count_w is 0; and the bits of its m
    target fields.  A mark count above length raises CorruptIndexError."""
    targets = m * width(m)
    if not count_w:
        return length, targets
    if m > length:
        raise CorruptIndexError(f"{m} shortcut marks in a table of {length}")
    return count_w + ef_bits(m, length), targets


class ShortcutTable:
    """Marked positions plus packed back-pointers for one permutation.

    payload is the stored form, nbits bits: the marks, as L plain bits (bit
    x for element x) or as a count and an Elias-Fano list, then each mark's
    target as a rank among the marks, in mark order.  jumps[x] is 1 + x's
    target where x is marked and 0 elsewhere, which is what walk() reads;
    _decode() is the one place that fills it.
    """

    __slots__ = ("length", "spacing", "payload", "nbits", "jumps", "_steps")

    def __init__(self, pi, length, spacing):
        """Build from an evaluator pi over [length]; build-time calls are free."""
        self._decode(self.encode(list(map(pi, range(length))), spacing),
                     length, spacing)

    @staticmethod
    def encode(image, spacing):
        """The payload stored for the permutation x -> image[x] of [L]: the
        marks in the form _shape picks for (L, spacing), then each target's
        rank among the m marks, in mark order, width(m) bits each.  A step
        outside [0, L), to an element already seen, or to a non-integer
        raises MalformedInputError."""
        if spacing < 1:
            raise MalformedInputError(f"spacing must be >= 1, got {spacing}")
        length = len(image)
        seen = bytearray(length)
        back = [0] * length  # 1 + each mark's back-pointer, 0 elsewhere
        for start in range(length):
            if seen[start]:
                continue  # start is each cycle's least element
            seen[start] = 1
            cycle = [start]
            x = image[start]
            try:
                while x != start:
                    if not 0 <= x < length or seen[x]:
                        raise MalformedInputError(f"not a permutation of [0, {length})")
                    seen[x] = 1
                    cycle.append(x)
                    x = image[x]
            except TypeError:
                raise MalformedInputError(f"image holds a non-integer {x!r}") from None
            # Fixed points resolve in one evaluation; cycles shorter than the
            # spacing resolve within it.  Neither needs shortcuts.
            if len(cycle) < spacing or len(cycle) == 1:
                continue
            marked = cycle[::spacing]
            for x, target in zip(marked, marked[-1:] + marked[:-1]):
                back[x] = target + 1
        # 1 + each mark, lowest first, as back holds 1 + each target; then
        # each target's rank among the marks, in mark order.
        lifted = list(compress(count(1), back))
        m = len(lifted)
        rank = dict(zip(lifted, count()))
        ranks = list(map(rank.__getitem__, filter(None, back)))
        count_w = _shape(length, spacing)[0]
        if count_w:
            lead = count_w + ef_bits(m, length)
            payload = m | ef_encode([x - 1 for x in lifted], length) << count_w
        else:
            lead = length
            payload = sum(map(lshift, repeat(1), lifted)) >> 1
        return payload | join_fields(ranks, width(m)) << lead

    def _decode(self, payload, length, spacing):
        """Fill self from a payload that encode() made over [length].  A mark
        count above length, an Elias-Fano upper part without exactly that
        many ones, positions that do not increase strictly below length, or
        a target rank of m or more raises CorruptIndexError before anything
        is filled."""
        count_w, code, self._steps = _shape(length, spacing)
        self.length = length
        self.spacing = spacing
        self.payload = payload
        if count_w:
            m = payload & ((1 << count_w) - 1)
            lead = _size(m, length, count_w)[0]
            marks = ef_decode(payload >> count_w, m, length, "shortcut mark")
        else:
            marks = list(ones(payload & ((1 << length) - 1)))
            m, lead = len(marks), length
        tw = width(m)
        self.nbits = lead + m * tw
        ranks = split_fields(payload >> lead, m, tw)
        if m and max(ranks) >= m:
            raise CorruptIndexError(f"shortcut target outside the table's {m} marks")
        self.jumps = jumps = array(code, bytes(array(code).itemsize * length))  # zeros
        for x, r in zip(marks, ranks):
            jumps[x] = marks[r] + 1
        return self

    def invert(self, q, pi):
        """Return i with pi(i) == q, using at most eval_budget(spacing) calls.
        A q or pi value outside [0, L) raises OutOfRangeError, and one that
        is not an integer MalformedInputError."""
        require_integers(q=q)
        return self.walk(q, _Forward(pi, self.length), ProbeSession(), 0,
                         range(self.length), _NO_OFFSET)

    def walk(self, q, text, session, start, base, hashes):
        """Return x with pi(x) == q, for the block permutation pi whose step is

            c = text.reads[start + x]
            pi(x) = base[c] + hashes[c].eval(x)

        with that eval done in the loop: a binary search of the hash's
        samples, where it has any, picks bucket b, whose first rank is b * w,
        and a descent of the bucket's flat trie on x's bits adds the leaf's
        rank (nothing for a one-key bucket, which has no node).  Walks
        forward from q, reads each element's jump entry until the one
        back-jump, and stops when q shows up again; at most
        eval_budget(spacing) reads.  The reads are charged to session once,
        on whichever way the walk ends.  A symbol whose hash is None (the
        block holds no such symbol, so the index and the text disagree)
        raises CorruptIndexError.
        """
        if not 0 <= q < self.length:
            raise OutOfRangeError(f"value {q} outside [0, {self.length})")
        reads = text.reads
        jumps = self.jumps
        x = q
        steps = 0
        try:
            for steps in self._steps:
                if jumps is not None:
                    j = jumps[x]
                    if j:
                        x = j - 1
                        jumps = None  # one back-jump at most
                c = reads[start + x]
                h = hashes[c]
                samples = h._samples
                if samples:
                    b = bisect_right(samples, x)
                    shift, left, right = h._buckets[b]
                    y = base[c] + b * h._w
                else:
                    shift, left, right = h._buckets[0]
                    y = base[c]
                if shift:
                    node = 0
                    while node >= 0:
                        node = right[node] if (x >> shift[node]) & 1 else left[node]
                    y += ~node
                if y == q:
                    return x
                x = y
        except AttributeError:  # hashes[c] is None
            raise CorruptIndexError(
                f"index and text disagree: the symbol at position {start + x} "
                f"is absent from its block's index") from None
        finally:
            session.count += steps
        raise ProbeBudgetError(
            f"inversion exceeded {eval_budget(self.spacing)} evaluations "
            f"(spacing={self.spacing})"
        )

    # -- serialization ----------------------------------------------------

    @classmethod
    def read(cls, br, length, spacing):
        """One table over [length], as encode() made its payload, from br."""
        lead = _shape(length, spacing)[0] or length
        field = br.read(lead)
        rest = br.read(stored_bits(field, length, spacing)[0] - lead)
        return object.__new__(cls)._decode(field | rest << lead, length, spacing)
