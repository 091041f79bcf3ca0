"""Inverse evaluation for a permutation given only forward evaluations.

A permutation pi over [L] is augmented with back-shortcuts: along every
non-trivial cycle of length >= spacing, every spacing-th element (walking
forward from the cycle's minimum) is marked and stores the element spacing
steps behind it.  Inverting then walks forward from the query, takes at
most one back-jump at the first marked element, and walks on until the
predecessor shows up; the gap structure bounds the forward evaluations by
2 * spacing + 1.  walk() is that one loop, with a block's pi step inlined.
Each step reads one symbol through the text's read-only view (reads), and
the walk charges its session once, with the number of steps it made, on
every way out: its answer, a ProbeBudgetError, or a CorruptIndexError for
an index that disagrees with its text.  The step count is the loop
variable, so no step pays for a counter or a call.

A table holds the back-pointers once, in its jump array: 1 plus the
element's target where it is marked, 0 elsewhere, so a step tests its mark
and finds its back-jump with one array read.  Its stored form is one
payload int, as a hash or predecessor set has: the L mark bits, then the
targets in mark order.  encode() walks the cycles to make that int, which
build writes to the file; _decode() fills the jump array from it when a
query first touches the table's block, in a built or a loaded index alike.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import compress, count
from operator import index

from .bits import split_fields, typecode, width
from .errors import (
    CorruptIndexError,
    MalformedInputError,
    OutOfRangeError,
    ProbeBudgetError,
)
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


class _NoOffset:
    """walk()'s hashes for a plain evaluator: every symbol's offset is 0."""

    __slots__ = ()

    def __getitem__(self, c):
        return self

    def eval(self, x):
        return 0


_NO_OFFSET = _NoOffset()


def eval_budget(spacing):
    """Hard bound on forward evaluations per inversion."""
    return 2 * spacing + 1


@lru_cache(maxsize=32)
def _shape(length, spacing):
    """What every table over [length] at this spacing shares: its target
    width, the typecode of its jumps, and walk's step range, numbered from 1
    so that the step in hand is the count of reads made."""
    return width(length), typecode(length), range(1, eval_budget(spacing) + 1)


class ShortcutTable:
    """Marked positions plus packed back-pointers for one permutation.

    payload is the stored form, nbits bits: the L mark bits, bit x for
    element x, then each marked element's target in mark order.  jumps[x]
    is 1 + x's target where x is marked and 0 elsewhere, which is what
    walk() reads; _decode() is the one place that fills it.
    """

    __slots__ = ("length", "spacing", "payload", "nbits", "jumps", "_steps")

    def __init__(self, pi, length, spacing):
        """Build from an evaluator pi over [length]; build-time calls are free."""
        self._decode(self.encode(list(map(pi, range(length))), spacing),
                     length, spacing)

    @staticmethod
    def encode(image, spacing):
        """The payload stored for the permutation x -> image[x] of [L]: the L
        mark bits, then each target in mark order, width(L) bits each.  A
        step outside [0, L), to an element already seen, or to a non-integer
        raises MalformedInputError."""
        if spacing < 1:
            raise MalformedInputError(f"spacing must be >= 1, got {spacing}")
        length = len(image)
        seen = bytearray(length)
        back = [0] * length  # 1 + each mark's back-pointer, 0 elsewhere
        payload = 0
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
            for x, target in zip(marked, [cycle[-spacing]] + marked[:-1]):
                back[x] = target + 1
                payload |= 1 << x
        tw = width(length)
        for i, j in enumerate(filter(None, back)):
            payload |= (j - 1) << (length + i * tw)
        return payload

    def _decode(self, payload, length, spacing):
        """Fill self from a payload that encode() made over [length]; a target
        outside [0, length) raises CorruptIndexError before anything is filled."""
        tw, code, self._steps = _shape(length, spacing)
        self.length = length
        self.spacing = spacing
        self.payload = payload
        marks = payload & ((1 << length) - 1)
        ones = marks.bit_count()
        self.nbits = length + ones * tw
        targets = split_fields(payload >> length, ones, tw)
        # Checked first: at L = 255 a target of 255 would not fit its
        # 8-bit jump entry as 1 + target.
        if ones and max(targets) >= length:
            raise CorruptIndexError(f"shortcut target outside [0, {length})")
        self.jumps = jumps = array(code, bytes(array(code).itemsize * length))  # zeros
        # The mark bits as bytes, lowest first: a NUL where unmarked.
        flags = format(marks, "b").encode()[::-1].replace(b"0", b"\0")
        for x, target in zip(compress(count(), flags), targets):
            jumps[x] = target + 1
        return self

    def invert(self, q, pi):
        """Return i with pi(i) == q, using at most eval_budget(spacing) calls.
        A pi value outside [0, L) raises OutOfRangeError, and one that is not
        an integer MalformedInputError."""
        return self.walk(q, _Forward(pi, self.length), ProbeSession(), 0,
                         range(self.length), _NO_OFFSET)

    def walk(self, q, text, session, start, base, hashes):
        """Return x with pi(x) == q, for the block permutation pi whose step is

            c = text.reads[start + x]
            pi(x) = base[c] + hashes[c].eval(x)

        Walks forward from q, reads each element's jump entry until the one
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
                y = base[c] + hashes[c].eval(x)
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
        marks = br.read(length)
        field = br.read(marks.bit_count() * _shape(length, spacing)[0])
        return object.__new__(cls)._decode(marks | field << length, length, spacing)
