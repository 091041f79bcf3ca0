"""Block-decomposed systematic index with hard per-query probe budgets.

The sequence is cut into blocks of sigma consecutive positions (the last may
be shorter).  Per block: a unary bitstring Z = 1^{n_0} 0 1^{n_1} 0 ... encodes
symbol multiplicities, and lives only in the file's Z section, which no query
reads; a monotone hash per present symbol ranks in-block occurrences; shortcut
tables invert the block's stable-sort permutation; a predecessor structure per
present symbol counts occurrences below a position.  Across blocks, queries
route through an in-memory table of each symbol's per-block counts as prefix
sums, which open derives from the counts Z encodes.  The file stores each
of these facts once, in four sections, and ends in a CRC32 of every byte
before it.

Build encodes every block's payloads straight into those sections and then
opens the bytes as load does.  Open checks the file's structure and its CRC,
builds that table and records where each block's fields start, but decodes
no block: a query decodes its block on first touch, and `blocks` every block
still undecoded.  The index keeps the file bytes once, with its sections as
views into them; save returns those bytes and the space report reads the
section sizes, so neither decodes a block.

select walks: block via a binary search of that table (probe-free), then one
permutation inversion (<= 2t+1 probes).  rank reads its block's entry of the
table and adds a predecessor query whose accessor is the in-block select,
giving (3 + ceil(log2 k)) * (2t+1) probes at worst.  access is a single
probe.  The stored index never contains sequence symbols, only counts and
permutation shortcuts.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from bisect import bisect_left
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import accumulate, compress
from operator import index, sub

from .bits import BitWriter, read_bits, typecode, unary_counts, unary_section, width
from .errors import (
    BadSymbolError,
    CorruptIndexError,
    MalformedInputError,
    OutOfRangeError,
    PairingError,
    ProbeBudgetError,
    StrindexError,
    require_integers,
)
from .mmphf import MonotoneHash, shared
from .perm import ShortcutTable, eval_budget, stored_bits, stored_offsets
from .pred import DIRECT_LIMIT, PredIndex, budget as scall_budget

MAGIC = b"SSIX"
VERSION = 4

_TAG_Z = 2
_TAG_MMPHF = 3
_TAG_PRED = 4
_TAG_SHORT = 5
_TAGS = (_TAG_Z, _TAG_MMPHF, _TAG_PRED, _TAG_SHORT)

_HEADER = struct.Struct("<4sBQIIIQI")
_TABLE_ENTRY = struct.Struct("<IQQ")
_CRC = struct.Struct("<I")  # zlib.crc32 of every byte before it


def select_budget(t):
    """Maximum probes for one select query."""
    return eval_budget(t)


def rank_budget(t, k):
    """Maximum probes for one rank query."""
    return scall_budget(k) * eval_budget(t)


def max_k(sigma):
    """Largest admissible predecessor sub-sampling rate for this alphabet."""
    return width(sigma)


class _Block:
    """Per-block structures; positions are block-local."""

    __slots__ = ("start", "length", "base", "hashes", "preds", "shortcuts")

    def __init__(self, start, length, base, hashes, preds, shortcuts):
        self.start = start
        self.length = length
        self.base = base  # base[c]: occurrences of symbols < c in the block
        # hashes[c], preds[c]: c's sets, for every c < sigma; None where n_c = 0.
        self.hashes = hashes
        self.preds = preds
        self.shortcuts = shortcuts


@dataclass
class SpaceReport:
    """Exact stored size per component; total_bits is the serialized size."""

    n: int
    sigma: int
    t: int
    k: int
    z_bits: int
    cross_bits: int  # 0 since format v2, which stores no cross section
    mmphf_bits: int
    pred_bits: int
    shortcut_bits: int
    shortcut_target_bits: int
    header_bits: int
    directory_bits: int  # in-memory shortcut jump arrays and count tables; not stored
    total_bits: int

    def as_dict(self):
        """Every field, with total_bits reported last as r_bits."""
        d = asdict(self)
        d["r_bits"] = d.pop("total_bits")
        return d

    def lines(self):
        out = [f"n={self.n} sigma={self.sigma} t={self.t} k={self.k}"]
        out += [f"{key}={value}" for key, value in list(self.as_dict().items())[4:]]
        out.append(f"bits_per_symbol={self.total_bits / self.n:.3f}")
        return out


class StringIndex:
    """Systematic rank/select index; stores counts, never symbols."""

    __slots__ = ("n", "sigma", "t", "k", "fingerprint", "z", "before", "_blocks",
                 "_data", "_bits", "_sections", "_pending", "_sel_budget",
                 "_rnk_budget", "_paired")

    def __init__(self, data, n, sigma, t, k, fingerprint, z, before, nblocks,
                 sections):
        self._data = data  # the file bytes, which to_bytes returns
        self.n = n
        self.sigma = sigma
        self.t = t
        self.k = k
        self.fingerprint = fingerprint
        self.z = z  # the Z section as the file stores it; no query reads it
        # before[c * (nblocks + 1) + b]: occurrences of c in blocks < b; the
        # row's last entry is count(c).
        self.before = before
        # _blocks[b]: block b, or None until _decode reads it from _sections,
        # which are kept while _pending blocks are undecoded.
        self._blocks = [None] * nblocks
        self._sections = sections
        self._pending = nblocks
        # The hash, predecessor and shortcut sections' sizes in bits, and the
        # shortcut target fields' share of the last.
        self._bits = (*(offsets[-1] for _, offsets, *_ in sections), sections[-1][-1])
        self._sel_budget = select_budget(t)
        self._rnk_budget = rank_budget(t, k)
        self._paired = None

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, text, t, k=1):
        """Index `text` for probe budget t and predecessor sampling rate k.

        Encodes each block's hash, predecessor and shortcut payloads straight
        into the file's sections and opens those bytes as load does, so no
        block is decoded until a query touches it.
        """
        require_integers(t=t, k=k)
        t, k = index(t), index(k)
        if not 1 <= t < 1 << 32:  # the header's u32 field
            raise MalformedInputError(f"probe budget t must be in [1, 2**32), got {t}")
        n, sigma = text.n, text.sigma
        if sigma < 2:
            raise MalformedInputError(f"alphabet size must be >= 2, got {sigma}")
        if not 1 <= k <= max_k(sigma):
            raise MalformedInputError(
                f"k={k} outside [1, {max_k(sigma)}] for sigma={sigma}"
            )
        symbols = text.symbols()
        hash_bits = [MonotoneHash.payload_bits(m, sigma) for m in range(sigma + 1)]
        pred_bits = [PredIndex.payload_bits(m, sigma, k) for m in range(sigma + 1)]
        hash_w, pred_w, short_w = BitWriter(), BitWriter(), BitWriter()
        block_counts = []
        for start in range(0, n, sigma):
            length = min(sigma, n - start)
            occ = {}
            for i, c in enumerate(symbols[start:start + length]):
                occ.setdefault(c, []).append(i)
            counts = [0] * sigma
            pi = [0] * length
            rank = hfield = hpos = pfield = ppos = 0
            # Each block's payloads in symbol order, packed into one field.
            for c in sorted(occ):
                keys = occ[c]
                m = counts[c] = len(keys)
                if m > 1:
                    hfield |= MonotoneHash._encode(keys, sigma) << hpos
                    hpos += hash_bits[m]
                if m > DIRECT_LIMIT:
                    pfield |= PredIndex._encode(keys, sigma, k) << ppos
                    ppos += pred_bits[m]
                for i in keys:
                    pi[i] = rank
                    rank += 1
            hash_w.write(hfield, hpos)  # no bits where every set stores none
            pred_w.write(pfield, ppos)
            payload = ShortcutTable.encode(pi, t)
            short_w.write(payload, stored_bits(payload, length, t)[0])
            block_counts.append(counts)
        sections = (unary_section(block_counts), hash_w.getvalue(),
                    pred_w.getvalue(), short_w.getvalue())
        sizes = list(map(len, sections))
        offsets = accumulate(sizes, initial=_HEADER.size + _TABLE_ENTRY.size * len(_TAGS))
        blob = b"".join([
            _HEADER.pack(MAGIC, VERSION, n, sigma, t, k, text.fingerprint, len(_TAGS)),
            *map(_TABLE_ENTRY.pack, _TAGS, offsets, sizes), *sections])
        return cls.from_bytes(blob + _CRC.pack(zlib.crc32(blob)))

    @property
    def blocks(self):
        """Every block, decoding at once those that no query has touched."""
        if self._pending:
            self._decode([b for b, blk in enumerate(self._blocks) if blk is None])
        return self._blocks

    def _decode(self, bs):
        """Decode, keep and return blocks bs, the last of them; a payload the
        encoder cannot make raises CorruptIndexError and keeps none.  Each
        section is decoded for all of bs in turn, which decodes every block
        faster than block by block does."""
        hashes, preds, (shortcuts, offsets, _) = self._sections
        blocks, before, sigma = self._blocks, self.before, self.sigma
        stride = len(blocks) + 1
        counts = [list(map(sub, before[b + 1::stride], before[b::stride])) for b in bs]
        hash_sets = [_sets(hashes, b, cnt) for b, cnt in zip(bs, counts)]
        pred_sets = [_sets(preds, b, cnt) for b, cnt in zip(bs, counts)]
        tables = [object.__new__(ShortcutTable)._decode(
                      read_bits(shortcuts, offsets[b], offsets[b + 1]),
                      min(sigma, self.n - b * sigma), self.t) for b in bs]
        row = _row(sigma, sigma)
        for b, cnt, h, p, table in zip(bs, counts, hash_sets, pred_sets, tables):
            blk = blocks[b] = _Block(b * sigma, table.length, _prefix_counts(cnt, row),
                                     h, p, table)
        self._pending -= len(bs)
        if not self._pending:
            self._sections = None  # the memos, which nothing reads now
        return blk

    # -- queries ---------------------------------------------------------------

    def check_pairing(self, text):
        """Raise PairingError unless `text` is the sequence this index was built from."""
        if text is self._paired:
            return
        if text.fingerprint != self.fingerprint:
            raise PairingError(
                "text fingerprint does not match the one this index was built from"
            )
        self._paired = text

    # Each query runs in a try that costs nothing until it raises.  An error
    # raised for a non-integer argument, a TypeError or one of the package's
    # own, becomes MalformedInputError.

    def access(self, text, session, i):
        """s[i] at the cost of exactly one probe."""
        self.check_pairing(text)
        before = session.count
        try:
            sym = text.access(session, i)
        except (TypeError, StrindexError):
            require_integers(i=i)
            raise
        if session.count - before != 1:
            raise ProbeBudgetError("access must cost exactly one probe")
        return sym

    def select(self, text, session, c, j):
        """Position of the j-th occurrence of c, or -1; <= 2t+1 probes."""
        self.check_pairing(text)
        before = session.count
        try:
            if not 0 <= c < self.sigma:
                raise BadSymbolError(f"symbol {c} outside alphabet [0, {self.sigma})")
            if j < 1:
                raise OutOfRangeError(f"occurrence ordinal must be >= 1, got {j}")
            table = self.before
            row = c * (len(self._blocks) + 1)
            end = row + len(self._blocks)
            if j > table[end]:
                index(j)  # the one path on which a non-integer j meets no int op
                return -1
            b = bisect_left(table, j, row, end) - 1 - row
            jp = j - table[row + b]
            blk = self._blocks[b]
            if blk is None:
                blk = self._decode((b,))
            base = blk.base
            answer = blk.start + blk.shortcuts.walk(
                base[c] + jp - 1, text, session, blk.start, base, blk.hashes
            )
        except (TypeError, StrindexError):
            require_integers(c=c, j=j)
            raise
        if session.count - before > self._sel_budget:
            raise ProbeBudgetError(
                f"select used {session.count - before} probes; "
                f"budget is {self._sel_budget}"
            )
        return answer

    def rank(self, text, session, c, p):
        """Occurrences of c in s[0, p); <= (3 + ceil(log2 k)) * (2t+1) probes."""
        self.check_pairing(text)
        before = session.count
        try:
            if not 0 <= c < self.sigma:
                raise BadSymbolError(f"symbol {c} outside alphabet [0, {self.sigma})")
            if not 0 <= p <= self.n:
                raise OutOfRangeError(f"prefix {p} out of range [0, {self.n}]")
            b, p_local = divmod(p, self.sigma)
            # b == nblocks only when p == n on a block seam: the row's last entry.
            answer = self.before[c * (len(self._blocks) + 1) + b]
            if p_local == 0:
                return answer
            blk = self._blocks[b]
            if blk is None:
                blk = self._decode((b,))
            pred = blk.preds[c]
            if pred is not None:
                if p_local >= blk.length:
                    answer += pred.m
                else:
                    base = blk.base
                    answer += pred.count(p_local, blk.shortcuts.walk, base[c], text,
                                         session, blk.start, base, blk.hashes)
        except (TypeError, StrindexError):
            require_integers(c=c, p=p)
            raise
        if session.count - before > self._rnk_budget:
            raise ProbeBudgetError(
                f"rank used {session.count - before} probes; "
                f"budget is {self._rnk_budget}"
            )
        return answer

    # -- space accounting -------------------------------------------------------

    def space_report(self):
        """Exact sizes from the section sizes open records; decodes no block."""
        nblocks = len(self._blocks)
        sigma = self.sigma
        z_bits = self.n + nblocks * sigma
        mmphf_bits, pred_bits, shortcut_bits, target_bits = self._bits
        # Per block, a jump array over its length and a base array of sigma
        # entries, each at the typecode of its largest entry.
        last = self.n - (nblocks - 1) * sigma
        directory_bits = 8 * (
            (2 * nblocks - 1) * _row(sigma, sigma).size + _row(last, last).size
            + self.before.itemsize * len(self.before)
        )
        total_bits = 8 * len(self._data)
        component = z_bits + mmphf_bits + pred_bits + shortcut_bits
        if component > total_bits:
            raise AssertionError("component bits exceed serialized size")
        return SpaceReport(
            n=self.n,
            sigma=self.sigma,
            t=self.t,
            k=self.k,
            z_bits=z_bits,
            cross_bits=0,
            mmphf_bits=mmphf_bits,
            pred_bits=pred_bits,
            shortcut_bits=shortcut_bits,
            shortcut_target_bits=target_bits,
            header_bits=total_bits - component,
            directory_bits=directory_bits,
            total_bits=total_bits,
        )

    # -- serialization ------------------------------------------------------------

    def to_bytes(self):
        """The file bytes this index was built or opened from, as checked."""
        return self._data

    @classmethod
    def from_bytes(cls, data):
        data = bytes(data)  # kept once; the sections are views into it
        if len(data) < _HEADER.size:
            raise CorruptIndexError("index header truncated")
        magic, version, n, sigma, t, k, fingerprint, nsections = _HEADER.unpack_from(
            data, 0
        )
        if magic != MAGIC:
            raise CorruptIndexError(f"bad magic {magic!r}")
        if version != VERSION:
            raise CorruptIndexError(f"unsupported version {version}")
        if not (2 <= sigma <= n and t >= 1 and 1 <= k <= max_k(sigma)):
            raise CorruptIndexError(
                f"bad header: n={n} sigma={sigma} t={t} k={k} needs "
                f"2 <= sigma <= n, t >= 1 and 1 <= k <= {max_k(sigma)}"
            )
        end = len(data) - _CRC.size  # where the sections must end
        if end < _HEADER.size + nsections * _TABLE_ENTRY.size:
            raise CorruptIndexError("section table truncated")
        table = [_TABLE_ENTRY.unpack_from(data, _HEADER.size + i * _TABLE_ENTRY.size)
                 for i in range(nsections)]
        sections = {}
        view = memoryview(data)
        for tag, off, length in table:
            if off + length > end:
                raise CorruptIndexError(f"section {tag} overruns the file")
            sections[tag] = view[off:off + length]
        for tag in _TAGS:
            if tag not in sections:
                raise CorruptIndexError(f"missing section {tag}")
        nblocks = (n + sigma - 1) // sigma
        # Z holds n ones and sigma zeros per block; checking that first keeps
        # a forged n from sizing the per-block lists below.
        if (n + nblocks * sigma + 7) // 8 != len(sections[_TAG_Z]):
            raise CorruptIndexError("Z section length disagrees with the header")
        lengths = [min(sigma, n - b * sigma) for b in range(nblocks)]
        counts = unary_counts(sections[_TAG_Z], lengths, sigma)
        before = _routing_table(counts)

        # Where each block's field starts in each section: a set's size
        # depends only on its m, and a shortcut table's on its leading field.
        # No m exceeds sigma or the count of its symbol, a row's last entry.
        top = min(sigma, max(before[nblocks::nblocks + 1]))
        sets = []
        for tag, set_cls, params in ((_TAG_MMPHF, MonotoneHash, (sigma,)),
                                     (_TAG_PRED, PredIndex, (sigma, k))):
            sizes = [set_cls.payload_bits(m, *params) for m in range(top + 1)]
            offsets = array("Q", accumulate(
                (sum(map(sizes.__getitem__, cnt)) for cnt in counts), initial=0))
            _finish_section(offsets[-1], sections[tag])
            # Kept with its memo and its map of sets that store nothing.
            sets.append((sections[tag], offsets, set_cls, params, sizes,
                         {}, {0: None}))
        shortcuts = sections[_TAG_SHORT]
        offsets, target_bits = stored_offsets(shortcuts, lengths, t)
        _finish_section(offsets[-1], shortcuts)

        # Checked after the section sizes, so that each of them names its
        # fault: the table lists _TAGS in order, and its sections tile the
        # bytes between the table and the checksum.
        starts = accumulate((length for _, _, length in table),
                            initial=_HEADER.size + nsections * _TABLE_ENTRY.size)
        if ([tag for tag, _, _ in table] != list(_TAGS)
                or [off for _, off, _ in table] + [end] != list(starts)):
            raise CorruptIndexError("sections do not tile the file")
        if zlib.crc32(data[:end]) != _CRC.unpack_from(data, end)[0]:
            raise CorruptIndexError("index checksum mismatch")
        return cls(data, n, sigma, t, k, fingerprint, sections[_TAG_Z], before,
                   nblocks, (*sets, (shortcuts, offsets, target_bits)))


@lru_cache(maxsize=32)  # every block of a load asks for the same row
def _row(largest, length):
    """A Struct of `length` unsigned values <= largest, at typecode width.

    Arrays are filled from its packed bytes: struct converts ints in C, while
    array's own per-item conversion to B and H is about twice as slow.
    """
    return struct.Struct(f"{length}{typecode(largest)}")


def _prefix_counts(counts, row):
    """base[c] = counts[0] + ... + counts[c-1]; row is _row(sigma, sigma),
    since an entry is at most the block length."""
    return array(row.format[-1], row.pack(*accumulate(counts[:-1], initial=0)))


def _routing_table(block_counts):
    """Row c: prefix sums over blocks of block_counts[b][c], 0 up to
    count(c), all rows in one flat array."""
    row = _row(max(map(sum, zip(*block_counts))), len(block_counts) + 1)
    table = array(row.format[-1])
    for column in zip(*block_counts):
        table.frombytes(row.pack(*accumulate(column, initial=0)))
    return table


def _sets(section, b, counts):
    """Block b's tuple of sets, entry c holding counts[c] members and None
    where that count is 0, from a hash or predecessor section as from_bytes
    keeps it: its payloads are one field, split in symbol order.  The memo
    shares sets with equal payloads across blocks; `empty` maps m to the one
    set of m that stores nothing, and 0 to None."""
    data, offsets, cls, params, sizes, memo, empty = section
    start, end = offsets[b], offsets[b + 1]
    if start == end:  # every set of the block stores nothing
        for m in set(counts).difference(empty):
            empty[m] = shared(cls, 0, m, params, memo)
        return tuple(map(empty.__getitem__, counts))
    field = read_bits(data, start, end)
    sets = [None] * len(counts)
    for c in compress(range(len(counts)), counts):
        m = counts[c]
        size = sizes[m]
        if size:
            sets[c] = shared(cls, field & ((1 << size) - 1), m, params, memo)
            field >>= size
        else:
            s = empty.get(m)
            if s is None:
                s = empty[m] = shared(cls, 0, m, params, memo)
            sets[c] = s
    return tuple(sets)


def _finish_section(nbits, payload):
    """Raise unless a section of nbits bits of content ends in its last byte
    and the padding bits after it are zero, so that one index has one file."""
    if (nbits + 7) // 8 > len(payload):
        raise CorruptIndexError("section truncated: shorter than its content")
    if (nbits + 7) // 8 != len(payload):
        raise CorruptIndexError("section length disagrees with parsed content")
    if nbits % 8 and payload[-1] >> nbits % 8:
        raise CorruptIndexError("section padding bits are not zero")


def build(text, t, k=1):
    """Convenience wrapper for StringIndex.build."""
    return StringIndex.build(text, t, k)
