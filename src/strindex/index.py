"""Block-decomposed systematic index with hard per-query probe budgets.

The sequence is cut into blocks of sigma consecutive positions (the last may
be shorter).  Per block: a unary bitstring Z = 1^{n_0} 0 1^{n_1} 0 ... encodes
symbol multiplicities, and lives only in the file's Z section, which no query
reads; a monotone hash per present symbol ranks in-block occurrences; shortcut
tables invert the block's stable-sort permutation; a predecessor structure per
present symbol counts occurrences below a position.  Across blocks, queries
route through an in-memory table of each symbol's per-block counts as prefix
sums, which build and load derive from the counts Z encodes.  The file
stores each of these facts once, in four sections, and ends in a CRC32 of
every byte before it.

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
from itertools import accumulate, chain, compress
from operator import index

from .bits import BitReader, BitWriter, typecode, unary_counts, unary_section, width
from .errors import (
    BadSymbolError,
    CorruptIndexError,
    MalformedInputError,
    OutOfRangeError,
    PairingError,
    ProbeBudgetError,
    StrindexError,
)
from .mmphf import MonotoneHash, shared
from .perm import ShortcutTable, eval_budget
from .pred import DIRECT_LIMIT, PredIndex, budget as scall_budget

MAGIC = b"SSIX"
VERSION = 3

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

    __slots__ = ("n", "sigma", "t", "k", "fingerprint", "z", "before", "blocks",
                 "_sel_budget", "_rnk_budget", "_paired")

    def __init__(self, n, sigma, t, k, fingerprint, z, before, blocks):
        self.n = n
        self.sigma = sigma
        self.t = t
        self.k = k
        self.fingerprint = fingerprint
        self.z = z  # the Z section as the file stores it; no query reads it
        # before[c * (nblocks + 1) + b]: occurrences of c in blocks < b; the
        # row's last entry is count(c).
        self.before = before
        self.blocks = blocks
        self._sel_budget = select_budget(t)
        self._rnk_budget = rank_budget(t, k)
        self._paired = None

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, text, t, k=1):
        """Index `text` for probe budget t and predecessor sampling rate k."""
        if t < 1:
            raise MalformedInputError(f"probe budget t must be >= 1, got {t}")
        n, sigma = text.n, text.sigma
        if sigma < 2:
            raise MalformedInputError(f"alphabet size must be >= 2, got {sigma}")
        if not 1 <= k <= max_k(sigma):
            raise MalformedInputError(
                f"k={k} outside [1, {max_k(sigma)}] for sigma={sigma}"
            )
        symbols = text.symbols()
        # Each set is encoded to the payload the file stores and decoded through
        # the memo load uses, so equal sets share one immutable object.
        hash_memo, pred_memo = {}, {}
        base_row = _row(sigma, sigma)
        blocks = []
        block_counts = []
        for start in range(0, n, sigma):
            length = min(sigma, n - start)
            occ = {}
            for i, c in enumerate(symbols[start:start + length]):
                occ.setdefault(c, []).append(i)
            chars = sorted(occ)
            counts = [0] * sigma
            hashes, preds = [None] * sigma, [None] * sigma
            for c in chars:
                keys = occ[c]
                m = counts[c] = len(keys)
                payload = MonotoneHash.encode(keys, sigma) if m > 1 else 0
                hashes[c] = shared(MonotoneHash, payload, m, (sigma,), hash_memo)
                payload = PredIndex.encode(keys, sigma, k) if m > DIRECT_LIMIT else 0
                preds[c] = shared(PredIndex, payload, m, (sigma, k), pred_memo)
            base = _prefix_counts(counts, base_row)
            pi = [0] * length
            for c in chars:
                for r, i in enumerate(occ[c], base[c]):
                    pi[i] = r
            shortcuts = object.__new__(ShortcutTable)._decode(
                ShortcutTable.encode(pi, t), length, t)
            blocks.append(_Block(start, length, base, tuple(hashes), tuple(preds),
                                 shortcuts))
            block_counts.append(counts)
        return cls(n, sigma, t, k, text.fingerprint,
                   unary_section(block_counts),
                   _routing_table(block_counts), blocks)

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
            _require_integers(i=i)
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
            row = c * (len(self.blocks) + 1)
            end = row + len(self.blocks)
            if j > table[end]:
                index(j)  # the one path on which a non-integer j meets no int op
                return -1
            b = bisect_left(table, j, row, end) - 1 - row
            jp = j - table[row + b]
            blk = self.blocks[b]
            base = blk.base
            answer = blk.start + blk.shortcuts.walk(
                base[c] + jp - 1, text, session, blk.start, base, blk.hashes
            )
        except (TypeError, StrindexError):
            _require_integers(c=c, j=j)
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
            answer = self.before[c * (len(self.blocks) + 1) + b]
            if p_local == 0:
                return answer
            blk = self.blocks[b]
            pred = blk.preds[c]
            if pred is not None:
                if p_local >= blk.length:
                    answer += pred.m
                else:
                    base = blk.base
                    answer += pred.count(p_local, blk.shortcuts.walk, base[c], text,
                                         session, blk.start, base, blk.hashes)
        except (TypeError, StrindexError):
            _require_integers(c=c, p=p)
            raise
        if session.count - before > self._rnk_budget:
            raise ProbeBudgetError(
                f"rank used {session.count - before} probes; "
                f"budget is {self._rnk_budget}"
            )
        return answer

    # -- space accounting -------------------------------------------------------

    def space_report(self):
        z_bits = self.n + len(self.blocks) * self.sigma
        mmphf_bits = sum(h.nbits for blk in self.blocks
                         for h in blk.hashes if h is not None)
        pred_bits = sum(p.nbits for blk in self.blocks
                        for p in blk.preds if p is not None)
        shortcut_bits = sum(blk.shortcuts.nbits for blk in self.blocks)
        target_bits = shortcut_bits - sum(blk.length for blk in self.blocks)
        directory_bits = (
            sum(blk.shortcuts.directory_bits() for blk in self.blocks)
            + sum(8 * blk.base.itemsize * len(blk.base) for blk in self.blocks)
            + 8 * self.before.itemsize * len(self.before)
        )
        # The length to_bytes() gives, from the section sizes: the hash,
        # predecessor and shortcut sections each pad to a whole byte.
        total_bits = 8 * (
            _HEADER.size + _TABLE_ENTRY.size * len(_TAGS) + len(self.z)
            + sum((bits + 7) // 8 for bits in (mmphf_bits, pred_bits, shortcut_bits))
            + _CRC.size
        )
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
        sections = {
            _TAG_Z: self.z,
            _TAG_MMPHF: _write_sets(blk.hashes for blk in self.blocks),
            _TAG_PRED: _write_sets(blk.preds for blk in self.blocks),
            _TAG_SHORT: _write_sets((blk.shortcuts,) for blk in self.blocks),
        }
        header = _HEADER.pack(
            MAGIC, VERSION, self.n, self.sigma, self.t, self.k,
            self.fingerprint, len(_TAGS),
        )
        offset = len(header) + _TABLE_ENTRY.size * len(_TAGS)
        table = bytearray()
        body = bytearray()
        for tag in _TAGS:
            payload = sections[tag]
            table += _TABLE_ENTRY.pack(tag, offset, len(payload))
            body += payload
            offset += len(payload)
        blob = header + bytes(table) + bytes(body)
        return blob + _CRC.pack(zlib.crc32(blob))

    @classmethod
    def from_bytes(cls, data):
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
        for tag, off, length in table:
            if off + length > end:
                raise CorruptIndexError(f"section {tag} overruns the file")
            sections[tag] = data[off:off + length]
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
        charsets = [list(compress(range(sigma), cnt)) for cnt in counts]

        hashes_per_block = _read_sets(sections[_TAG_MMPHF], counts, charsets,
                                      MonotoneHash, (sigma,))
        preds_per_block = _read_sets(sections[_TAG_PRED], counts, charsets,
                                     PredIndex, (sigma, k))

        br = BitReader(sections[_TAG_SHORT])
        shortcuts = [ShortcutTable.read(br, length, t) for length in lengths]
        _finish_section(br, sections[_TAG_SHORT])

        # Checked after the parses, so that each of them names its fault: the
        # table lists _TAGS in order, and its sections tile the bytes between
        # the table and the checksum.
        starts = accumulate((length for _, _, length in table),
                            initial=_HEADER.size + nsections * _TABLE_ENTRY.size)
        if ([tag for tag, _, _ in table] != list(_TAGS)
                or [off for _, off, _ in table] + [end] != list(starts)):
            raise CorruptIndexError("sections do not tile the file")
        if zlib.crc32(data[:end]) != _CRC.unpack_from(data, end)[0]:
            raise CorruptIndexError("index checksum mismatch")
        base_row = _row(sigma, sigma)
        blocks = [
            _Block(
                b * sigma, lengths[b], _prefix_counts(counts[b], base_row),
                hashes_per_block[b], preds_per_block[b], shortcuts[b],
            )
            for b in range(nblocks)
        ]
        return cls(n, sigma, t, k, fingerprint, bytes(sections[_TAG_Z]),
                   _routing_table(counts), blocks)


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


def _write_sets(per_block):
    """A hash, predecessor or shortcut section: per block, the payloads of its
    stored objects (None for no set) in order, packed into one field."""
    bw = BitWriter()
    for objs in per_block:
        field = pos = 0
        for s in objs:
            if s is not None:
                size = s.nbits
                if size:
                    field |= s.payload << pos
                    pos += size
        if pos:
            bw.write(field, pos)
    return bw.getvalue()


def _read_sets(section, counts, charsets, cls, params):
    """Per block, the tuple whose entry c is the cls set of counts[b][c]
    members, None where that count is 0, from a hash or predecessor section;
    params are what cls.payload_bits takes after m, (sigma,) or (sigma, k),
    as mmphf.shared takes them.

    A payload's size depends only on m, so each block's payloads are read
    as one field and split.  A memo that lives for this call only lets sets
    with equal payloads share one immutable object; a set that stores
    nothing is the one object of its m.
    """
    br = BitReader(section)
    memo = {}
    sizes = {m: cls.payload_bits(m, *params)
             for m in set(chain.from_iterable(counts)) if m}
    empty = {m: shared(cls, 0, m, params, memo)
             for m, size in sizes.items() if not size}
    out = []
    for cnt, chars in zip(counts, charsets):
        ms = list(filter(None, cnt))  # the m of each symbol in chars
        nbits = list(map(sizes.__getitem__, ms))
        total = sum(nbits)
        if not total:  # every set of the block stores nothing
            out.append(tuple(map(empty.get, cnt)))
            continue
        field = br.read(total)
        sets = [None] * len(cnt)
        for c, m, size in zip(chars, ms, nbits):
            if size:
                sets[c] = shared(cls, field & ((1 << size) - 1), m, params, memo)
                field >>= size
            else:
                sets[c] = empty[m]
        out.append(tuple(sets))
    _finish_section(br, section)
    return out


def _require_integers(**args):
    """Raise MalformedInputError naming the first query argument that is not
    an integer; a bool is one."""
    for name, value in args.items():
        try:
            index(value)
        except TypeError:
            raise MalformedInputError(f"{name} must be an integer, got {value!r}") from None


def _finish_section(br, payload):
    """Raise unless the parsed content ends in the section's last byte and
    the padding bits after it are zero, so that one index has one file."""
    consumed = br.bits_consumed
    if (consumed + 7) // 8 != len(payload):
        raise CorruptIndexError("section length disagrees with parsed content")
    if consumed % 8 and payload[-1] >> consumed % 8:
        raise CorruptIndexError("section padding bits are not zero")


def build(text, t, k=1):
    """Convenience wrapper for StringIndex.build."""
    return StringIndex.build(text, t, k)
