"""Probe-counted access to a read-only symbol sequence.

Queries see symbols in two ways, each charged one probe per read.
ProbedText.access charges one probe to the caller's session per call, and
is the one entry point of StringIndex.access.  A π walk
(perm.ShortcutTable.walk) reads ProbedText.reads, the text's read-only
view, and charges its session once per walk with the number of reads it
made; RecordingText logs those reads, so a test can check the charge.
Builders and audit.Reference read through symbols(), the same view,
deliberately uncharged: preprocessing reads are outside the query probe
model.  The symbols are packed into an array of the narrowest unsigned type
that holds sigma - 1.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array

from .bits import typecode
from .errors import (
    EmptyTextError,
    MalformedInputError,
    OutOfRangeError,
    SigmaExceedsLengthError,
)

FORMATS = ("raw8", "u32le", "tokens")

_CHUNK = 16384  # symbols widened to u32 at a time, so no full-size copy is made


class ProbeSession:
    """Per-query probe counter; independent sessions never interact."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


class ProbedText:
    """Immutable sequence over [0, sigma) with counted access.

    reads is a read-only memoryview of the packed symbols, made once.  A
    walker that reads it charges its session one probe per read itself.
    """

    __slots__ = ("_payload", "reads", "_n", "_sigma", "_fingerprint")

    def __init__(self, symbols, sigma):
        payload = tuple(symbols)
        if not payload:
            raise EmptyTextError("text must contain at least one symbol")
        try:  # a non-integer symbol fails the comparisons or the packing
            if min(payload) < 0 or max(payload) >= sigma:
                pos = next(i for i, sym in enumerate(payload) if not 0 <= sym < sigma)
                raise MalformedInputError(f"symbol {payload[pos]} at position "
                                          f"{pos} outside alphabet [0, {sigma})")
            if sigma > len(payload):
                raise SigmaExceedsLengthError(
                    f"sigma {sigma} exceeds text length {len(payload)}"
                )
            self._payload = array(typecode(sigma - 1), payload)
        except TypeError as err:
            raise MalformedInputError(f"symbols must be integers: {err}") from None
        self.reads = memoryview(self._payload).toreadonly()
        self._n = len(payload)
        self._sigma = sigma
        self._fingerprint = None

    @property
    def n(self):
        return self._n

    @property
    def sigma(self):
        return self._sigma

    def access(self, session, i):
        """Return s[i], charging one probe.  Out-of-range and non-integer
        probes are free."""
        if not 0 <= i < self._n:
            raise OutOfRangeError(f"position {i} out of range [0, {self._n})")
        sym = self._payload[i]
        session.count += 1
        return sym

    def symbols(self):
        """The reads view, uncharged, for builders and audit.Reference only;
        every call returns the same object."""
        return self.reads

    @property
    def fingerprint(self):
        """crc32 | adler32 << 32 of n (u64 LE), sigma (u32 LE), then each
        symbol as u32 LE."""
        if self._fingerprint is None:
            head = struct.pack("<QI", self._n, self._sigma)
            crc, adler = zlib.crc32(head), zlib.adler32(head)
            payload = self._payload
            for i in range(0, self._n, _CHUNK):
                chunk = array("I", payload[i:i + _CHUNK])
                if sys.byteorder == "big":
                    chunk.byteswap()
                crc, adler = zlib.crc32(chunk, crc), zlib.adler32(chunk, adler)
            self._fingerprint = crc | adler << 32
        return self._fingerprint

    def __len__(self):
        return self._n

    def __repr__(self):
        return f"ProbedText(n={self._n}, sigma={self._sigma})"


class RecordingText:
    """A ProbedText that logs the position of every probe made through it.

    n, sigma, fingerprint and access pass through to the wrapped text;
    reads is a view that hands out the wrapped text's symbols.  Each
    position read through reads, and each position access returns, is
    appended to log in probe order, so a test can compare a session's
    charge with the reads a walk made.
    """

    __slots__ = ("text", "log", "reads")

    def __init__(self, text):
        self.text = text
        self.log = []
        self.reads = _LoggedView(text.reads, self.log)

    @property
    def n(self):
        return self.text.n

    @property
    def sigma(self):
        return self.text.sigma

    @property
    def fingerprint(self):
        return self.text.fingerprint

    def access(self, session, i):
        sym = self.text.access(session, i)
        self.log.append(i)
        return sym


class _LoggedView:
    """view[i], appending i to log once the read succeeds."""

    __slots__ = ("view", "log")

    def __init__(self, view, log):
        self.view = view
        self.log = log

    def __getitem__(self, i):
        sym = self.view[i]
        self.log.append(i)
        return sym


def load(data, fmt, declared_sigma=None):
    """Decode raw bytes in one of the wire formats into a ProbedText.

    raw8   - one symbol per byte
    u32le  - one symbol per 32-bit little-endian unsigned integer
    tokens - runs of the ASCII digits 0-9 separated by whitespace
    """
    if fmt not in FORMATS:
        raise MalformedInputError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    symbols = _decode(data, fmt)
    if not symbols:
        raise EmptyTextError("input contains no symbols")
    if declared_sigma is not None:
        if declared_sigma < 2:
            raise MalformedInputError(f"sigma must be at least 2, got {declared_sigma}")
        sigma = declared_sigma  # ProbedText rejects symbols outside it
    else:
        sigma = max(2, max(symbols) + 1)
    return ProbedText(symbols, sigma)


def _decode(data, fmt):
    if fmt == "raw8":
        return list(data)
    if fmt == "u32le":
        if len(data) % 4:
            raise MalformedInputError(
                f"u32le payload length {len(data)} is not a multiple of 4"
            )
        return list(struct.unpack(f"<{len(data) // 4}I", data))
    try:
        decoded = data.decode("ascii")
    except UnicodeDecodeError:
        raise MalformedInputError("tokens input is not ASCII text") from None
    out = []
    for pos, tok in enumerate(decoded.split()):
        # On ASCII text isdigit() passes only runs of 0-9; int() takes "+1", "1_0".
        if not tok.isdigit():
            if tok[0] == "-" and tok[1:].isdigit():
                raise MalformedInputError(f"token {tok} at position {pos} is negative")
            raise MalformedInputError(
                f"token {tok!r} at position {pos} is not a decimal integer"
            )
        out.append(int(tok))
    return out
