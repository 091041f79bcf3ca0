import random
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from strindex import (
    EmptyTextError,
    MalformedInputError,
    OutOfRangeError,
    ProbeSession,
    ProbedText,
    SigmaExceedsLengthError,
    load,
)
from strindex.text import RecordingText


def test_load_raw8_with_sigma():
    text = load(bytes([1, 0, 2, 1, 0, 0]), "raw8", 3)
    assert text.n == 6
    assert text.sigma == 3
    assert tuple(text.symbols()) == (1, 0, 2, 1, 0, 0)


def test_load_sigma_clamped_to_two():
    text = load(bytes([0, 0]), "raw8")
    assert text.n == 2
    assert text.sigma == 2


def test_load_rejects_symbol_outside_alphabet():
    with pytest.raises(MalformedInputError, match="position 0"):
        load(bytes([5]), "raw8", 3)
    with pytest.raises(MalformedInputError, match="position 2"):
        load(bytes([0, 1, 7, 1]), "raw8", 4)


def test_load_rejects_empty():
    with pytest.raises(EmptyTextError):
        load(b"", "raw8")
    with pytest.raises(EmptyTextError):
        load(b"   ", "tokens")


def test_load_rejects_sigma_exceeding_length():
    with pytest.raises(SigmaExceedsLengthError):
        load(bytes([0, 1]), "raw8", 5)
    # derived sigma can exceed n as well
    with pytest.raises(SigmaExceedsLengthError):
        load(bytes([9]), "raw8")


def test_load_u32le():
    payload = struct.pack("<4I", 3, 0, 1, 2)
    text = load(payload, "u32le")
    assert tuple(text.symbols()) == (3, 0, 1, 2)
    assert text.sigma == 4


def test_load_u32le_bad_length():
    with pytest.raises(MalformedInputError, match="multiple of 4"):
        load(b"\x01\x02\x03", "u32le")


def test_load_tokens():
    text = load(b" 1 0 2\n1\t0 0 ", "tokens", 3)
    assert tuple(text.symbols()) == (1, 0, 2, 1, 0, 0)


def test_load_tokens_errors():
    with pytest.raises(MalformedInputError, match="position 1"):
        load(b"0 x 1", "tokens")
    with pytest.raises(MalformedInputError, match="negative"):
        load(b"0 -1", "tokens")
    # int() would read these as 10 and 1; only runs of ASCII digits are tokens.
    for bad in (b"0 1_0", b"0 +1"):
        with pytest.raises(MalformedInputError, match="position 1 is not a decimal"):
            load(bad, "tokens")


def test_load_unknown_format():
    with pytest.raises(MalformedInputError):
        load(b"\x00\x00", "raw16")


def test_access_counts_probes(sample_text):
    sess = ProbeSession()
    assert sample_text.access(sess, 2) == 2
    assert sess.count == 1
    assert sample_text.access(sess, 0) == 1
    assert sample_text.access(sess, 0) == 1  # no caching: both charged
    assert sess.count == 3


def test_access_sessions_are_independent(sample_text):
    a, b = ProbeSession(), ProbeSession()
    sample_text.access(a, 1)
    assert (a.count, b.count) == (1, 0)
    sample_text.access(b, 1)
    sample_text.access(b, 2)
    assert (a.count, b.count) == (1, 2)


def test_access_out_of_range_is_uncharged(sample_text):
    sess = ProbeSession()
    with pytest.raises(OutOfRangeError):
        sample_text.access(sess, 6)
    with pytest.raises(OutOfRangeError):
        sample_text.access(sess, -1)
    with pytest.raises(TypeError):
        sample_text.access(sess, 2.0)
    assert sess.count == 0


def test_access_deterministic_across_sessions(sample_text):
    values = [sample_text.access(ProbeSession(), i) for i in range(sample_text.n)]
    again = [sample_text.access(ProbeSession(), i) for i in range(sample_text.n)]
    assert values == again == [1, 0, 2, 1, 0, 0]


def test_fingerprint_is_stable_and_discriminating():
    a = ProbedText([1, 0, 2, 1, 0, 0], 3)
    b = ProbedText([1, 0, 2, 1, 0, 0], 3)
    c = ProbedText([1, 0, 2, 1, 0, 1], 3)
    d = ProbedText([1, 0, 2, 1, 0, 0], 4)
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint
    assert a.fingerprint != d.fingerprint


def _one_shot(symbols, sigma):
    """The documented fingerprint, over the whole message at once:
    crc32 | adler32 << 32 of n (u64 LE), sigma (u32 LE), then each symbol
    as u32 LE."""
    message = struct.pack(f"<QI{len(symbols)}I", len(symbols), sigma, *symbols)
    return zlib.crc32(message) | zlib.adler32(message) << 32


@pytest.mark.parametrize("sigma", [2, 255, 256, 257, 65535, 65536, 65537])
def test_fingerprint_equals_the_byte_loop(sigma):
    # Each payload width, with both extremes of the alphabet, against the
    # checksums of the message's bytes in one call each.
    rng = random.Random(sigma)
    symbols = [0, sigma - 1] + [rng.randrange(sigma) for _ in range(sigma + 300)]
    rng.shuffle(symbols)
    assert ProbedText(symbols, sigma).fingerprint == _one_shot(symbols, sigma)


@pytest.mark.parametrize("n", [16383, 16384, 16385, 2 * 16384 + 7])
@pytest.mark.parametrize("sigma", [256, 16383])
def test_fingerprint_is_the_same_across_chunk_boundaries(n, sigma):
    # The checksums are updated 16,384 symbols at a time.  The u32 payload
    # (sigma > 65536) spans five chunks in the test above.
    rng = random.Random(n)
    symbols = [rng.randrange(sigma) for _ in range(n - 1)] + [sigma - 1]
    assert ProbedText(symbols, sigma).fingerprint == _one_shot(symbols, sigma)


def test_fingerprint_loads_no_hash_library():
    # hashlib loads OpenSSL, which adds megabytes to every open's resident size.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys\nsys.path.insert(0, {str(src)!r})\n"
        "from strindex import ProbedText, StringIndex\n"
        "text = ProbedText([i % 7 for i in range(500)], 7)\n"
        "blob = StringIndex.build(text, 2).to_bytes()\n"
        "StringIndex.from_bytes(blob).check_pairing(text)\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def test_constructor_validates():
    with pytest.raises(MalformedInputError):
        ProbedText([0, 3], 3)
    # The first symbol outside the alphabet is named, above it or below 0.
    with pytest.raises(MalformedInputError, match="symbol 3 at position 1"):
        ProbedText([0, 3, 1, 9], 3)
    with pytest.raises(MalformedInputError, match="symbol -1 at position 2"):
        ProbedText([0, 1, -1, 5], 3)
    with pytest.raises(MalformedInputError, match="integers"):
        ProbedText([0, 1.5, 1], 2)
    with pytest.raises(EmptyTextError):
        ProbedText([], 2)


def test_symbols_is_a_read_only_view_equal_to_the_input():
    symbols = [1, 0, 2, 1, 0, 0]
    text = ProbedText(symbols, 3)
    view = text.symbols()
    assert view is text.reads is text.symbols()  # one view, made once
    assert list(view) == symbols
    with pytest.raises(TypeError):
        view[0] = 2
    symbols[0] = 2  # the text keeps its own copy
    assert tuple(text.symbols()) == (1, 0, 2, 1, 0, 0)
    assert text.access(ProbeSession(), 0) == 1


def test_recording_text_passes_through_and_logs_each_probe():
    text = ProbedText([1, 0, 2, 1, 0, 0], 3)
    rec = RecordingText(text)
    assert (rec.n, rec.sigma, rec.fingerprint) == (6, 3, text.fingerprint)
    sess = ProbeSession()
    assert rec.access(sess, 2) == 2
    assert sess.count == 1  # access charges; the view does not
    assert [rec.reads[i] for i in (5, 0, 3)] == [0, 1, 1]
    assert sess.count == 1
    with pytest.raises(OutOfRangeError):
        rec.access(sess, 6)
    with pytest.raises(IndexError):
        rec.reads[6]
    assert rec.log == [2, 5, 0, 3]  # only the probes that returned a symbol


_BOUNDARIES = [(256, "B"), (257, "H"), (65536, "H"), (65537, "I")]


@pytest.mark.parametrize("sigma, code", _BOUNDARIES)
def test_payload_is_the_narrowest_array_that_holds_the_alphabet(sigma, code):
    symbols = list(range(sigma))[::-1]
    text = ProbedText(symbols, sigma)
    view = text.symbols()
    assert view.format == code
    assert list(view) == symbols
    sess = ProbeSession()
    assert text.access(sess, 0) == sigma - 1
    assert sess.count == 1


@pytest.mark.parametrize("sigma", [sigma for sigma, _ in _BOUNDARIES])
@pytest.mark.parametrize("above", [True, False], ids=["above", "negative"])
def test_bad_symbol_is_named_before_packing(sigma, above):
    # Named by position, even where the payload's typecode cannot hold it.
    symbols = list(range(sigma))
    value = sigma if above else -1
    symbols[5] = value
    with pytest.raises(MalformedInputError,
                       match=rf"symbol {value} at position 5 outside alphabet \[0, {sigma}\)"):
        ProbedText(symbols, sigma)


@pytest.mark.parametrize("symbols", [["a", "b"], [0, "b"], [None, 1]],
                         ids=["strings", "mixed", "none"])
def test_non_integer_symbols_are_malformed(symbols):
    # Such symbols fail the range check's comparisons before any packing.
    with pytest.raises(MalformedInputError, match="integers"):
        ProbedText(symbols, 2)
