import json
import random
import struct
import zlib

import pytest

from strindex import ProbedText, build
from strindex.cli import EXIT_USAGE, main
from strindex.index import _HEADER, _TABLE_ENTRY, _TAG_SHORT, _TAGS


@pytest.fixture
def sample_files(tmp_path):
    data = tmp_path / "sample.bin"
    data.write_bytes(bytes([1, 0, 2, 1, 0, 0]))
    index = tmp_path / "sample.idx"
    rc = main([
        "build", "--input", str(data), "--format", "raw8", "--sigma", "3",
        "--t", "1", "--output", str(index),
    ])
    assert rc == 0
    return data, index


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_build_reports_space(sample_files, capsys, tmp_path):
    data, _ = sample_files
    out_ix = tmp_path / "again.idx"
    rc, out, _ = run(capsys, [
        "build", "--input", str(data), "--format", "raw8", "--sigma", "3",
        "--t", "1", "--output", str(out_ix),
    ])
    assert rc == 0
    assert "r_bits=" in out
    assert f"wrote {out_ix}" in out


def test_query_select(sample_files, capsys):
    data, index = sample_files
    rc, out, _ = run(capsys, [
        "query", "--index", str(index), "--input", str(data),
        "--format", "raw8", "--sigma", "3", "select", "0", "2",
    ])
    assert rc == 0
    answer, probes = out.split()
    assert answer == "4"
    assert probes.startswith("probes=")
    assert int(probes.split("=")[1]) <= 3  # 2t+1 with t=1


def test_query_rank_and_access(sample_files, capsys):
    data, index = sample_files
    rc, out, _ = run(capsys, [
        "query", "--index", str(index), "--input", str(data),
        "--format", "raw8", "--sigma", "3", "rank", "0", "0",
    ])
    assert (rc, out.strip()) == (0, "0 probes=0")
    rc, out, _ = run(capsys, [
        "query", "--index", str(index), "--input", str(data),
        "--format", "raw8", "--sigma", "3", "select", "2", "2",
    ])
    assert (rc, out.strip()) == (0, "-1 probes=0")
    rc, out, _ = run(capsys, [
        "query", "--index", str(index), "--input", str(data),
        "--format", "raw8", "--sigma", "3", "access", "2",
    ])
    assert (rc, out.strip()) == (0, "2 probes=1")


def test_query_bad_symbol_is_usage_error(sample_files, capsys):
    data, index = sample_files
    rc, _, err = run(capsys, [
        "query", "--index", str(index), "--input", str(data),
        "--format", "raw8", "--sigma", "3", "rank", "7", "0",
    ])
    assert rc == 2
    assert "error" in err


def test_verify_ok(sample_files, capsys):
    data, index = sample_files
    rc, out, _ = run(capsys, [
        "verify", "--index", str(index), "--input", str(data),
        "--format", "raw8", "--sigma", "3", "--queries", "200",
    ])
    assert rc == 0
    assert "0 mismatches" in out


def check_verify_rejects_query_count(sample_files, capsys, queries):
    data, index = sample_files
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--index", str(index), "--input", str(data),
              "--format", "raw8", "--sigma", "3", "--queries", queries])
    assert exc.value.code == 2
    assert "checked" not in capsys.readouterr().out


def test_verify_zero_queries(sample_files, capsys):
    # Checking nothing is not a pass: --queries must be at least 1.
    check_verify_rejects_query_count(sample_files, capsys, "0")


def test_verify_negative_queries(sample_files, capsys):
    check_verify_rejects_query_count(sample_files, capsys, "-3")


@pytest.mark.parametrize("queries", ["0", "-3"])
def test_bench_needs_a_positive_query_count(sample_files, capsys, tmp_path, queries):
    data, _ = sample_files
    out_csv = tmp_path / "bench.csv"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--input", str(data), "--format", "raw8", "--sigma", "3",
              "--t-list", "1", "--queries", queries, "--out", str(out_csv)])
    assert exc.value.code == 2
    assert "PASS" not in capsys.readouterr().out
    assert not out_csv.exists()


def test_verify_corrupted_index(sample_files, capsys, tmp_path):
    data, index = sample_files
    blob = bytearray(index.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad = tmp_path / "bad.idx"
    bad.write_bytes(bytes(blob))
    rc, _, _ = run(capsys, [
        "verify", "--index", str(bad), "--input", str(data),
        "--format", "raw8", "--sigma", "3",
    ])
    assert rc != 0


def test_verify_decodes_every_block_and_query_only_its_own(capsys, tmp_path):
    # sigma=6: a block's targets take width(6) = 3 bits, which also hold 7.
    rng = random.Random(3)
    symbols = [rng.randrange(6) for _ in range(60)]
    data = tmp_path / "text.bin"
    data.write_bytes(bytes(symbols))
    ix = build(ProbedText(symbols, 6), t=2)
    b = 4  # a middle block, which one verify query is unlikely to touch
    assert any(ix.blocks[b].shortcuts.jumps)  # it has a mark
    blob = bytearray(ix.to_bytes())
    # Block b's first target, after its 6 mark bits, becomes 7.
    table = [_TABLE_ENTRY.unpack_from(blob, _HEADER.size + i * _TABLE_ENTRY.size)
             for i in range(len(_TAGS))]
    start = (8 * next(off for tag, off, _ in table if tag == _TAG_SHORT)
             + sum(blk.shortcuts.nbits for blk in ix.blocks[:b]) + 6)
    for i in range(3):
        blob[(start + i) // 8] |= 1 << (start + i) % 8
    blob[-4:] = struct.pack("<I", zlib.crc32(blob[:-4]))
    bad = tmp_path / "bad.idx"
    bad.write_bytes(bytes(blob))
    text_args = ["--input", str(data), "--format", "raw8", "--sigma", "6"]
    rc, _, err = run(capsys, ["verify", "--index", str(bad), *text_args,
                              "--queries", "1"])
    assert rc == EXIT_USAGE  # CorruptIndexError's exit code
    assert "shortcut target" in err
    c = symbols[-1]  # its last occurrence is in the last block
    rc, out, _ = run(capsys, ["query", "--index", str(bad), *text_args,
                              "select", str(c), str(symbols.count(c))])
    assert (rc, out.split()[0]) == (0, "59")


def test_query_on_zero_sigma_header_is_usage_error(sample_files, capsys, tmp_path):
    data, index = sample_files
    blob = bytearray(index.read_bytes())
    blob[13:17] = bytes(4)  # header: magic(4) version(1) n(8), then sigma(4)
    bad = tmp_path / "sigma0.idx"
    bad.write_bytes(bytes(blob))
    rc, out, err = run(capsys, [
        "query", "--index", str(bad), "--input", str(data),
        "--format", "raw8", "--sigma", "3", "rank", "0", "3",
    ])
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_pairing_mismatch_exit_code(sample_files, capsys, tmp_path):
    _, index = sample_files
    other = tmp_path / "other.bin"
    other.write_bytes(bytes([0, 1, 2, 0, 1, 2]))
    rc, _, err = run(capsys, [
        "query", "--index", str(index), "--input", str(other),
        "--format", "raw8", "--sigma", "3", "rank", "0", "3",
    ])
    assert rc == 4
    assert "fingerprint" in err


def _fnv1a(message):
    h = 0xCBF29CE484222325
    for byte in message:
        h = ((h ^ byte) * 0x100000001B3) % (1 << 64)
    return h


def test_query_on_v2_index_is_usage_error(sample_files, capsys, tmp_path):
    # A v2 file has the same sections; only its version byte, its FNV-1a
    # fingerprint and so its CRC differ.  Its version rejects it before the
    # fingerprint could fail pairing.
    data, index = sample_files
    blob = bytearray(index.read_bytes()[:-4])
    blob[4] = 2  # header: magic(4), version(1), n, sigma, t, k, then fingerprint
    blob[25:33] = struct.pack("<Q", _fnv1a(struct.pack("<QI6I", 6, 3, 1, 0, 2, 1, 0, 0)))
    old = tmp_path / "v2.idx"
    old.write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(blob)))
    rc, out, err = run(capsys, [
        "query", "--index", str(old), "--input", str(data),
        "--format", "raw8", "--sigma", "3", "rank", "0", "3",
    ])
    assert (rc, out) == (EXIT_USAGE, "")
    assert "unsupported version 2" in err


def test_missing_input_is_io_error(capsys, tmp_path):
    rc, _, err = run(capsys, [
        "build", "--input", str(tmp_path / "nope.bin"), "--format", "raw8",
        "--t", "1", "--output", str(tmp_path / "x.idx"),
    ])
    assert rc == 3
    assert "i/o error" in err


def test_usage_errors_exit_2(sample_files, capsys, tmp_path):
    data, _ = sample_files
    with pytest.raises(SystemExit) as exc:
        main(["build", "--input", str(data), "--format", "raw8",
              "--t", "0", "--output", str(tmp_path / "x.idx")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["build", "--input", str(data), "--format", "raw8", "--sigma", "3",
              "--t", "1", "--k", "99", "--output", str(tmp_path / "x.idx")])
    assert exc.value.code == 2


def test_build_t_past_the_header_field_is_usage_error(sample_files, capsys, tmp_path):
    data, _ = sample_files
    out_ix = tmp_path / "x.idx"
    rc, out, err = run(capsys, [
        "build", "--input", str(data), "--format", "raw8", "--sigma", "3",
        "--t", str(1 << 32), "--output", str(out_ix),
    ])
    assert (rc, out) == (EXIT_USAGE, "")
    assert "probe budget t" in err and "Traceback" not in err
    assert not out_ix.exists()


def test_bench_writes_deterministic_csv_and_json(sample_files, capsys, tmp_path):
    data, _ = sample_files
    out_csv = tmp_path / "bench.csv"
    argv = [
        "bench", "--input", str(data), "--format", "raw8", "--sigma", "3",
        "--t-list", "1,2,2", "--k-list", "1", "--queries", "40",
        "--seed", "7", "--out", str(out_csv),
    ]
    rc, out_a, _ = run(capsys, argv)
    assert rc == 0
    csv_a = out_csv.read_bytes()
    json_path = tmp_path / "bench.json"
    rows = json.loads(json_path.read_text())
    assert [row["t"] for row in rows] == [1, 2]  # duplicates deduplicated
    rc, out_b, _ = run(capsys, argv)
    assert rc == 0
    assert out_csv.read_bytes() == csv_a
    assert out_a == out_b  # stdout is byte-stable for a fixed seed


def test_bench_out_json_keeps_the_csv(sample_files, capsys, tmp_path):
    data, _ = sample_files
    out = tmp_path / "sweep.json"
    argv = [
        "bench", "--input", str(data), "--format", "raw8", "--sigma", "3",
        "--t-list", "1", "--queries", "10", "--out", str(out),
    ]
    rc, stdout, _ = run(capsys, argv)
    assert rc == 0
    json_path = tmp_path / "sweep.json.json"
    assert out.read_text().startswith("n,sigma,t,k,")
    assert [row["t"] for row in json.loads(json_path.read_text())] == [1]
    assert f"wrote {out} and {json_path}" in stdout


def test_stdout_identical_for_identical_queries(sample_files, capsys):
    data, index = sample_files
    argv = [
        "query", "--index", str(index), "--input", str(data),
        "--format", "raw8", "--sigma", "3", "rank", "0", "5",
    ]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert (rc1, out1) == (rc2, out2)
