"""Binary field-file format: byte-exact round trips and diagnostics."""

import os
import stat
import struct

import numpy as np
import pytest

from abreu import FormatError, ScalarField, make_grid, read_field, write_field
from abreu.fieldfile import MAGIC, atomic_write


def random_field(rng, dim, resolution):
    g = make_grid(dim, resolution)
    return ScalarField(g, rng.standard_normal(g.shape))


class TestRoundTrip:
    def test_values_bitwise_equal(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(10):
            dim = int(rng.integers(1, 3))
            res = [int(rng.choice([8, 16, 32])) for _ in range(dim)]
            f = random_field(rng, dim, res)
            path = tmp_path / f"f{trial}.fld"
            write_field(path, f)
            back = read_field(path)
            assert back.grid == f.grid
            assert np.array_equal(back.values, f.values)

    def test_rewrite_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        f = random_field(rng, 2, [8, 16])
        p1, p2 = tmp_path / "a.fld", tmp_path / "b.fld"
        write_field(p1, f)
        write_field(p2, read_field(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_layout(self, tmp_path):
        g = make_grid(2, [8, 16])
        f = ScalarField(g, np.arange(128, dtype=float).reshape(8, 16))
        path = tmp_path / "layout.fld"
        write_field(path, f)
        raw = path.read_bytes()
        assert raw[:5] == b"PABR1"
        assert struct.unpack_from("<I", raw, 5)[0] == 2
        assert struct.unpack_from("<2Q", raw, 9) == (8, 16)
        # row-major, last axis fastest: element (0, 1) comes second
        first_two = np.frombuffer(raw, "<f8", count=2, offset=25)
        assert first_two[0] == 0.0 and first_two[1] == 1.0
        assert len(raw) == 25 + 8 * 128


class TestDiagnostics:
    def test_bad_magic_named(self, tmp_path):
        path = tmp_path / "bad.fld"
        rng = np.random.default_rng(2)
        write_field(path, random_field(rng, 1, [8]))
        raw = bytearray(path.read_bytes())
        raw[:5] = b"PABR0"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as info:
            read_field(path)
        assert "PABR0" in str(info.value)

    def test_truncated_payload_exact_count(self, tmp_path):
        path = tmp_path / "trunc.fld"
        rng = np.random.default_rng(3)
        write_field(path, random_field(rng, 1, [16]))
        raw = path.read_bytes()
        path.write_bytes(raw[:-13])
        with pytest.raises(FormatError) as info:
            read_field(path)
        assert "missing 13 bytes" in str(info.value)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "header.fld"
        path.write_bytes(MAGIC + struct.pack("<I", 2) + struct.pack("<Q", 8))
        with pytest.raises(FormatError) as info:
            read_field(path)
        assert "resolution" in str(info.value)

    @pytest.mark.parametrize("raw, named", [
        (MAGIC[:3], "file of 3 bytes is shorter than the"),
        (MAGIC + b"\x01\x00", "missing 2 bytes of the dimension field"),
        (MAGIC + struct.pack("<I", 0), "dimension field is 0, must be >= 1"),
    ])
    def test_short_or_empty_header_named(self, tmp_path, raw, named):
        path = tmp_path / "short.fld"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=named):
            read_field(path)

    def test_huge_header_reads_as_truncated(self, tmp_path):
        # 2^62 * 8 nodes: a node count that wrapped to 0 took the empty
        # payload for a whole one
        path = tmp_path / "huge.fld"
        path.write_bytes(MAGIC + struct.pack("<I", 2) + struct.pack("<2Q", 2**62, 8))
        with pytest.raises(FormatError, match="payload truncated"):
            read_field(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "trail.fld"
        rng = np.random.default_rng(4)
        write_field(path, random_field(rng, 1, [8]))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError) as info:
            read_field(path)
        assert "2 trailing bytes" in str(info.value)

    def test_invalid_resolution_rejected(self, tmp_path):
        path = tmp_path / "odd.fld"
        payload = struct.pack("<7d", *range(7))
        path.write_bytes(MAGIC + struct.pack("<I", 1) + struct.pack("<Q", 7) + payload)
        with pytest.raises(FormatError):
            read_field(path)

    def test_nonfinite_payload_rejected(self, tmp_path):
        path = tmp_path / "nan.fld"
        payload = struct.pack("<8d", *([0.0] * 7 + [float("nan")]))
        path.write_bytes(MAGIC + struct.pack("<I", 1) + struct.pack("<Q", 8) + payload)
        with pytest.raises(FormatError):
            read_field(path)

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
    )
    def test_written_files_follow_the_umask(self, tmp_path, umask, mode):
        path, report = tmp_path / "f.fld", tmp_path / "report.json"
        previous = os.umask(umask)
        try:
            write_field(path, random_field(np.random.default_rng(6), 1, [8]))
            atomic_write(report, lambda handle: handle.write("{}"), binary=False)
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert stat.S_IMODE(report.stat().st_mode) == mode

    def test_write_is_atomic(self, tmp_path):
        # no temp debris left behind after a successful write
        rng = np.random.default_rng(5)
        path = tmp_path / "atomic.fld"
        write_field(path, random_field(rng, 1, [8]))
        assert sorted(os.listdir(tmp_path)) == ["atomic.fld"]
