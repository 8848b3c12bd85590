import json

import pytest

from ltcalib.artifacts import write_atomic, write_csv, write_json


class TestWriteAtomic:
    @pytest.mark.parametrize("binary", [False, True])
    def test_failed_write_keeps_previous_file_and_no_temporary(self, tmp_path, binary):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous\n")

        def half_then_fail(fh):
            fh.write(b"half of" if binary else "half of")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_atomic(path, half_then_fail, binary=binary)
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_replaces_the_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        write_atomic(path, lambda fh: fh.write("new\r\n"))
        assert path.read_bytes() == b"new\r\n"


class TestFormats:
    def test_json_is_sorted_indented_and_newline_terminated(self, tmp_path):
        write_json(tmp_path / "a.json", {"b": [1, 2.5], "a": None})
        assert (tmp_path / "a.json").read_text() == json.dumps(
            {"a": None, "b": [1, 2.5]}, indent=2) + "\n"

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_json_rejects_non_finite_before_writing(self, tmp_path, value):
        with pytest.raises(ValueError):
            write_json(tmp_path / "a.json", {"x": [1.0, value]})
        assert list(tmp_path.iterdir()) == []

    def test_csv_rows_end_in_crlf(self, tmp_path):
        write_csv(tmp_path / "a.csv", ["x", "y"], ([i, repr(i / 3)] for i in range(2)))
        assert (tmp_path / "a.csv").read_bytes() == b"x,y\r\n0,0.0\r\n1,0.3333333333333333\r\n"
