import json

import pytest

from ltcalib.artifacts import (_AT_LEAST_ONE, _BOOL, FormatError, check_fields, list_of, write_atomic, write_csv,
                               write_json)


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


class TestCheckFields:
    RULES = {"n": _AT_LEAST_ONE, "flags": list_of("JSON booleans", _BOOL)}

    def test_valid_object_passes_and_keys_without_a_rule_are_ignored(self):
        check_fields(self.RULES, {"n": 3, "flags": [True, False], "other": "anything"})

    @pytest.mark.parametrize("doc, message", [
        ({"n": 0, "flags": []}, "meta.n: must be an integer >= 1 and < 2**63, got 0"),
        ({"n": True, "flags": []}, "meta.n: must be an integer >= 1 and < 2**63, got True"),
        ({"n": 1, "flags": [1]}, "meta.flags: must be a list of JSON booleans, got [1]"),
        ({"flags": []}, "meta.n: must be an integer >= 1 and < 2**63, got no value"),
        ([1], "meta: must be a JSON object, got [1]"),
    ])
    def test_first_failure_names_the_key_and_the_rule(self, doc, message):
        with pytest.raises(ValueError) as info:
            check_fields(self.RULES, doc, "meta.")
        assert str(info.value) == message

    def test_a_top_level_document_that_is_not_an_object_is_named_as_such(self):
        with pytest.raises(ValueError, match=r"^top level: must be a JSON object, got 'x'$"):
            check_fields(self.RULES, "x")

    def test_a_file_reader_raises_its_own_error_class_with_the_file_in_where(self):
        with pytest.raises(FormatError, match=r"^m\.json: meta\.n: must be an integer >= 1"):
            check_fields(self.RULES, {"n": -1, "flags": []}, "m.json: meta.", FormatError)
