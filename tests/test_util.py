"""The artifact file formats live in ``matchdid._util`` alone."""

import ast
import math
import re
from pathlib import Path

import pytest

import matchdid
from matchdid._util import (fmt, optional, read_csv, read_json, write_csv,
                            write_json)
from matchdid.errors import DataValidationError

# the format calls that only _util.py may make; impute.py keeps its own
# imputations.csv block codec, whose bytes depend on csv.writer quoting
FORMAT_CALLS = {("csv", "writer"), ("csv", "reader"), ("csv", "DictReader"),
                ("json", "dump")}
EXEMPT = {"_util.py", "impute.py"}


def _format_calls(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in FORMAT_CALLS):
            found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found.extend(f"{path.name}:{node.lineno}: from {node.module} "
                         f"import {alias.name}" for alias in node.names
                         if (node.module, alias.name) in FORMAT_CALLS)
    return found


def test_artifact_formats_only_in_util():
    package = Path(matchdid.__file__).parent
    offenders = [hit for path in sorted(package.glob("*.py"))
                 if path.name not in EXEMPT for hit in _format_calls(path)]
    assert offenders == []


COLUMNS = {"a": str, "b": optional(int)}


def test_round_trip_and_line_numbers(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, COLUMNS, iter([["x\ny", 1], ["z", ""]]))
    assert path.read_bytes() == b'a,b\r\n"x\ny",1\r\nz,\r\n'
    assert list(read_csv(path, COLUMNS)) == [
        (3, {"a": "x\ny", "b": 1}), (4, {"a": "z", "b": None})]


@pytest.mark.parametrize("content, found", [
    (b"", "found an empty file"),
    (b"a,c\r\n1,2\r\n", "found header ['a', 'c']"),
])
def test_header_refusal_names_file_and_columns(tmp_path, content, found):
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    with pytest.raises(DataValidationError) as err:
        list(read_csv(path, COLUMNS))
    assert str(err.value) == f"{path}: expected header ['a', 'b'], {found}"


@pytest.mark.parametrize("row, reason", [
    (b"z,1.5", "column 'b': invalid literal for int() with base 10: '1.5'"),
    (b"z", "column 'b' is missing (1 cells for 2 columns)"),
    (b"z,1,2", "a cell follows the last column 'b' (3 cells for 2 columns)"),
])
def test_bad_row_names_line_and_column(tmp_path, row, reason):
    # a stage artifact is refused; an input table skips the row
    path = tmp_path / "t.csv"
    path.write_bytes(b'a,b\r\n"x\ny",1\r\n' + row + b"\r\n\r\nw,2\r\n")
    with pytest.raises(DataValidationError) as err:
        list(read_csv(path, COLUMNS))
    assert str(err.value) == f"{path}:4: {reason}"
    skipped = []
    rows = read_csv(path, COLUMNS, lambda *args: skipped.append(args))
    assert [line for line, _ in rows] == [3, 6]
    assert skipped == [(4, reason)]


def test_fmt_writes_infinities():
    # cardmatch.std_diff is +inf where the pooled sd is 0 and means differ
    assert [fmt(v) for v in (math.inf, -math.inf, math.nan, 2.0, 0.5)] == [
        "inf", "-inf", "nan", "2", "0.5"]


def test_write_json_format(tmp_path):
    write_json(tmp_path / "t.json", {"b": [1, 2], "a": 0.5})
    assert (tmp_path / "t.json").read_text(encoding="utf-8") == (
        '{\n  "a": 0.5,\n  "b": [\n    1,\n    2\n  ]\n}\n')


def test_read_json_round_trip_and_refusal(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"b": [1, 2.5, float("inf")], "a": None})
    assert read_json(path) == {"a": None, "b": [1, 2.5, float("inf")]}
    for raw in (b'{"a": ', b'{"a": "\xff"}'):
        path.write_bytes(raw)
        with pytest.raises(DataValidationError, match=re.escape(
                f"{path}: not readable as UTF-8 JSON (")):
            read_json(path)
