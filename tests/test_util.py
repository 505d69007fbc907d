"""The artifact file formats live in ``matchdid._util`` alone."""

import ast
from pathlib import Path

import pytest

import matchdid
from matchdid._util import read_csv, write_csv, write_json
from matchdid.errors import DataValidationError

# the format calls that only _util.py may make; impute.py keeps its own
# imputations.csv block codec, whose bytes depend on csv.writer quoting
FORMAT_CALLS = {("csv", "writer"), ("csv", "DictReader"), ("json", "dump")}
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


def test_round_trip_and_line_numbers(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], iter([["x\ny", 1], ["z", ""]]))
    assert path.read_bytes() == b'a,b\r\n"x\ny",1\r\nz,\r\n'
    assert list(read_csv(path, ["a", "b"])) == [
        (3, {"a": "x\ny", "b": "1"}), (4, {"a": "z", "b": ""})]


@pytest.mark.parametrize("content, found", [
    (b"", "found an empty file"),
    (b"a,c\r\n1,2\r\n", "found header ['a', 'c']"),
])
def test_header_refusal_names_file_and_columns(tmp_path, content, found):
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    with pytest.raises(DataValidationError) as err:
        list(read_csv(path, ["a", "b"]))
    assert str(err.value) == f"{path}: expected header ['a', 'b'], {found}"


def test_write_json_format(tmp_path):
    write_json(tmp_path / "t.json", {"b": [1, 2], "a": 0.5})
    assert (tmp_path / "t.json").read_text(encoding="utf-8") == (
        '{\n  "a": 0.5,\n  "b": [\n    1,\n    2\n  ]\n}\n')
