"""Small shared helpers: deterministic RNG substreams, the artifact file
formats (CSV and JSON), file hashing."""

from __future__ import annotations

import csv
import hashlib
import json
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

import numpy as np

from .errors import DataValidationError


def substream(*key) -> np.random.Generator:
    """Counter-based generator keyed by an arbitrary tuple.

    The key parts (ints, floats, strings) are serialized and hashed, so the
    stream depends only on the key values, never on creation order. This is
    what makes per-replicate / per-record draws independent of iteration
    order and of which other draws a run makes.
    """
    material = "\x1f".join(_encode(part) for part in key).encode()
    digest = hashlib.sha256(material).digest()
    words = np.frombuffer(digest, dtype=np.uint64)
    ss = np.random.SeedSequence(entropy=[int(w) for w in words])
    return np.random.Generator(np.random.Philox(ss))


def _encode(part) -> str:
    if isinstance(part, (bool, np.bool_)):
        return f"b{int(part)}"
    if isinstance(part, (int, np.integer)):
        return f"i{int(part)}"
    if isinstance(part, (float, np.floating)):
        # repr round-trips doubles exactly
        return f"f{float(part)!r}"
    if isinstance(part, str):
        return f"s{part}"
    raise TypeError(f"unsupported substream key part: {part!r}")


def fmt(value) -> str:
    """Render a cell for CSV output; None becomes the empty string."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if v != v:
            return "nan"
        if abs(v) < 1e15 and v == int(v):   # int() of an infinity raises
            return str(int(v))
        return repr(v)
    return str(value)


# ---------------------------------------------------------------------------
# artifact files: UTF-8, the csv module's default dialect (CRLF line ends)
# with a header row, and JSON with a 2-space indent, sorted keys and a
# trailing newline. imputations.csv (impute.py) keeps its own block codec.


def write_csv(path, columns: Iterable[str], rows: Iterable[Sequence]) -> None:
    """Write the header row ``columns``, then ``rows`` with their cells as
    given (callers format floats with ``fmt``)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def optional(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """Parser of a cell that may be empty: ``""`` reads as None."""
    def parse_optional(text: str):
        return None if text == "" else parse(text)
    return parse_optional


def flag(text: str) -> bool:
    """Parser of a 0/1 cell, the way ``fmt`` writes a bool."""
    if text not in ("0", "1"):
        raise ValueError(f"{text!r} is not 0 or 1")
    return text == "1"


def read_csv(path, columns: Mapping[str, Callable[[str], Any]],
             skip: Optional[Callable[[int, str], None]] = None,
             unique: Iterable[Union[str, Tuple[str, ...]]] = (),
             ) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Yield ``(line, row)`` for each data row of a CSV file whose header
    must be the keys of ``columns``; ``row`` maps each column to its cell
    read by that column's parser, and ``line`` is the physical line the row
    ends on.

    An empty file, another header, undecodable bytes and malformed CSV
    raise ``DataValidationError`` naming the file. So does a row whose cell
    count differs from the header's or whose cell a parser refuses, naming
    the line and the column; given ``skip``, such a row is instead passed
    to ``skip(line, reason)`` and left out.

    ``unique`` names each column, or tuple of columns, whose value may not
    repeat: a row that repeats one on a row that parsed raises
    ``DataValidationError`` naming the line and the line it repeats.
    """
    names, parsers = list(columns), list(columns.values())
    keys = [(key,) if isinstance(key, str) else key for key in unique]
    first_lines: List[Dict[tuple, int]] = [{} for _ in keys]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != names:
                found = ("an empty file" if header is None
                         else f"header {header}")
                raise DataValidationError(
                    f"{path}: expected header {names}, found {found}")
            for cells in filter(None, reader):      # pass over blank lines
                try:
                    row = _parse_row(names, parsers, cells)
                except ValueError as exc:
                    if skip is None:
                        raise DataValidationError(
                            f"{path}:{reader.line_num}: {exc}") from None
                    skip(reader.line_num, str(exc))
                    continue
                for key, lines in zip(keys, first_lines):
                    value = tuple(row[name] for name in key)
                    first = lines.setdefault(value, reader.line_num)
                    if first != reader.line_num:
                        raise DataValidationError(
                            f"{path}:{reader.line_num}: "
                            + ", ".join(f"{name} {v!r}"
                                        for name, v in zip(key, value))
                            + f" is also on line {first}")
                yield reader.line_num, row
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataValidationError(
                f"{path}: not readable as UTF-8 CSV ({exc})") from None


def _parse_row(names, parsers, cells) -> Dict[str, Any]:
    if len(cells) < len(names):
        raise ValueError(f"column {names[len(cells)]!r} is missing "
                         f"({len(cells)} cells for {len(names)} columns)")
    if len(cells) > len(names):
        raise ValueError(f"a cell follows the last column {names[-1]!r} "
                         f"({len(cells)} cells for {len(names)} columns)")
    row = {}
    for name, parse, cell in zip(names, parsers, cells):
        try:
            row[name] = parse(cell)
        except ValueError as exc:
            raise ValueError(f"column {name!r}: {exc}") from None
    return row


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> Any:
    """The value ``write_json`` wrote to ``path``; a file that is not UTF-8
    JSON raises ``DataValidationError`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:       # undecodable bytes or malformed JSON
        raise DataValidationError(
            f"{path}: not readable as UTF-8 JSON ({exc})") from None


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
