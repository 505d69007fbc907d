"""Small shared helpers: deterministic RNG substreams, the artifact file
formats (CSV and JSON), file hashing."""

from __future__ import annotations

import csv
import hashlib
import json
from typing import Dict, Iterable, Iterator, Sequence, Tuple

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
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return repr(v)
    return str(value)


# ---------------------------------------------------------------------------
# artifact files: UTF-8, the csv module's default dialect (CRLF line ends)
# with a header row, and JSON with a 2-space indent, sorted keys and a
# trailing newline. imputations.csv (impute.py) keeps its own block codec.


def write_csv(path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the header row ``columns``, then ``rows`` with their cells as
    given (callers format floats with ``fmt``)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def read_csv(path, columns: Sequence[str]) -> Iterator[Tuple[int, Dict[str, str]]]:
    """Yield ``(line, row)`` for each data row of a CSV file whose header
    must be ``columns``; ``line`` is the physical line the row ends on.

    An empty file, another header, undecodable bytes and malformed CSV
    raise ``DataValidationError`` naming the file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames != list(columns):
                found = ("an empty file" if reader.fieldnames is None
                         else f"header {reader.fieldnames}")
                raise DataValidationError(
                    f"{path}: expected header {list(columns)}, found {found}")
            for row in reader:
                yield reader.line_num, row
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataValidationError(
                f"{path}: not readable as UTF-8 CSV ({exc})") from None


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
