"""Small shared helpers: deterministic RNG substreams, CSV formatting,
file hashing."""

from __future__ import annotations

import hashlib

import numpy as np


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


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
