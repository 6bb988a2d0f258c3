"""Deterministic seed derivation.

A master seed fans out to per-task seeds by hashing the master together
with a label path, e.g. ``subseed(master, "inst", depth, i)``.  The scheme
is stable across platforms and Python versions (SHA-256 of the rendered
key tuple), so any subset of an experiment can be rerun independently.
"""

from __future__ import annotations

try:  # the interpreter's own SHA-256: ``hashlib`` would load OpenSSL into every process
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256


def subseed(master: int, *parts: object) -> int:
    """Derive a 63-bit child seed from a master seed and a label path."""
    key = ":".join([str(master)] + [str(p) for p in parts])
    digest = sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
