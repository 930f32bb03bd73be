"""Mapping net names to program variable identifiers.

``.bench`` net names ("G17", "118gat", "I<3>") are not always legal
C/Python identifiers.  :class:`NameAllocator` maps arbitrary net names
to sanitized, collision-free identifiers deterministically, so the same
circuit always yields the same generated source.
"""

from __future__ import annotations

import re
from typing import Hashable

__all__ = ["NameAllocator", "sanitize_identifier"]

_INVALID = re.compile(r"[^0-9A-Za-z_]")

#: Words that may not be used bare as identifiers in the generated code.
_RESERVED = {
    # Python keywords that plausibly collide with short net names,
    # plus names the emitters use internally.
    "V", "OUT", "S", "MASK", "OUTMASK", "NOINLINE", "cmd", "machine",
    "word", "step", "pack_lanes", "unpack_lanes",
    "if", "else", "while", "yield", "not", "and", "or", "in", "is",
    "def", "return", "int", "char", "for", "do", "case", "switch",
    "static", "void", "const", "unsigned", "signed", "long", "short",
}


def sanitize_identifier(name: str) -> str:
    """A best-effort legal identifier derived from ``name``."""
    cleaned = _INVALID.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "n" + cleaned
    if cleaned in _RESERVED:
        cleaned += "_"
    return cleaned


class NameAllocator:
    """Deterministic, collision-free identifier allocation."""

    def __init__(self) -> None:
        self._by_key: dict[Hashable, str] = {}
        self._taken: set[str] = set(_RESERVED)

    def get(self, key: Hashable, suggestion: str | None = None) -> str:
        """Identifier for ``key``; allocates on first use.

        ``key`` is a net name, or any other hashable (a tuple, say,
        with a ``suggestion``) for a generator-private variable that
        must never alias a net.  ``suggestion`` defaults to the
        sanitized key.  Collisions get a numeric suffix.
        """
        existing = self._by_key.get(key)
        if existing is not None:
            return existing
        base = sanitize_identifier(suggestion if suggestion is not None else key)
        candidate = base
        counter = 1
        while candidate in self._taken:
            candidate = f"{base}_{counter}"
            counter += 1
        self._taken.add(candidate)
        self._by_key[key] = candidate
        return candidate

    def __contains__(self, key: Hashable) -> bool:
        return key in self._by_key
