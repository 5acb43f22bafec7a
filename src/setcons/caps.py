"""Resource caps that guard the exponential enumerations.

Three caps remain, each bounding a table or scan of 2**n entries or a
listing of equilibria; the partition and the encoded map grow linearly in
their inputs and need none.  Every cap can be overridden through the
``SETCONS_CAPS`` environment variable, e.g.
``SETCONS_CAPS="enumeration=16,listing=100"``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import SetconsError


@dataclass(frozen=True)
class Caps:
    enumeration: int = 20     # binary-map arity for exhaustive 2**n scans
    listing: int = 10_000     # max equilibria expanded into full set vectors
    normal_form: int = 16     # arity for 2**n coefficient tables


DEFAULT = Caps()

_FIELD_NAMES = {f.name for f in fields(Caps)}


def from_env(base: Caps = DEFAULT, env=os.environ) -> Caps:
    """Return ``base`` with any overrides from ``SETCONS_CAPS`` applied."""
    raw = env.get("SETCONS_CAPS", "").strip()
    if not raw:
        return base
    overrides = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in _FIELD_NAMES:
            raise SetconsError(f"SETCONS_CAPS: unknown entry {item!r}")
        try:
            overrides[key] = int(value)
        except ValueError:
            raise SetconsError(f"SETCONS_CAPS: {key} needs an integer, got {value!r}") from None
    return replace(base, **overrides)
