"""Resource caps that guard the exponential enumerations.

Two caps remain: ``enumeration`` bounds n for every table or scan of 2**n
states (today the per-cell equilibria scan, over the free variables)
through the one guard :func:`check_states`, and ``listing`` the equilibria
expanded into set vectors.  Every cap can be overridden through the
``SETCONS_CAPS`` environment variable, e.g.
``SETCONS_CAPS="enumeration=16,listing=100"``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import CapExceeded, SetconsError


@dataclass(frozen=True)
class Caps:
    enumeration: int = 20     # the largest n of a 2**n table or scan
    listing: int = 10_000     # max equilibria expanded into full set vectors


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


def check_states(n: int, caps: Caps, what: str) -> None:
    """Refuse ``what``, a table or scan of 2**n states, above the enumeration cap."""
    if n > caps.enumeration:
        raise CapExceeded(f"{what} needs 2**{n} states (cap {caps.enumeration})")
