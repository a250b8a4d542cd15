"""Helpers shared by the model modules: distributions, costs and couplings.

Every family computes on float arrays and hands back a Python float when each
argument was a scalar.  Every descriptor is a compact ``name(arg,...)`` string
(the couplings add a few bare names), read by one parser.
"""

from __future__ import annotations

import numpy as np


def _as_array(x):
    """``x`` as a float array; a scalar becomes a 1-element one, to round as in an array."""
    a = np.asarray(x, dtype=float)
    return a.reshape(1) if a.ndim == 0 else a


def _scalar_like(value, *templates):
    """Return a float when every input was scalar, else the array unchanged.

    An input is scalar when it has ``ndim`` 0 (numpy scalars and 0-d arrays)
    or, lacking ``ndim``, when ``np.isscalar`` holds (Python numbers).
    """
    for t in templates:
        ndim = getattr(t, "ndim", None)
        if ndim is None:
            if not np.isscalar(t):
                return value
        elif ndim:
            return value
    return float(np.asarray(value).reshape(-1)[0])


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_call(text: str) -> tuple[str, list[str]]:
    """Split ``name(arg,...)`` into its lower-case name and its top-level arguments."""
    text = text.strip()
    open_idx = text.find("(")
    if open_idx < 0 or not text.endswith(")"):
        raise ValueError(f"malformed descriptor {text!r}; expected name(arg,...)")
    body = text[open_idx + 1 : -1]
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            break
        if ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in descriptor arguments {body!r}")
    parts.append(body[start:])
    return text[:open_idx].strip().lower(), [p.strip() for p in parts] if body.strip() else []


def _numeric_args(name: str, args: list[str], usage: str) -> list[float]:
    """The arguments of ``name(...)`` as floats; ``usage`` names them, comma-separated."""
    if len(args) != usage.count(",") + 1:
        raise ValueError(f"{name} descriptor takes ({usage})")
    try:
        return [float(a) for a in args]
    except ValueError as exc:
        raise ValueError(f"descriptor {name}: expected numeric arguments ({usage}), got {args!r}") from exc
