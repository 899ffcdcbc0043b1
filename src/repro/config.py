"""Environment-variable parsing shared across the repro packages.

Several knobs can be set process-wide through the environment
(``REPRO_BACKEND``, ``REPRO_LATTICE_CHUNK_BYTES``, ...).  The
helpers here give every such knob the same, predictable behaviour:

* an unset or empty variable means *use the default*;
* a malformed value raises :class:`~repro.errors.ConfigError` naming
  the variable and the offending text — never a bare ``ValueError``
  from ``int()``.
"""

from __future__ import annotations

import os
from typing import Mapping, Optional, Sequence

from repro.errors import ConfigError

__all__ = ["env_int", "env_float", "env_choice"]


def env_int(
    name: str,
    default: int,
    minimum: Optional[int] = None,
    environ: Optional[Mapping[str, str]] = None,
) -> int:
    """Read an integer from the environment.

    Unset or empty means ``default``.  A value that does not parse as a
    base-10 integer, or parses below ``minimum``, raises
    :class:`ConfigError` naming the variable.
    """
    raw = (environ if environ is not None else os.environ).get(name)
    if raw is None:
        return default
    text = raw.strip()
    if not text:
        return default
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(
            f"{name}={raw!r} is not an integer"
        ) from None
    if minimum is not None and value < minimum:
        raise ConfigError(
            f"{name}={raw!r} must be >= {minimum}"
        )
    return value


def env_float(
    name: str,
    default: Optional[float],
    minimum: Optional[float] = None,
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[float]:
    """Read a float from the environment.

    Unset or empty means ``default`` (which may be ``None`` for knobs
    like deadlines where absence means "off").  A value that does not
    parse as a float, is not finite, or falls below ``minimum``, raises
    :class:`ConfigError` naming the variable.
    """
    raw = (environ if environ is not None else os.environ).get(name)
    if raw is None:
        return default
    text = raw.strip()
    if not text:
        return default
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(
            f"{name}={raw!r} is not a number"
        ) from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ConfigError(f"{name}={raw!r} must be finite")
    if minimum is not None and value < minimum:
        raise ConfigError(
            f"{name}={raw!r} must be >= {minimum}"
        )
    return value


def env_choice(
    name: str,
    default: str,
    choices: Sequence[str],
    environ: Optional[Mapping[str, str]] = None,
) -> str:
    """Read an enumerated string from the environment.

    Matching is case-insensitive (the canonical lower-case spelling is
    returned).  Unset or empty means ``default``; any other value
    raises :class:`ConfigError` naming the accepted spellings.
    """
    raw = (environ if environ is not None else os.environ).get(name)
    if raw is None:
        return default
    text = raw.strip().lower()
    if not text:
        return default
    if text in choices:
        return text
    raise ConfigError(
        f"{name}={raw!r} is not one of {sorted(choices)}"
    )
