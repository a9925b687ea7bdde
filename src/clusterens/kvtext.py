"""The ``key=value`` lines of config files, ``--set`` items, report machine
blocks and the HDB1 config echo, and the text of their values."""

from __future__ import annotations


def format_value(value) -> str:
    """Booleans as ``true``/``false``, floats by ``repr`` (so they read back
    exactly), tuples comma-joined, everything else by ``str``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(map(format_value, value))
    return str(value)


def parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def parse_float_list(raw: str) -> tuple:
    return tuple(float(p) for p in raw.split(",") if p.strip())


def parse_int_list(raw: str) -> tuple:
    return tuple(int(p) for p in raw.split(",") if p.strip())


def render(pairs) -> str:
    """One ``key=value`` line per ``(key, value)`` pair."""
    return "".join(f"{key}={format_value(value)}\n" for key, value in pairs)


def parse(lines, source: str) -> dict:
    """The stripped keys and values of ``key=value`` lines, skipping blank
    ones; the last of a repeated key wins, a line without ``=`` raises."""
    pairs = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{source}:{lineno}: expected key=value, got {line!r}")
        pairs[key.strip()] = value.strip()
    return pairs
