"""The ``key=value`` lines of config files, ``--set`` items, report machine
blocks and the HDB1 config echo, and the text of their values."""

from __future__ import annotations

# the size of one read of a text input (characters; bytes of a text
# labeling), and the longest line ``read_lines`` accepts
TEXT_CHUNK = 1 << 16
# characters of an offending line that an error message quotes
QUOTE_CHARS = 40


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
    ones; the last of a repeated key wins, a line without ``=`` raises,
    quoting the line's first ``QUOTE_CHARS`` characters."""
    pairs = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            more = "..." if len(line) > QUOTE_CHARS else ""
            raise ValueError(f"{source}:{lineno}: expected key=value, "
                             f"got {line[:QUOTE_CHARS]!r}{more}")
        pairs[key.strip()] = value.strip()
    return pairs


def read_lines(path):
    """The lines of a UTF-8 text file, without their line ends, read one at
    a time.  ``ValueError`` at a line of more than ``TEXT_CHUNK`` characters,
    named by its number, or at bytes that are not UTF-8, so no line is held
    whole."""
    with open(path, encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(iter(lambda: f.readline(TEXT_CHUNK + 1), ""), start=1):
                if line.endswith("\n"):
                    line = line[:-1]
                if len(line) > TEXT_CHUNK:
                    raise ValueError(f"{path}:{lineno}: line of more than {TEXT_CHUNK} characters")
                yield line
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
