"""Tokenization (§4.1.1) and common-variable replacement (§4.1.2).

The Listing-1 regular expression and the variable patterns are written
without engine-dependent character classes or anchors, so the exact
same pattern text drives the pure-Python path (``re``) and the Spark path
(``F.split``/``regexp_replace``, Java regex) and the two paths produce
identical tokens for every input string (tested).
"""
from __future__ import annotations

import re
from collections.abc import Callable

from pyspark.sql import Column
from pyspark.sql import functions as F

#: Listing 1, with the sentence-period group made non-capturing (a
#: capturing group would leak the delimiter into ``re.split`` output).
#: ``[ \t\n\x0B\f\r]`` is Java's ``\s`` (Python's also matches Unicode
#: spaces and ``\x1c``-``\x1f``) and ``(?![\s\S])`` the end of the input
#: (Java's ``$`` also matches before a final U+0085, U+2028 or U+2029).
#: ``\x1f`` is a delimiter too (not in Listing 1): it is the separator
#: templates are joined with, so no token may hold it.
TOKENIZE_PATTERN = (
    r"(?:://)|(?:(?:[ \t\n\x0B\f\r'\";=()\[\]{}?@&<>:,\x1f])"
    r"|(?:[.](?:[ \t\n\x0B\f\r]+|(?![\s\S])))|(?:\\[\"']))+"
)
_TOKENIZE_RE = re.compile(TOKENIZE_PATTERN)

#: The wildcard token: replaced common variables render to it during
#: preprocessing and template variable positions store it.
WILDCARD = "*"

#: Default common variables (§4.1.2): timestamps, IPs, UUIDs, MD5
#: hashes, hex literals, each a pattern and its guard. Order matters —
#: timestamps before bare dates/times, UUID before MD5 (both are hex
#: runs). A guard is a necessary condition for its pattern to match (a
#: literal every match contains, or a length every match has), so the
#: Python path skips a pattern whose guard fails. Replacements only
#: insert ``*``, which never creates a guard's literal. ``[0-9]``, not
#: ``\d``: Python's ``\d`` also matches non-ASCII digits, Java's does not.
#: No ``\b`` either: the engines' word characters differ on non-ASCII
#: numerals such as ``²`` (Python only) and on combining marks (Java
#: only). A look-ahead and a look-behind reject ASCII word characters
#: (``[0-9A-Za-z_]``) next to a match instead. The look-behind follows
#: the fixed-width body (UUID, MD5) or the leading ``0`` (hex), so it runs
#: only where a match has begun; as a pattern's first step Java tries it
#: at every position, which made ``match_df`` about 10% slower on the
#: web-access corpus (``local[2]``, 4 vCPU).
COMMON_VARIABLES: tuple[tuple[str, Callable[[str], bool]], ...] = (
    (  # ISO timestamp
        r"[0-9]{4}-[0-9]{2}-[0-9]{2}[ T][0-9]{2}:[0-9]{2}:[0-9]{2}(?:[.,][0-9]+)?",
        lambda m: "-" in m and ":" in m,
    ),
    (  # slash timestamp
        r"[0-9]{4}/[0-9]{2}/[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}",
        lambda m: "/" in m and ":" in m,
    ),
    (  # IPv4[:port]
        r"[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}(?::[0-9]{1,5})?",
        lambda m: "." in m,
    ),
    (  # UUID
        r"[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}"
        r"(?<![0-9A-Za-z_][\s\S]{36})(?![0-9A-Za-z_])",
        lambda m: m.count("-") >= 4,
    ),
    (  # MD5
        r"[0-9a-f]{32}(?<![0-9A-Za-z_][\s\S]{32})(?![0-9A-Za-z_])",
        lambda m: len(m) >= 32,
    ),
    (  # hex literal
        r"0(?<![0-9A-Za-z_]0)x[0-9a-fA-F]+(?![0-9A-Za-z_])",
        lambda m: "0x" in m,
    ),
)
_COMMON_VARIABLE_RES = [(re.compile(p), guard) for p, guard in COMMON_VARIABLES]


def replace_variables(message: str) -> str:
    """Rewrite known-variable substrings to the wildcard token."""
    for r, guard in _COMMON_VARIABLE_RES:
        if guard(message):
            message = r.sub(WILDCARD, message)
    return message


def tokenize(message: str) -> list[str]:
    """Split one log record into tokens with the Listing-1 regex."""
    return list(filter(None, _TOKENIZE_RE.split(message)))


def preprocess_message(message: str) -> list[str]:
    """Python-path preprocessing: variable replacement then tokenization."""
    return tokenize(replace_variables(message))


def spark_replace_variables(col: Column) -> Column:
    """Catalyst chain of ``regexp_replace`` for the common variables."""
    for p, _ in COMMON_VARIABLES:
        # Java regexp_replace treats the replacement as a template;
        # a literal "*" needs no escaping there.
        col = F.regexp_replace(col, p, WILDCARD)
    return col


def spark_tokenize(col: Column) -> Column:
    """Catalyst tokenization: split + drop empty tokens."""
    return F.filter(F.split(col, TOKENIZE_PATTERN), lambda t: t != F.lit(""))
