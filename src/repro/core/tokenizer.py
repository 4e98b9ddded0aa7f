"""Tokenization (§4.1.1) and common-variable replacement (§4.1.2).

``preprocess_message`` is the one preprocessing function: the sequential
path and the Spark tasks of both jobs call it on every raw message.
"""
from __future__ import annotations

import re
from collections.abc import Callable

#: Listing 1, with the sentence-period group made non-capturing (a
#: capturing group would leak the delimiter into ``re.split`` output).
#: ``[ \t\n\x0B\f\r]`` is ASCII whitespace only (``\s`` would also
#: split on Unicode spaces and U+001C-U+001F) and ``(?![\s\S])`` the
#: very end of the input (``$`` also matches before a final ``\n``).
TOKENIZE_PATTERN = (
    r"(?:://)|(?:(?:[ \t\n\x0B\f\r'\";=()\[\]{}?@&<>:,])"
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
#: literal every match contains, or a length every match has), so a
#: pattern whose guard fails is skipped. Replacements only insert ``*``,
#: which never creates a guard's literal. ``[0-9]`` matches ASCII digits
#: only (``\d`` would also match non-ASCII ones). Instead of ``\b``, a
#: look-ahead and a look-behind reject ASCII word characters
#: (``[0-9A-Za-z_]``) next to a match, so a non-ASCII letter or digit
#: such as ``é`` or ``²`` next to a match does not block it.
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
    """Variable replacement then tokenization."""
    return tokenize(replace_variables(message))
