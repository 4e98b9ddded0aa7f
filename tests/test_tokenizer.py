"""Tokenization (§4.1.1) and common-variable replacement (§4.1.2)."""
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tokenizer import (
    COMMON_VARIABLES,
    TOKENIZE_PATTERN,
    WILDCARD,
    preprocess_message,
    replace_variables,
    tokenize,
)


class TestTokenize:
    def test_simple_whitespace(self):
        assert tokenize("a b c") == ["a", "b", "c"]

    def test_multiple_delimiters_collapse(self):
        assert tokenize("a,,  b;;c") == ["a", "b", "c"]

    @pytest.mark.parametrize("delim", list(",;=()[]{}?@&<>:") + ["\t", "\n", "\r"])
    def test_each_delimiter(self, delim):
        assert tokenize(f"a{delim}b") == ["a", "b"]

    def test_url_protocol_separator(self):
        assert tokenize("http://host/path") == ["http", "host/path"]

    def test_sentence_period_split(self):
        assert tokenize("done. next") == ["done", "next"]

    def test_trailing_period_stripped(self):
        assert tokenize("connection closed.") == ["connection", "closed"]

    def test_period_in_number_preserved(self):
        assert tokenize("v1.2.3 ok") == ["v1.2.3", "ok"]

    def test_period_in_domain_preserved(self):
        assert tokenize("host.example.com up") == ["host.example.com", "up"]

    def test_quotes_are_delimiters(self):
        assert tokenize('say "hello" now') == ["say", "hello", "now"]

    def test_escaped_quote(self):
        assert tokenize(r"a\"b") == ["a", "b"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_only_delimiters(self):
        assert tokenize(" ,;= ") == []

    def test_key_value_split(self):
        assert tokenize("pid=1234 uid=99") == ["pid", "1234", "uid", "99"]

    def test_slash_not_delimiter(self):
        assert tokenize("/var/log/app.log ok") == ["/var/log/app.log", "ok"]

    def test_dash_not_delimiter(self):
        assert tokenize("blk_-123-x ok") == ["blk_-123-x", "ok"]


class TestReplaceVariables:
    def test_iso_timestamp(self):
        assert replace_variables("at 2024-07-01 12:30:45 done") == f"at {WILDCARD} done"

    def test_timestamp_with_millis(self):
        assert replace_variables("t 2024-07-01T12:30:45.123 e") == f"t {WILDCARD} e"

    def test_ipv4(self):
        assert replace_variables("from 10.0.3.44 closed") == f"from {WILDCARD} closed"

    def test_ipv4_with_port(self):
        assert replace_variables("to 10.0.3.44:8080 ok") == f"to {WILDCARD} ok"

    def test_uuid(self):
        u = "123e4567-e89b-42d3-a456-426614174000"
        assert replace_variables(f"id {u} ok") == f"id {WILDCARD} ok"

    def test_md5(self):
        assert replace_variables("h " + "a1" * 16 + " ok") == f"h {WILDCARD} ok"

    def test_hex_literal(self):
        assert replace_variables("addr 0xDEADbeef end") == f"addr {WILDCARD} end"

    @pytest.mark.parametrize(
        "message, expected",
        [
            ("²0x1f end", "²* end"),
            ("a\u03010x1f end", "a\u0301* end"),
            ("0x1f² end", "*² end"),
            ("½" + "a1" * 16, "½*"),
            ("é0x1f end", "é* end"),
            ("g0x1f end", "g0x1f end"),
            ("_0x1f end", "_0x1f end"),
        ],
    )
    def test_word_boundary_is_ascii(self, message, expected):
        # Only [0-9A-Za-z_] neighbours block a hex or hash match.
        assert replace_variables(message) == expected

    def test_plain_words_untouched(self):
        s = "service started on node alpha"
        assert replace_variables(s) == s

    def test_all_defaults_compile(self):
        for p, _ in COMMON_VARIABLES:
            re.compile(p)


def _unguarded(message: str) -> str:
    """``replace_variables`` without the guards: every pattern runs."""
    for p, _ in COMMON_VARIABLES:
        message = re.sub(p, WILDCARD, message)
    return message


#: Concatenations of single characters the patterns are made of and of
#: whole pattern matches, so that matches overlap, abut and nest.
_VARIABLE_HEAVY = st.lists(
    st.one_of(
        st.sampled_from("0123456789abcdefx-:./ T"),
        st.characters(),
        *(st.from_regex(p, fullmatch=True) for p, _ in COMMON_VARIABLES),
    ),
    max_size=12,
).map("".join)


class TestGuards:
    """Each pattern's guard is a necessary condition, so skipping a
    pattern whose guard fails never changes the output."""

    @pytest.mark.parametrize("pattern,guard", COMMON_VARIABLES, ids=[p for p, _ in COMMON_VARIABLES])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_guard_holds_on_every_match(self, pattern, guard, data):
        m = data.draw(st.from_regex(pattern))
        assert re.search(pattern, m)
        assert guard(m)

    @settings(max_examples=200, deadline=None)
    @given(_VARIABLE_HEAVY)
    def test_guarded_equals_unguarded(self, m):
        assert replace_variables(m) == _unguarded(m)

    def test_guarded_equals_unguarded_on_corpora(self):
        from repro.logs import loghub_lite
        from repro.logs.corpus import LOGHUB

        for name in LOGHUB:
            for m in loghub_lite(name)[0]["message"]:
                assert replace_variables(m) == _unguarded(m), (name, m)


class TestPreprocess:
    def test_pipeline_order(self):
        # Replacement happens before tokenization: the timestamp's inner
        # space must not split it into two tokens.
        toks = preprocess_message("x 2024-07-01 12:30:45 y")
        assert toks == ["x", WILDCARD, "y"]

    def test_replace_off(self):
        # Tokenization alone keeps the variable; preprocessing replaces it.
        assert tokenize("from 10.0.3.44 closed") == ["from", "10.0.3.44", "closed"]
        assert preprocess_message("from 10.0.3.44 closed") == ["from", WILDCARD, "closed"]


#: Characters at the edges of the patterns' classes and anchors:
#: controls (``\s`` would hold ``\x1c``-``\x1f``), Unicode spaces, line
#: terminators (``$`` would match before a final ``\n``), non-ASCII
#: digits (``\d`` would match them), a non-ASCII letter, non-ASCII
#: numerals that are not decimal digits and a combining mark (``\b``
#: would differ), and the hex, timestamp and delimiter characters the
#: patterns are made of.
_PARITY_ALPHABET = (
    "\x00\x01\x1c\x1d\x1e\x1f\x7f"
    "\xa0\u1680\u2003\u3000\u200b"
    "\n\r\x0b\x0c\x85\u2028\u2029"
    "0123456789\u0660\u0661\u0665\uff10"
    "abcdefABCDEFxTé²½Ⅻ\u0301"
    " -:./,;=()[]{}?@&<>'\"\\_"
)
_PARITY_FRAGMENTS = (
    "2024-07-01 12:30:45.123",
    "2024/07/01 12:30:45",
    "10.0.3.44:8080",
    "123e4567-e89b-42d3-a456-426614174000",
    "a1" * 16,
    "0xDEADbeef",
    "done. ",
)
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _parity_messages(n: int, seed: int = 0) -> list[str]:
    """Seeded random strings over ``_PARITY_ALPHABET``, with pattern
    matches (some in Arabic-Indic digits) mixed in."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        parts = []
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.2:
                frag = rng.choice(_PARITY_FRAGMENTS)
                parts.append(frag.translate(_ARABIC_INDIC) if rng.random() < 0.3 else frag)
            else:
                parts.append("".join(rng.choices(_PARITY_ALPHABET, k=rng.randint(1, 4))))
        out.append("".join(parts))
    return out
