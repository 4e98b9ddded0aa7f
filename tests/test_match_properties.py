"""``ParserModel.match_tokens`` equals the brute-force reference matcher
exactly on random template banks, and still does after the bank grows
(``add_temp_template``) or is merged with a newer one (``merge_from``),
so the matching index and its vocabulary are rebuilt when they go stale.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import ParserModel
from repro.core.tokenizer import WILDCARD
from tests.match_reference import reference_match

#: template tokens: the wildcard, a control character and the empty string included
TEMPLATE_TOKENS = ["a", "b", "c", WILDCARD, "x\x1fy", ""]
#: log tokens: the above plus tokens no template of the first bank holds
LOG_TOKENS = TEMPLATE_TOKENS + ["zz", "\x1f"]


@st.composite
def banks(draw, pool=TEMPLATE_TOKENS):
    """Templates of 1–4 tokens, some all-wildcard, each a root or the
    child of an earlier template (so depths repeat), with saturation
    drawn from few values, so that ranks tie often."""
    bank = []
    for i in range(draw(st.integers(1, 30))):
        length = draw(st.integers(1, 4))
        if draw(st.integers(0, 5)) == 0:
            template = (WILDCARD,) * length
        else:
            template = tuple(draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length)))
        parent = draw(st.integers(-1, i - 1))
        bank.append((parent, template, draw(st.sampled_from([0.25, 0.5, 1.0]))))
    return bank


def build(bank) -> ParserModel:
    model = ParserModel()
    for parent, template, saturation in bank:
        model.add_node(parent, template, saturation, 1, group_key=str(len(template)))
    return model


@st.composite
def logs_near(draw, model: ParserModel):
    """Logs that are templates with wildcards filled and some positions
    changed (so most match something), and logs drawn at random."""
    logs = []
    for _ in range(draw(st.integers(1, 20))):
        if draw(st.booleans()):
            base = draw(st.sampled_from(model.nodes)).template
            toks = [
                draw(st.sampled_from(LOG_TOKENS)) if t == WILDCARD or draw(st.integers(0, 4)) == 0 else t
                for t in base
            ]
        else:
            length = draw(st.integers(1, 5))
            toks = draw(st.lists(st.sampled_from(LOG_TOKENS), min_size=length, max_size=length))
        logs.append(tuple(toks))
    return logs


def assert_matches_reference(model: ParserModel, logs) -> None:
    for toks in logs:
        assert model.match_tokens(toks) == reference_match(model.nodes, toks), toks


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_match_tokens_equals_reference(data):
    model = build(data.draw(banks()))
    logs = data.draw(logs_near(model))
    assert_matches_reference(model, logs)

    for toks in data.draw(st.lists(st.sampled_from(logs), min_size=1, max_size=3)):
        model.add_temp_template(toks)
        assert_matches_reference(model, logs)

    newer = build(data.draw(banks(pool=LOG_TOKENS)))
    model.merge_from(newer, sim_threshold=data.draw(st.sampled_from([0.5, 1.0])))
    assert_matches_reference(model, logs + [nd.template for nd in newer.nodes])
