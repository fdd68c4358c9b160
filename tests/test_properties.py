"""Hypothesis properties of the inputs the program reads from outside."""

from hypothesis import given, settings
from hypothesis import strategies as st

from multisiam import train as TR
from multisiam.align import ALIGNMENT_MODES
from multisiam.objectives import LOSS_MODES

DEFAULTS = TR.config_as_dict(TR.TrainConfig())
WORDS = ("sgd", "lars", "cosine", "euclidean", *LOSS_MODES, *ALIGNMENT_MODES)


def typed_text(default):
    """Text of the key's own type, in and around its valid range."""
    if isinstance(default, bool) or default == "auto":
        return st.sampled_from(("true", "false", "on", "off", "auto"))
    if isinstance(default, int):
        return st.one_of(st.integers(-2, 20), st.integers(1, 16).map(lambda n: 8 * n)).map(str)
    if isinstance(default, float):
        return st.floats(-0.5, 1.5).map(repr)
    return st.sampled_from(WORDS)


def value_text(key):
    """Mostly text of the key's own type; one value in eight is any text."""
    return st.integers(0, 7).flatmap(
        lambda i: typed_text(DEFAULTS[key]) if i else st.text(max_size=8))


overrides = st.sampled_from(sorted(DEFAULTS)).flatmap(
    lambda key: st.tuples(st.just(key), value_text(key)))


@settings(max_examples=300, deadline=None)
@given(st.lists(overrides, max_size=8))
def test_config_overrides_are_rejected_or_round_trip(pairs):
    try:
        cfg = TR.config_from_pairs(pairs)
    except TR.ConfigError:
        return
    assert TR.config_from_text(TR.config_to_text(cfg)) == cfg
