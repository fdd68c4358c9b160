"""Hypothesis properties of the inputs the program reads from outside."""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from multisiam import cli
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


def fits_a_config_line(raw: str) -> bool:
    """Whether ``key=raw`` reads back as the same pair from a config file."""
    return "#" not in raw and len(f"k={raw}".splitlines()) == 1


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(overrides, max_size=8), st.integers(0, 8))
def test_config_file_and_overrides_resolve_as_one_list(monkeypatch, pairs, split):
    # the first ``split`` pairs in a --config file, the rest on the command
    # line: the same config, or the same error. The error names the file when
    # every pair is in it, never when none is, and may either way in between
    monkeypatch.delenv("MULTISIAM_SEED", raising=False)
    split = min(split, len(pairs))
    assume(all(fits_a_config_line(raw) for _, raw in pairs[:split]))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "run.cfg")
        Path(path).write_text("".join(f"{key}={raw}\n" for key, raw in pairs[:split]),
                              encoding="utf-8")
        try:
            want = TR.config_from_pairs(pairs)
        except TR.ConfigError as err:
            try:
                cli._load_config(path, pairs[split:])
            except TR.ConfigError as split_err:
                named = f"{path}: {err}"
                if split == 0:
                    assert str(split_err) == str(err)
                elif split == len(pairs):
                    assert str(split_err) == named
                else:
                    assert str(split_err) in (str(err), named)
            else:
                raise AssertionError(f"{pairs} split at {split} resolved, but not at 0")
            return
        assert cli._load_config(path, pairs[split:]) == want
