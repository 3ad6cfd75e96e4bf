"""The CLI's JSON writer against the stdlib encoder: cli._emit must write
exactly json.dumps(obj, sort_keys=True, indent=2) plus a newline, for the
value types it writes itself and for those it hands to json.dumps."""

import contextlib
import enum
import io
import json

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ghlcert.cli import _emit


class Level(enum.IntEnum):
    LOW = -3
    HIGH = 2 ** 70


class Tag(str):
    pass


_SPECIAL = '"\\\n\r\t\x00\x1f\x7fé€ \U0001f600'
strings = st.text(st.one_of(st.sampled_from(_SPECIAL), st.characters()),
                  max_size=8)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400), strings,
    # outside the writer's own types: json.dumps writes these subtrees
    st.floats(), st.sampled_from([float("inf"), float("-inf"), float("nan")]),
    st.sampled_from(list(Level)), strings.map(Tag))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(strings, children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.integers(), children, max_size=3),
        st.dictionaries(strings.map(Tag), children, max_size=2))


trees = st.recursive(scalars, _containers, max_leaves=24)


def _emitted(obj) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(obj)
    return out.getvalue()


@seed(8)
@settings(max_examples=120, deadline=None, database=None)
@given(st.one_of(trees, st.lists(trees, max_size=4)))
def test_emit_matches_stdlib_encoder(obj):
    assert _emitted(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_emit_edge_shapes():
    for obj in ([], {}, [[]], [{}], {"a": []}, [[[1]], {"": {"b": None}}],
                "line\nbreak", 2 ** 200, -1, [True, False, None], (1, [2]),
                {1: "x", 10: [2.5]}, [float("nan"), Level.HIGH, Tag("t")]):
        assert _emitted(obj) == json.dumps(obj, sort_keys=True,
                                           indent=2) + "\n", obj
