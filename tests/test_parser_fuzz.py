"""Fuzzing of the text parsers: every input either parses or raises an
error that the CLI reports with exit code 2, and none takes long."""

from datetime import timedelta

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sympelem.cli import USAGE_ERRORS
from sympelem.localglobal import CoverData
from sympelem.rings import parse_element, ring_from_descriptor
from sympelem.words import word_from_text

FUZZ = settings(max_examples=300, deadline=timedelta(seconds=2),
                suppress_health_check=[HealthCheck.too_slow])

ELEMENT_RINGS = {text: ring_from_descriptor(text)
                 for text in ("q", "poly:q:t", "zmod:15", "loc:poly:q:t:s=t")}


def _token_text(tokens, max_size, sep=""):
    """Free text over the characters of the tokens, or a run of whole
    tokens joined by ``sep``, which reaches past the tokenizer into the
    grammar."""
    chars = "".join(sorted(set("".join(tokens) + sep)))
    return st.one_of(st.text(chars, max_size=max_size),
                     st.lists(st.sampled_from(tokens), max_size=max_size // 2).map(sep.join))


ELEMENT_TOKENS = ["0", "1", "2", "3", "15", "64", "65", "t", "s", "x", "+", "-", "*", "/", "^",
                  "(", ")", " "]


def _parses_or_usage_error(parse, text):
    try:
        parse(text)
    except USAGE_ERRORS:
        pass


@FUZZ
@given(st.sampled_from(sorted(ELEMENT_RINGS)), _token_text(ELEMENT_TOKENS, 24))
def test_parse_element_fuzz(ring_text, text):
    _parses_or_usage_error(lambda t: parse_element(ELEMENT_RINGS[ring_text], t), text)


DESCRIPTOR_TOKENS = ["q", "zmod", "poly", "loc", "s=t", "s=2", "s=0", "s=3*t", "s=", "t", "x,y",
                     "t,t", ",", "", "0", "1", "2", "3", "4", "15", "-3", "1+t", " "]
# descriptors by their grammar, with element texts, moduli and variable
# lists that are valid or nearly so
DESCRIPTORS = st.recursive(
    st.one_of(st.just("q"), st.sampled_from(["zmod:" + m for m in ("15", "4", "1", "-3", "", "x")])),
    lambda inner: st.one_of(
        st.builds("poly:{}:{}".format, inner, st.sampled_from(["t", "x,y", "t,t", "", " , "])),
        st.builds("loc:{}:s={}".format, inner, _token_text(ELEMENT_TOKENS, 8))),
    max_leaves=4)


@FUZZ
@given(st.one_of(_token_text(DESCRIPTOR_TOKENS, 30, sep=":"), DESCRIPTORS))
def test_ring_from_descriptor_fuzz(text):
    _parses_or_usage_error(ring_from_descriptor, text)


# atom kinds with the number of fields their lines take; DENSE, no atom
# kind, with the 16 entries of a 4x4 matrix
WORD_ARITY = {"S": 3, "A": 2, "B": 2, "C": 2, "D": 2, "E12": 1, "E21": 1, "UB": 2, "UC": 2,
              "CORNER": 4, "DENSE": 16, "#": 1, "X": 1}
WORD_ARGS = ["0", "1", "2", "3", "4", "5", "6", "-1", "t", "1+t", "1/2", "t/0", "(1+t)^65", "a"]
WORD_TOKENS = list(WORD_ARITY) + WORD_ARGS + ["\n", "\n"]
# lines of one atom kind with about the right number of fields
WORD_LINES = st.sampled_from(sorted(WORD_ARITY)).flatmap(
    lambda head: st.lists(st.sampled_from(WORD_ARGS), min_size=WORD_ARITY[head] - 1,
                          max_size=WORD_ARITY[head] + 1).map(lambda args: " ".join([head] + args)))
WORD_RINGS = [ring_from_descriptor(text) for text in ("zmod:15", "poly:q:t")]


@FUZZ
@given(st.sampled_from(range(len(WORD_RINGS))), st.sampled_from([2, 3]),
       st.one_of(_token_text(WORD_TOKENS, 40, sep=" "),
                 st.lists(WORD_LINES, max_size=4).map("\n".join)))
def test_word_from_text_fuzz(ring_index, n, text):
    _parses_or_usage_error(lambda t: word_from_text(WORD_RINGS[ring_index], n, t), text)


COVER_TOKENS = ["s=", "c=", "b=", "N=", "s", "=", "2", "4", "11", "-1", "t", "1-t", "0", "x",
                "(", "^", "65", "#", " ", "\n"]
COVER_FIELDS = st.sampled_from(["s", "c", "b", "N", "q", ""]).flatmap(
    lambda key: st.sampled_from(WORD_ARGS + ["", "-2", "99999999999999999999"]).map(
        lambda value: f"{key}={value}"))
COVER_RINGS = [ring_from_descriptor(text) for text in ("zmod:15", "poly:q:t")]


@FUZZ
@given(st.sampled_from(range(len(COVER_RINGS))),
       st.one_of(_token_text(COVER_TOKENS, 40),
                 st.lists(st.lists(COVER_FIELDS, max_size=5).map(" ".join), max_size=3)
                 .map("\n".join)))
def test_cover_from_text_fuzz(ring_index, text):
    _parses_or_usage_error(lambda t: CoverData.from_text(COVER_RINGS[ring_index], t), text)
