"""Word text: digit strings for p ≤ 10, dot-separated letters above."""

import pytest
from hypothesis import given, settings, strategies as st

from padic_cuntz import InvalidDigitError, parse_word, word_str


def words(p):
    return st.lists(st.integers(0, p - 1), max_size=6).map(tuple)


@settings(deadline=None)
@given(st.data(), st.sampled_from([2, 3, 7, 11, 13]))
def test_word_text_round_trip(data, p):
    w = data.draw(words(p))
    v = data.draw(words(p))
    assert parse_word(word_str(w, p), p) == w
    assert (word_str(v, p) == word_str(w, p)) == (v == w)


def test_word_text_examples():
    assert word_str((1, 0), 7) == "10"
    assert parse_word("012", 3) == (0, 1, 2)
    assert word_str((10,), 11) == "10"
    assert word_str((1, 0), 11) == "1.0"
    assert word_str((12, 0, 3), 13) == "12.0.3"
    assert word_str((), 13) == ""
    assert parse_word("10", 11) == (10,)
    assert parse_word("1.0", 11) == (1, 0)
    assert parse_word("", 11) == ()


@pytest.mark.parametrize("text, p", [
    ("11", 11), ("13", 13), ("1.", 11), (".1", 11), ("1..2", 13),
    ("01", 11), ("1.x", 13), ("1.0", 7), ("²", 3), ("1.²", 11)])
def test_word_text_rejected(text, p):
    with pytest.raises(InvalidDigitError):
        parse_word(text, p)
