"""Word text (digit strings for p ≤ 10, dot-separated letters above) and
the order in which words are drawn."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import padic_cuntz.suites as suites
from padic_cuntz import (InvalidDigitError, Scalar, parse_word, word_str,
                         words_of_length, words_up_to)


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


@pytest.mark.parametrize("p, depth", [(2, 6), (3, 5), (5, 4)])
def test_gns_samples_are_the_words_choice_draws(monkeypatch, p, depth):
    # suite_gns decodes random word indices; its samples must be the words
    # rng.choice draws from the full word lists with the same seed
    calls = []

    def record(p, I, J):
        calls.append((I, J))
        return Scalar.root_p_power(p, -(len(I) + len(J)))

    monkeypatch.setattr(suites, "gns_state", record)
    assert suites.suite_gns(p, depth, 2000, seed=7).ok()
    rng = random.Random(7)
    boundary = list(words_of_length(p, depth))
    everything = list(words_up_to(p, depth))
    want = []
    for _ in range(2000):
        I, J = rng.choice(boundary), rng.choice(everything)
        if rng.random() < 0.5:
            I, J = J, I
        want.append((I, J))
    assert calls[-2000:] == want
