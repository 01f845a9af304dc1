"""Word text (digit strings for p ≤ 10, dot-separated letters above) and
the order in which words are drawn."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import padic_cuntz.suites as suites
from padic_cuntz import (InvalidDigitError, Scalar, SelfCheckError,
                         parse_word, word_str, words_of_length, words_up_to)


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


def choice_draws(p, depth, sample, seed):
    """The (I, J) pairs rng.choice draws from the full word lists with the
    same seed, every draw in order: the samples suite_gns must check."""
    rng = random.Random(seed)
    boundary = list(words_of_length(p, depth))
    everything = list(words_up_to(p, depth))
    want = []
    for _ in range(sample):
        I, J = rng.choice(boundary), rng.choice(everything)
        if rng.random() < 0.5:
            I, J = J, I
        want.append((I, J))
    return want


def closed_form(p, I, J):
    return Scalar.root_p_power(p, -(len(I) + len(J)))


@pytest.mark.parametrize("p, depth", [(2, 6), (3, 5), (5, 4)])
def test_gns_samples_are_the_words_choice_draws(monkeypatch, p, depth):
    # suite_gns decodes random word indices.  Each pair's state value is a
    # distinct wrong number, so the sample failure rows spell out every
    # draw in order, repeats included, whether or not a pair is re-evaluated
    pairs = {}

    def label(p, I, J):
        value = Scalar.from_ints(p, -1 - len(pairs))
        pairs[value.pretty()] = (I, J)
        return value

    monkeypatch.setattr(suites, "gns_state", label)
    rows = [row for row in suites.suite_gns(p, depth, 2000, seed=7).failures
            if row["case"].startswith("state-sample")]
    assert [row["case"] for row in rows] == [
        f"state-sample[{n}]" for n in range(2000)]
    assert [pairs[row["actual"]] for row in rows] == choice_draws(
        p, depth, 2000, 7)


def test_gns_evaluates_each_distinct_pair_once_per_call(monkeypatch):
    calls = Counter()

    def record(p, I, J):
        calls[I, J] += 1
        return closed_form(p, I, J)

    monkeypatch.setattr(suites, "gns_state", record)
    small = list(words_up_to(2, 3))
    pairs = {(I, J) for I in small for J in small}
    pairs |= set(choice_draws(2, 4, 2000, 0))
    for run in (1, 2):   # the memo lives for one call only
        report = suites.suite_gns(2, 4, 2000, seed=0)
        assert report.ok() and report.cases == len(small) ** 2 + 2000
        assert set(calls) == pairs and set(calls.values()) == {run}


def test_a_failing_sampled_pair_fails_every_draw(monkeypatch):
    draws = choice_draws(2, 4, 2000, 0)
    bad = draws[0]

    def state(p, I, J):
        if (I, J) == bad:
            raise SelfCheckError("stub")
        return closed_form(p, I, J)

    monkeypatch.setattr(suites, "gns_state", state)
    report = suites.suite_gns(2, 4, 2000, seed=0)
    ids = [f"state-sample[{n}]" for n, pair in enumerate(draws) if pair == bad]
    assert len(ids) > 1
    assert report.cases == 15 ** 2 + 2000
    assert report.failures == [
        {"case": case, "expected": "identity",
         "actual": "SelfCheckError: stub"} for case in ids]
