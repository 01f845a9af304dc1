"""Multiindex words over the letters {0, …, p−1}.

A word I = i₀…i_{k−1} is a plain tuple of ints.  The first letter i₀ is
the earliest-applied creator, so the creation monomial for I is
A†_{i_{k−1}}···A†_{i₀} (last letter outermost).  The same tuples address
p-adic disks through the two digit-order conventions in
``stepfunctions.word_to_center``.  As text (CLI arguments, JSON keys) a
word is its digits for p ≤ 10 and its letters joined by dots for p > 10,
where a letter may take two digits.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from .errors import InvalidDigitError, InvalidLetterError

Word = tuple[int, ...]


def validate_word(word, p: int) -> Word:
    w = tuple(word)
    for d in w:
        if type(d) is not int or not 0 <= d < p:   # a bool is not a digit
            raise InvalidDigitError(f"digit {d!r} out of range [0, {p})")
    return w


def check_letter(i: int, p: int) -> None:
    """Reject a ladder-operator letter outside [0, p)."""
    if type(i) is not int or not 0 <= i < p:   # a bool is not a letter
        raise InvalidLetterError(f"letter {i!r} out of range [0, {p})")


def parse_word(text: str, p: int) -> Word:
    """Parse a word written by ``word_str``; empty string is Ω's word.

    For p ≤ 10 a word is concatenated digits ('012' → (0,1,2)); for p > 10,
    where a letter may take two digits, letters are separated by dots
    ('1.0' → (1,0), '10' → (10,)) and written without leading zeros.
    """
    if not text:
        return ()
    letters = list(text) if p <= 10 else text.split(".")
    for part in letters:
        if not (part.isascii() and part.isdigit()) or part != str(int(part)):
            raise InvalidDigitError(
                f"word {text!r} must be decimal digits" if p <= 10 else
                f"word {text!r} must be dot-separated decimal letters "
                f"without leading zeros for p = {p}")
    return validate_word(map(int, letters), p)


def word_str(word: Word, p: int) -> str:
    """The word's text: digits for p ≤ 10, dot-separated letters above."""
    return ("" if p <= 10 else ".").join(str(d) for d in word)


def words_of_length(p: int, k: int) -> Iterator[Word]:
    """All words of length k, lexicographic."""
    return product(range(p), repeat=k)


def words_up_to(p: int, n: int) -> Iterator[Word]:
    """All words of length ≤ n, shortest first, lexicographic within length."""
    for k in range(n + 1):
        yield from words_of_length(p, k)


def word_at(p: int, index: int) -> Word:
    """The word at ``index`` in ``words_up_to`` order, without listing."""
    k, size = 0, 1
    while index >= size:   # skip the p^k words of each shorter length
        index -= size
        k += 1
        size *= p
    letters = [0] * k
    for j in range(k - 1, -1, -1):   # the first letter is the top digit
        index, letters[j] = divmod(index, p)
    return tuple(letters)
