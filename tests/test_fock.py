"""Free Fock space: the right ladder pair, the summed left pair and the
spill, each against a word-keyed reference."""

import random

import pytest

from padic_cuntz import (FockVector, InvalidLetterError, Q, Scalar,
                         SelfCheckError, StepFunction, af_annihilate,
                         af_create, annihilate_sum, create_sum,
                         to_fock_truncated, word_str, words_of_length,
                         words_up_to)
from padic_cuntz.suites import random_coherent_state, random_scalar


def one_term(p):
    return (0, Scalar.one(p))


def random_vector(rng, p, max_len=3, trunc=None):
    """Random words carrying λ^{|w|+s} for one drawn shift s."""
    words = [tuple(rng.randrange(p) for _ in range(rng.randint(0, max_len)))
             for _ in range(rng.randint(1, 6))]
    s = rng.randint(-min(map(len, words)), 2)
    return FockVector(p, {w: (len(w) + s, random_scalar(rng, p))
                          for w in words}, truncation=trunc)


def test_create_examples():
    # Σ_i A†_i appends each last letter; each word keeps its λ power
    omega = FockVector(2, {(): one_term(2)})
    v = create_sum(omega)
    assert v.terms == {(0,): one_term(2), (1,): one_term(2)}
    assert create_sum(v).terms == {w: one_term(2)
                                   for w in words_of_length(2, 2)}
    c = Scalar(2, 0, 1)  # √2
    assert create_sum(omega.scale(c)).coefficient((1,)) == (0, c)


def test_annihilate_examples():
    # Σ_i A_i strips the last letter; words that merge add
    assert annihilate_sum(FockVector(2, {(): one_term(2)})).is_zero()
    v = FockVector(2, {(0, 1): one_term(2)})
    assert annihilate_sum(v).terms == {(0,): one_term(2)}
    w = FockVector(2, {(0, 1): one_term(2), (0, 0): one_term(2)})
    assert annihilate_sum(w).terms == {(0,): (0, Scalar.rational(2, 2))}


def test_af_examples():
    omega = FockVector(2, {(): one_term(2)})
    assert af_create(0, omega).terms == {(0,): one_term(2)}
    v = af_create(1, FockVector(2, {(0,): one_term(2)}))
    assert v.terms == {(1, 0): one_term(2)}
    w = FockVector(2, {(0, 1): one_term(2)})
    assert af_annihilate(0, w).terms == {(1,): one_term(2)}
    assert af_annihilate(1, w).is_zero()
    assert af_annihilate(0, omega).is_zero()


def test_a_bool_letter_has_no_coefficient():
    # True == 1, but a bool is not a letter: the word (True,) is absent
    v = FockVector(2, {(1,): one_term(2)})
    assert v.coefficient((1,)) == (0, Scalar.one(2))
    for word in ((True,), (False,), (1.0,)):
        assert v.coefficient(word) == (0, Scalar.zero(2))


def test_invalid_letters():
    omega = FockVector(2, {(): one_term(2)})
    for op in (af_create, af_annihilate):
        for bad in (2, True):   # a bool is not a letter
            with pytest.raises(InvalidLetterError):
                op(bad, omega)


def test_delta_relation_random():
    # Σ_i A_i · Σ_j A†_j = Σ_{i,j} δ_ij = p
    rng = random.Random(11)
    for p in (2, 3):
        for _ in range(25):
            v = random_vector(rng, p)
            assert annihilate_sum(create_sum(v)) == v.mul_root_p_power(2)


def test_af_delta_relation_random():
    rng = random.Random(12)
    for p in (2, 3):
        for _ in range(25):
            v = random_vector(rng, p)
            for j in range(p):
                created = af_create(j, v)
                for i in range(p):
                    out = af_annihilate(i, created)
                    assert out == (v if i == j else FockVector.zero(p))


def test_number_identity_off_vacuum():
    rng = random.Random(13)
    for p in (2, 3):
        for _ in range(20):
            v = random_vector(rng, p)
            vac = FockVector(p, {(): v.coefficient(())})
            total = FockVector.zero(p)
            for i in range(p):
                total = total + af_create(i, af_annihilate(i, v))
            assert total == v - vac


def inner(v, w):
    """⟨v, w⟩ as {λ exponent: Scalar} through the word reference: a
    one-shift vector's lengths each have their own exponent."""
    return {n: c for coeffs in ref_inner_by_length(ref_terms(v),
                                                   ref_terms(w)).values()
            for n, c in coeffs.items()}


def test_adjointness_below_truncation():
    rng = random.Random(14)
    for p in (2, 3):
        for _ in range(20):
            v = random_vector(rng, p, max_len=3)
            w = random_vector(rng, p, max_len=3)
            assert inner(create_sum(v), w) == inner(v, annihilate_sum(w))
            for i in range(p):
                assert inner(af_create(i, v), w) == \
                    inner(v, af_annihilate(i, w))


def test_left_right_commute():
    rng = random.Random(15)
    for p in (2, 3):
        for _ in range(15):
            v = random_vector(rng, p)
            for i in range(p):
                assert af_create(i, create_sum(v)) == \
                    create_sum(af_create(i, v))
            # mixed pairs agree on words of length ≥ 1
            body = v.restrict_lengths(lo=1)
            for i in range(p):
                assert annihilate_sum(af_create(i, body)) == \
                    af_create(i, annihilate_sum(body))
                assert af_annihilate(i, create_sum(body)) == \
                    create_sum(af_annihilate(i, body))


def test_annihilate_sum_matches_componentwise():
    # Σ_i A_i against the word reference's A_i, one last letter at a time
    rng = random.Random(16)
    for p in (2, 3):
        v = random_vector(rng, p)
        tv = ref_terms(v)
        assert ref_terms(annihilate_sum(v)) == ref_sum(
            [(w, n, c) for i in range(p)
             for w, (n, c) in ref_annihilate(tv, i, False).items()])


def test_truncation_spill_tally():
    v = FockVector(2, {(0, 1): one_term(2)}, truncation=2)
    kept = af_create(0, v)
    assert kept.is_zero()
    assert kept.spilled == 1
    again = af_create(1, af_create(0, FockVector(2, {(0,): one_term(2)},
                                                 truncation=2)))
    assert again.spilled == 1
    assert again.terms == {}  # second creation spilled the lone word
    # spill is bookkeeping: equality looks at terms only
    assert kept == FockVector.zero(2)


def test_lambda_monomials():
    one = Scalar.one(2)
    half = Scalar.rational(2, Q(1, 2))
    # shift_lambda moves each word's power of λ
    v = FockVector(2, {(0,): (1, one), (): (0, half)})
    assert v.shift_lambda(2).coefficient((0,)) == (3, one)
    assert v.shift_lambda(2).coefficient(()) == (2, half)
    assert v.shift_lambda(2).shift_lambda(-2) == v
    with pytest.raises(ValueError):
        v.shift_lambda(-1)
    lam_i = FockVector(2, {(1,): (1, Scalar(2, 0, 0, 1, 0))})
    # exponents are nonnegative integers, and True is not one
    for bad in (-1, 1.0, "1", True):
        with pytest.raises(ValueError):
            FockVector(2, {(0,): (bad, one)})
    # the words of a vector carry λ^{|w| + shift} for one shift
    assert (v.shift, lam_i.shift) == (0, 0)
    with pytest.raises(ValueError, match="differ"):
        FockVector(2, {(0, 0): (1, one), (0, 1): (2, one)})
    # shift_lambda moves the shift, and a negative one keeps exponents ≥ 0
    created = af_create(1, FockVector(2, {(): (0, one)}))  # λ^0, length 1
    assert created.shift == -1
    assert created.shift_lambda(2).coefficient((1,)) == (2, one)
    with pytest.raises(ValueError):
        created.shift_lambda(-1)
    # sums of two shifts raise, whether or not their words meet
    linear = FockVector(2, {(0,): (1, one), (1,): (1, one)})
    square = FockVector(2, {(0,): (2, one)})
    for combine in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(SelfCheckError) as err:
            combine(linear, square)
        assert str(err.value) == \
            "a sum of λ^(k+0) and λ^(k+1) words at length k"
    # matching powers add, and cancel to nothing
    assert square + square == square.scale(Scalar.rational(2, 2))
    assert (square - square).is_zero()


def test_json_round_trip():
    rng = random.Random(18)
    v = random_vector(rng, 3)
    data = v.to_json()
    assert list(data["terms"]) == sorted(data["terms"],
                                         key=lambda w: (len(w), w))
    lam = FockVector(2, {(1, 0): one_term(2)}).shift_lambda(3)
    assert lam.to_json() == {
        "p": 2, "terms": {"10": {"3": ["1/1", "0/1", "0/1", "0/1"]}}}


@pytest.mark.parametrize("p", [11, 13])
def test_json_keys_for_two_digit_letters(p):
    rng = random.Random(p)
    v = FockVector(p, {(10,): (1, random_scalar(rng, p, full=True)),
                       (1, 0): (2, random_scalar(rng, p, full=True)),
                       (p - 1, 0, 1): (3, Scalar.one(p))})
    data = v.to_json()
    assert list(data["terms"]) == ["10", "1.0", f"{p - 1}.0.1"]
    assert data == ref_json(p, ref_terms(v))


# -- the layers against a word-keyed reference --------------------------------
#
# The reference below keeps a vector as a plain dict word → (n, c) and
# implements every operation word by word.  It reads a layered vector
# through ``ref_terms``, which decodes the layers itself, so nothing in it
# goes through the code under test.


def ref_terms(v):
    """word → (n, c) decoded from the layers: the first letter is the lowest
    digit, a layer of depth d reads only the first d letters, and a
    length-k word carries λ^{k+shift}."""
    out = {}
    for k, f in v.layers.items():
        for w in words_of_length(v.p, k):
            m = sum(d * v.p ** j for j, d in enumerate(w[:f.depth]))
            c = f.raw[m].mul_root_p_power(f.exp)
            if not c.is_zero():
                out[w] = (k + v.shift, c)
    return out


def ref_shifts(terms):
    """The set of n − |w| over a reference vector's words."""
    return {n - len(w) for w, (n, _) in terms.items()}


def ref_sum(items):
    """Sum (word, n, c) items that agree on each word's n, zeros dropped."""
    acc = {}
    for w, n, c in items:
        acc[w] = (n, acc[w][1] + c) if w in acc else (n, c)
    return {w: (n, c) for w, (n, c) in acc.items() if not c.is_zero()}


def ref_combine(a, b, sign):
    """a + sign·b; nonzero operands with different shifts raise."""
    if len(ref_shifts(a) | ref_shifts(b)) > 1:
        raise SelfCheckError("two shifts in one sum")
    return ref_sum([(w, n, c) for w, (n, c) in a.items()]
                   + [(w, n, sign * c) for w, (n, c) in b.items()])


def ref_create(terms, trunc, extend):
    kept = {extend(w): nc for w, nc in terms.items()
            if trunc is None or len(w) < trunc}
    return kept, len(terms) - len(kept)


def ref_create_sum(terms, trunc, p):
    """Σ_i A†_i: the union of the p last-letter extensions, each spilling."""
    out, spilled = {}, 0
    for i in range(p):
        kept, spill = ref_create(terms, trunc, lambda x: x + (i,))
        out.update(kept)
        spilled += spill
    return out, spilled


def ref_annihilate(terms, i, first):
    return {(w[1:] if first else w[:-1]): nc for w, nc in terms.items()
            if w and w[0 if first else -1] == i}


def ref_annihilate_sum(terms):
    return ref_sum([(w[:-1], n, c) for w, (n, c) in terms.items() if w])


def ref_inner_by_length(a, b):
    out = {}
    for w, (n1, c1) in a.items():
        if w in b:
            n2, c2 = b[w]
            coeffs = out.setdefault(len(w), {})
            n = n1 + n2
            c = c1.conjugate() * c2
            coeffs[n] = coeffs[n] + c if n in coeffs else c
    out = {k: {n: c for n, c in coeffs.items() if not c.is_zero()}
           for k, coeffs in out.items()}
    return {k: coeffs for k, coeffs in out.items() if coeffs}


def ref_json(p, terms):
    items = sorted(terms.items(), key=lambda t: (len(t[0]), t[0]))
    return {"p": p, "terms": {word_str(w, p): {str(n): c.to_json()}
                              for w, (n, c) in items}}


def random_layered(rng, p, max_len=4, trunc=None):
    """A vector straight from random layers: each length gets a depth ≤ k
    and a value (or zero) on each coset at that depth; √p scales vary, and
    one drawn shift keeps every exponent k + shift ≥ 0."""
    layers = {}
    for k in range(max_len + 1):
        if rng.random() < 0.3:
            continue
        depth = rng.randint(0, k)
        raw = tuple(random_scalar(rng, p) if rng.random() < 0.8
                    else Scalar.zero(p) for _ in range(p ** depth))
        f = StepFunction._raw(p, depth, raw, rng.randint(-2, 2))
        if not f.is_zero():
            layers[k] = f
    shift = rng.randint(-min(layers, default=0), 3)
    return FockVector._raw(p, layers, trunc, 0, shift)


def check_create_sum(v, tv):
    """create_sum against the word reference, spill included."""
    out = create_sum(v)
    want, spill = ref_create_sum(tv, v.truncation, v.p)
    assert ref_terms(out) == want and out.spilled == spill


def agree(layered, reference):
    """Both sides raise SelfCheckError, or both return; the results."""
    try:
        want = reference()
    except SelfCheckError:
        with pytest.raises(SelfCheckError):
            layered()
        return None, None
    return layered(), want


@pytest.mark.parametrize("p", [2, 3, 5])
def test_layered_operators_match_the_word_reference(p):
    rng = random.Random(100 + p)
    raised = 0
    for _ in range(12 if p == 5 else 25):
        trunc = rng.choice([None, 2, 3, 4])
        v = random_layered(rng, p, trunc=trunc)
        w = random_layered(rng, p, max_len=3)
        tv, tw = ref_terms(v), ref_terms(w)
        # reading: terms, coefficient, support, JSON, equality
        assert v.terms == tv
        for word in words_up_to(p, 5):
            assert v.coefficient(word) == tv.get(word, (0, Scalar.zero(p)))
        assert v.support_lengths() == {len(word) for word in tv}
        assert v.is_zero() == (not tv)
        assert v.to_json() == ref_json(p, tv)
        assert FockVector(p, tv) == v
        assert (v == w) == (tv == tw)
        # the antifock pair, with the spill at the truncation
        for i in range(p):
            out = af_create(i, v)
            want, spill = ref_create(tv, trunc, lambda x: (i,) + x)
            assert ref_terms(out) == want
            assert out.spilled == spill
            assert ref_terms(af_annihilate(i, v)) == \
                ref_annihilate(tv, i, True)
        check_create_sum(v, tv)
        # linear structure
        for sign, op in ((1, lambda a, b: a + b), (-1, lambda a, b: a - b)):
            got, want = agree(lambda: op(v, w),
                              lambda: ref_combine(tv, tw, sign))
            raised += got is None
            if got is not None:
                assert ref_terms(got) == want
        assert ref_terms(annihilate_sum(v)) == ref_annihilate_sum(tv)
        c = random_scalar(rng, p, full=True)
        assert ref_terms(v.scale(c)) == {
            word: (n, x * c) for word, (n, x) in tv.items() if x * c}
        assert ref_terms(v.shift_lambda(2)) == {
            word: (n + 2, x) for word, (n, x) in tv.items()}
        assert ref_terms(v.mul_root_p_power(3)) == {
            word: (n, x.mul_root_p_power(3)) for word, (n, x) in tv.items()}
        # cancellation to zero
        assert (v - v).is_zero() and ref_terms(v - v) == {}
        assert (v - FockVector(p, tv)).is_zero()
    assert raised  # the two-shifts check was reached at random too


@pytest.mark.parametrize("p", [2, 3, 5])
def test_expansion_layers_match_the_word_reference(p):
    # expansions have layers shallower than their length: annihilate_sum
    # multiplies those by p instead of summing p equal children
    rng = random.Random(200 + p)
    for _ in range(6):
        s = random_coherent_state(rng, p, max_depth=2)
        v = to_fock_truncated(s, 4)
        assert any(f.depth < k for k, f in v.layers.items())
        tv = ref_terms(v)
        assert ref_terms(annihilate_sum(v)) == ref_annihilate_sum(tv)
        check_create_sum(v, tv)
        for i in range(p):
            out = af_create(i, v)
            want, spill = ref_create(tv, 4, lambda x: (i,) + x)
            assert ref_terms(out) == want and out.spilled == spill
            assert ref_terms(af_annihilate(i, v)) == \
                ref_annihilate(tv, i, True)


def test_two_shifts_raise_unless_a_side_is_zero():
    one = Scalar.one(3)
    add, sub = (lambda a, b: a + b), (lambda a, b: a - b)
    # λ^1 and λ^2 at one length raise even on disjoint words
    a = FockVector(3, {(0, 1): (1, one)})
    b = FockVector(3, {(1, 1): (2, one)})
    for combine in (add, sub):
        with pytest.raises(SelfCheckError, match=r"λ\^\(k-1\) and λ\^\(k\+0\)"):
            combine(a, b)
    # a zero side takes the other's shift; equality ignores a zero's shift
    zero = FockVector.zero(3)
    assert (a + zero).shift == (zero + a).shift == -1
    assert zero - b == b.scale(-one) and (zero - b).shift == 0
    assert a - a == zero and (a - a).shift == -1
    assert (a - a) + b == b and (a - a) + b != a.shift_lambda(1)
    assert zero.shift_lambda(5) == zero
    # annihilate_sum raises the shift; words that merge share their power
    c = FockVector(3, {(2, 0): (1, one), (2, 1): (1, -one),
                       (1, 2): (1, one)})
    assert annihilate_sum(c) == FockVector(3, {(1,): (1, one)})
    assert annihilate_sum(c).shift == 0
