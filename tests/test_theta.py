import itertools

import pytest

from crvar import theta
from crvar.theta import EMPTY, word


def all_words(max_len, letters=theta.T_LETTERS):
    return [w for n in range(max_len + 1) for w in sorted(theta.enumerate_words(n, letters))]


def test_letter_idempotency():
    assert theta.multiply(word("Tl"), word("Tl")) == word("Tl")
    assert theta.multiply(word("Tr"), word("Tr")) == word("Tr")


def test_multiplication_branches():
    assert theta.multiply(word("TlTr"), word("TrTl")) == word("TlTrTl")
    assert theta.multiply(word("TlTr"), word("TlTr")) == word("TlTrTlTr")


def test_empty_word_is_identity():
    for s in all_words(4):
        assert theta.multiply(EMPTY, s) == s
        assert theta.multiply(s, EMPTY) == s


def test_alternation_enforced():
    for text in ("TlTl", "KrKr", "TlKr", "TlT", "Tx"):
        with pytest.raises(ValueError):
            word(text)


def test_associativity_exhaustive():
    ws = all_words(4)
    for a, b, c in itertools.product(ws, repeat=3):
        assert theta.multiply(theta.multiply(a, b), c) == theta.multiply(
            a, theta.multiply(b, c)
        )


def test_length_of_product():
    ws = all_words(4)
    for a, b in itertools.product(ws, repeat=2):
        n = len(theta.multiply(a, b))
        assert n in (len(a) + len(b), len(a) + len(b) - 1)


def test_order_examples():
    assert theta.leq(word("TlTr"), word("Tl"))
    assert theta.leq(word("Tl"), word("Tl"))
    assert not theta.leq(word("Tl"), word("Tr"))


def test_order_axioms_exhaustive():
    ws = all_words(6)
    for a in ws:
        assert theta.leq(a, a)
    for a, b in itertools.product(ws, repeat=2):
        if theta.leq(a, b) and theta.leq(b, a):
            assert a == b
    for a, b, c in itertools.product(ws, repeat=3):
        if theta.leq(a, b) and theta.leq(b, c):
            assert theta.leq(a, c)


def test_enumerate_counts_and_letter_swap():
    assert theta.enumerate_words(0) == frozenset((EMPTY,))
    assert theta.enumerate_words(2) == frozenset((word("TlTr"), word("TrTl")))
    assert theta.enumerate_words(5) == frozenset(
        (word("TlTrTlTrTl"), word("TrTlTrTlTr"))
    )
    assert theta.enumerate_words(2, theta.K_LETTERS) == frozenset((word("KlKr"), word("KrKl")))
    for n in range(1, 9):
        for letters in (theta.T_LETTERS, theta.K_LETTERS):
            ws = theta.enumerate_words(n, letters)
            assert len(ws) == 2
            a, b = sorted(ws)
            assert theta.dual_word(a) == b


def test_alphabets_correspond_letterwise():
    t_words, k_words = theta.words_up_to(5), all_words(5, theta.K_LETTERS)
    assert all_words(5) == t_words
    assert k_words[:3] == [EMPTY, word("Kl"), word("Kr")]
    to_k = {"Tl": "Kl", "Tr": "Kr"}
    assert k_words == [tuple(to_k[a] for a in s) for s in t_words]
    for s, k in zip(t_words, k_words):
        swapped = tuple(to_k[a] for a in theta.dual_word(s))
        assert swapped == theta.dual_word(k)
        direct = tuple("Kr" if a == "Kl" else "Kl" for a in k)
        assert swapped == direct


def test_dual_word_fixes_two_sided_letters():
    assert theta.dual_word(("K", "Kl", "T", "Tr")) == ("K", "Kr", "T", "Tl")
    assert theta.dual_word(("plain",)) == ("plain",)


def test_alternation_and_alphabet_predicates():
    assert theta.is_alternating(EMPTY)
    assert theta.is_alternating(word("KlKrKl"))
    assert not theta.is_alternating(("Kl", "Kl"))
    assert not theta.is_alternating(("K",))
    assert theta.same_alphabet(word("Kl"), word("KrKl"))
    assert theta.same_alphabet(word("Tl"), word("TrTl"))
    assert not theta.same_alphabet(word("Kl"), word("Tl"))


def test_higher_extends_the_alternation():
    assert theta.higher(word("Kl")) == word("KlKr")
    assert theta.higher(word("TrTl")) == word("TrTlTr")
    for letters in (theta.T_LETTERS, theta.K_LETTERS):
        for n in range(1, 6):
            for s in theta.enumerate_words(n, letters):
                assert theta.higher(s) in theta.enumerate_words(n + 1, letters)
                assert theta.higher(s)[:n] == s


def test_multiply_collapses_repeats():
    assert theta.multiply(EMPTY, ("Kl", "Kl", "Kr")) == word("KlKr")
    assert theta.multiply(word("KrKl"), word("KlKr")) == word("KrKlKr")


def test_dual_word_involution_and_homomorphism():
    ws = all_words(6)
    for s in ws:
        assert theta.dual_word(theta.dual_word(s)) == s
    for a, b in itertools.product(all_words(4), repeat=2):
        assert theta.dual_word(theta.multiply(a, b)) == theta.multiply(
            theta.dual_word(a), theta.dual_word(b)
        )


def test_parse_render_round_trip():
    for letters in (theta.T_LETTERS, theta.K_LETTERS):
        for s in all_words(6, letters):
            assert word("".join(s)) == s
