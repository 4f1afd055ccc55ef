import itertools

import pytest

from conftest import random_terms
from crvar import words as wd
from crvar.words import CLOSE_INV, OPEN, Inv, Prod, Var, prod


def w(text):
    return wd.word_from_text(text)


# ---------------------------------------------------------------------------
# validation


def test_nested_word_is_valid():
    assert wd.validate(w("p(q(rs)^-1t)^-1u"))


def test_prefix_dominance_violation():
    violation = wd.first_violation(w("x)^-1"))
    assert violation == (2, 1)


def test_adjacency_violation():
    violation = wd.first_violation(w("()^-1"))
    assert violation == (3, 1)


def test_unbalanced_violation():
    assert wd.first_violation(w("(x")) == (1, 2)


def test_empty_word_invalid():
    assert not wd.validate(())


def closure_sets(letters, max_len):
    """Members of the inductive closure, grouped by length: the letters,
    closed under concatenation and u -> (u)^-1."""
    by_len = {1: {(a,) for a in letters}}
    for n in range(2, max_len + 1):
        out = set()
        for k in range(1, n):
            for u in by_len.get(k, ()):
                for v in by_len.get(n - k, ()):
                    out.add(u + v)
        for u in by_len.get(n - 2, ()):
            out.add((OPEN,) + u + (CLOSE_INV,))
        by_len[n] = out
    return by_len


def test_validate_agrees_with_closure_small():
    # lengths <= 6 here; the acceptance suite goes to 10
    letters = ("a", "b")
    closure = closure_sets(letters, 6)
    alphabet = letters + (OPEN, CLOSE_INV)
    for n in range(1, 7):
        members = closure[n]
        for word in itertools.product(alphabet, repeat=n):
            assert wd.validate(word) == (word in members)


# ---------------------------------------------------------------------------
# parsing and rendering


def test_parse_product_of_irreducibles():
    assert wd.parse_text("xy(x)^-1") == Prod((Var("x"), Var("y"), Inv(Var("x"))))


def test_parse_single_irreducible():
    assert wd.parse_text("(xy)^-1") == Inv(Prod((Var("x"), Var("y"))))


def test_parse_invalid_reports_condition():
    with pytest.raises(wd.InvalidWordError) as err:
        wd.parse_text("()^-1")
    assert err.value.condition == 3


def test_render_examples():
    assert wd.term_to_text(prod((Var("x"), Inv(Var("x"))))) == "x(x)^-1"
    assert wd.term_to_text(Var("x")) == "x"
    assert wd.term_to_text(Inv(Inv(Var("x")))) == "((x)^-1)^-1"


def test_round_trip_random_terms():
    for t in random_terms(300, 5, seed=1):
        word = wd.render(t)
        assert wd.validate(word)
        assert wd.parse_word(word) == t


def test_round_trip_valid_words():
    closure = closure_sets(("a", "b"), 7)
    for n, members in closure.items():
        for word in members:
            assert wd.render(wd.parse_word(word)) == word


def test_multicharacter_letters_round_trip():
    t = wd.parse_text("x1(y_2x1)^-1")
    assert t == Prod((Var("x1"), Inv(Prod((Var("y_2"), Var("x1"))))))
    assert wd.term_to_text(t) == "x1(y_2x1)^-1"


def test_zero_power_sugar():
    assert w("x^0") == ("x", OPEN, "x", CLOSE_INV)
    assert wd.word_to_text(w("(xy)^0")) == "xy(xy)^-1"
    assert wd.word_to_text(w("(a(xy)^0b)^-1")) == "(axy(xy)^-1b)^-1"


def test_tokenizer_error_positions():
    with pytest.raises(wd.WordSyntaxError):
        w(")x")  # bare close without ^-1 or ^0
    with pytest.raises(wd.WordSyntaxError):
        w("x)^0")  # ^0 group with no opening symbol
    with pytest.raises(wd.WordSyntaxError):
        w("X")  # uppercase is not a letter
    err = None
    try:
        w("xy%z")
    except wd.WordSyntaxError as exc:
        err = exc
    assert err is not None and err.position == 2


# ---------------------------------------------------------------------------
# mirror image


def test_mirror_worked_example():
    assert wd.word_to_text(wd.mirror(w("p(q(rs)^-1t)^-1u"))) == "u(t(sr)^-1q)^-1p"


def test_mirror_letter_and_zero_power():
    assert wd.mirror(w("x")) == ("x",)
    assert wd.word_to_text(wd.mirror(w("x(x)^-1"))) == "(x)^-1x"


def test_mirror_involution_and_antihomomorphism():
    words = [wd.render(t) for t in random_terms(200, 5, seed=2)]
    for u in words:
        assert wd.mirror(wd.mirror(u)) == u
    for u, v in zip(words, words[1:]):
        assert wd.mirror(u + v) == wd.mirror(v) + wd.mirror(u)


def test_mirror_preserves_validity_and_content():
    for t in random_terms(200, 5, seed=3):
        word = wd.render(t)
        m = wd.mirror(word)
        assert wd.validate(m)
        assert wd.word_content(m) == wd.word_content(word)


def test_mirror_term_examples():
    x, y = Var("x"), Var("y")
    assert wd.mirror_term(Prod((x, y))) == Prod((y, x))
    assert wd.mirror_term(Inv(Prod((x, y)))) == Inv(Prod((y, x)))
    for t in random_terms(200, 5, seed=4):
        assert wd.mirror_term(wd.mirror_term(t)) == t
        assert wd.mirror_term(t) == wd.parse_word(wd.mirror(wd.render(t)))


# ---------------------------------------------------------------------------
# content, head, tail


def test_content_head_tail():
    assert wd.content_head_tail(w("xyx")) == (frozenset("xy"), "x", "x")
    assert wd.content_head_tail(w("z")) == (frozenset("z"), "z", "z")


def test_content_head_tail_rejects_grouping():
    with pytest.raises(wd.NonPlainWordError):
        wd.content_head_tail(w("x(y)^-1"))


def test_term_content():
    assert wd.content(wd.parse_text("x(yx)^-1")) == frozenset("xy")


# ---------------------------------------------------------------------------
# zero power


def test_zero_power():
    x, y = Var("x"), Var("y")
    assert wd.zero_power(x) == Prod((x, Inv(x)))
    assert wd.zero_power(Prod((x, y))) == Prod((x, y, Inv(Prod((x, y)))))
    assert wd.term_to_text(wd.zero_power(x)) == "x(x)^-1"


# ---------------------------------------------------------------------------
# the rewrite relation


def test_neighbors_contain_schema_instances():
    x = Var("x")
    nb = wd.zeta_neighbors(x)
    assert Prod((x, Inv(x), x)) in nb
    assert Inv(Inv(x)) in nb
    assert Prod((Inv(x), x)) in wd.zeta_neighbors(Prod((x, Inv(x))))


def test_neighbor_relation_is_symmetric():
    for t in random_terms(60, 3, seed=5):
        for u in wd.zeta_neighbors(t):
            assert t in wd.zeta_neighbors(u), (t, u)


def test_zeta_equivalent_examples():
    x = Var("x")
    v = wd.zeta_equivalent(x, Inv(Inv(x)), 2)
    assert isinstance(v, wd.ZetaEquivalent) and v.steps == 1
    v = wd.zeta_equivalent(wd.zero_power(x), Prod((Inv(x), x)), 2)
    assert isinstance(v, wd.ZetaEquivalent) and v.steps == 1


def test_distinct_variables_not_equivalent():
    # the two-element semilattice separates x from y, so no budget can relate them
    from crvar.battery import chain_semilattice
    from crvar.semigroups import evaluate

    sl2 = chain_semilattice(2)
    assert evaluate(sl2, Var("x"), {"x": 0, "y": 1}) != evaluate(
        sl2, Var("y"), {"x": 0, "y": 1}
    )
    assert isinstance(wd.zeta_equivalent(Var("x"), Var("y"), 4), wd.ZetaUnknown)


def test_witness_is_a_genuine_path():
    x, y = Var("x"), Var("y")
    t = Prod((x, y))
    v = wd.zeta_equivalent(t, Prod((x, y, Inv(Prod((x, y))), x, y)), 4)
    assert isinstance(v, wd.ZetaEquivalent)
    for a, b in zip(v.witness, v.witness[1:]):
        assert b in wd.zeta_neighbors(a)


def test_zeta_mirror_compatibility():
    # a path of length k mirrors to a path of length k
    pairs = []
    terms = random_terms(40, 2, seed=6)
    for t in terms:
        for u in list(wd.zeta_neighbors(t))[:2]:
            pairs.append((t, u))
    for t, u in pairs[:30]:
        v = wd.zeta_equivalent(t, u, 2)
        assert isinstance(v, wd.ZetaEquivalent)
        m = wd.zeta_equivalent(wd.mirror_term(t), wd.mirror_term(u), max(v.steps, 1))
        assert isinstance(m, wd.ZetaEquivalent)
        assert m.steps <= v.steps


def test_zero_power_mirror_zeta():
    for t in random_terms(25, 2, seed=7):
        v = wd.zeta_equivalent(
            wd.mirror_term(wd.zero_power(t)), wd.zero_power(wd.mirror_term(t)), 2
        )
        assert isinstance(v, wd.ZetaEquivalent)


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        wd.zeta_equivalent(Var("x"), Var("y"), 0)


def test_prod_invariants_raise_without_asserts():
    # checked by exceptions, so ``python -O`` keeps them
    with pytest.raises(wd.WordError):
        wd.Prod((wd.Var("x"),))
    with pytest.raises(wd.WordError):
        wd.Prod((wd.Var("x"), wd.Prod((wd.Var("y"), wd.Var("z")))))
