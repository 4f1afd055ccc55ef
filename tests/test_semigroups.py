import itertools
import random

import pytest
from conftest import brute_nonassociative_triple

from crvar import semigroups as sg
from crvar import words as wd
from crvar.battery import (
    chain_semilattice,
    cyclic_group,
    left_zero,
    rectangular_band,
    right_zero,
)
from crvar.words import Inv, Prod, Var


# ---------------------------------------------------------------------------
# axioms


def test_left_zero_axioms():
    lz2 = left_zero(2)
    assert sg.is_associative(lz2)
    assert sg.is_completely_regular(lz2)


def test_semilattice_axioms():
    sl2 = chain_semilattice(2)
    assert sg.is_associative(sl2)
    assert sg.is_completely_regular(sl2)


def test_nonassociative_table_detected():
    bad = sg.table([[0, 1], [0, 0]], [0, 1])
    assert not sg.is_associative(bad)
    assert sg.first_nonassociative_triple(bad) is not None


def test_battery_tables_pass_axioms(tables):
    assert len([S for S in tables.values() if 2 <= S.order <= 8]) >= 20
    for name, S in tables.items():
        assert sg.is_associative(S), name
        assert sg.is_completely_regular(S), name


def _single_op_edits(S):
    """Every table that differs from S in exactly one op entry."""
    n = S.order
    for i in range(n):
        for j in range(n):
            for v in range(n):
                if v != S.op[i][j]:
                    op = [list(row) for row in S.op]
                    op[i][j] = v
                    yield sg.table(op, S.inv)


def _relabeled(S, seed):
    perm = list(range(S.order))
    random.Random(seed).shuffle(perm)
    op = [[0] * S.order for _ in perm]
    for a in range(S.order):
        for b in range(S.order):
            op[perm[a]][perm[b]] = perm[S.op[a][b]]
    inv = [0] * S.order
    for a in range(S.order):
        inv[perm[a]] = perm[S.inv[a]]
    return sg.table(op, inv, S.name)


def test_associativity_gate_matches_oracle_on_cr_tables():
    found = list(sg.enumerate_unary_cr_tables(3))
    assert len(found) == 57
    for S in found:
        assert sg.first_nonassociative_triple(S) == brute_nonassociative_triple(S) is None


def test_associativity_gate_matches_oracle_on_single_edits(tables):
    edits = 0
    for S in tables.values():
        assert S.order <= 8
        for T in _single_op_edits(S):
            assert sg.first_nonassociative_triple(T) == brute_nonassociative_triple(T), T.op
            edits += 1
    assert edits == 2074


def test_associativity_gate_matches_oracle_on_random_magmas():
    rng = random.Random(7)
    failing = 0
    for n in (1, 2, 3, 4):
        for _ in range(400):
            S = sg.table([[rng.randrange(n) for _ in range(n)] for _ in range(n)], range(n))
            expected = brute_nonassociative_triple(S)
            assert sg.first_nonassociative_triple(S) == expected, S.op
            failing += expected is not None
    assert 0 < failing < 1600


def test_magma_generators_cover_relabeled_free_band():
    S = _relabeled(sg.free_band(3), seed=3)
    gens = sg._magma_generators(S)
    closure = set(gens)
    frontier = list(gens)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = S.op[x][g]
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    assert closure == set(range(S.order))
    assert len(gens) < S.order


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_semilattice_product():
    sl2 = chain_semilattice(2)
    assert sg.evaluate(sl2, Prod((Var("x"), Var("y"))), {"x": 0, "y": 1}) == 0


def test_evaluate_group_inverse():
    c4 = cyclic_group(4)
    t = Prod((Var("x"), Inv(Var("x"))))
    for a in range(4):
        assert sg.evaluate(c4, t, {"x": a}) == 0


def test_evaluate_unbound_variable():
    with pytest.raises(sg.UnboundVariableError):
        sg.evaluate(chain_semilattice(2), Var("x"), {})


def test_evaluate_dual_equals_mirror(tables):
    # the finite shadow of the duality claim, brute-forced on random terms
    from conftest import random_terms

    for S in (tables["SL3"], tables["C4"], tables["FB2"], tables["LRB8"]):
        D = sg.dual(S)
        for t in random_terms(40, 3, seed=11):
            names = sorted(wd.content(t))
            for values in itertools.islice(
                itertools.product(range(S.order), repeat=len(names)), 10
            ):
                a = dict(zip(names, values))
                assert sg.evaluate(D, t, a) == sg.evaluate(S, wd.mirror_term(t), a)


def test_satisfies_left_zero():
    lz2 = left_zero(2)
    xy_x = (wd.parse_text("xy"), wd.parse_text("x"))
    xy_y = (wd.parse_text("xy"), wd.parse_text("y"))
    assert sg.holds(lz2, *xy_x) is None
    witness = sg.holds(lz2, *xy_y)
    assert witness == {"x": 0, "y": 1}


def test_satisfies_free_band():
    fb2 = sg.free_band(2)
    assert sg.holds(fb2, wd.parse_text("xx"), wd.parse_text("x")) is None
    assert sg.holds(fb2, wd.parse_text("xy"), wd.parse_text("yx")) is not None


# ---------------------------------------------------------------------------
# the compiled identity checker against a brute force over ``evaluate``


def brute_holds(S, lhs, rhs):
    names = sorted(wd.content(lhs) | wd.content(rhs))
    for values in itertools.product(range(S.order), repeat=len(names)):
        a = dict(zip(names, values))
        if sg.evaluate(S, lhs, a) != sg.evaluate(S, rhs, a):
            return a
    return None


SHARED_SUBTERMS = [
    ("(xy)^-1xy", "xy(xy)^-1"),
    ("xyzxyz", "xyz"),
    ("x(yz)^-1yz", "x(yz)^-1"),
    ("(xy)^-1(xy)^-1", "(xy)^-1"),
    ("xy(zx)^-1zx", "xy(zx)^-1(zx)^-1zx"),
    ("x^0y^0x^0", "x^0y^0"),
    ("((x)^-1)^-1yx", "xy((x)^-1)^-1"),
    ("zyx", "z(y)^-1x"),
]


def _oracle_identities():
    from conftest import random_terms

    terms = random_terms(60, 3, seed=23)
    pairs = list(zip(terms[::2], terms[1::2]))
    # true in every completely regular table, so checked in full there
    pairs += [(t, Inv(Inv(t))) for t in terms[:15]]
    pairs += [(t, wd.prod((t, Inv(t), t))) for t in terms[15:30]]
    pairs += [(wd.parse_text(l), wd.parse_text(r)) for l, r in SHARED_SUBTERMS]
    return pairs


def test_holds_matches_brute_force(tables):
    # the witness, not just the verdict: the first counterexample is CLI output
    pairs = _oracle_identities()
    checked = 0
    for S in list(sg.enumerate_unary_cr_tables(3)) + list(tables.values()):
        for lhs, rhs in pairs:
            k = len(wd.content(lhs) | wd.content(rhs))
            if S.order**k > 1296:
                continue
            assert sg.holds(S, lhs, rhs) == brute_holds(S, lhs, rhs), (S.name, lhs, rhs)
            checked += 1
    assert checked > 2500


def test_holds_fused_outer_loop_matches_brute_force(monkeypatch, tables):
    # with a tiny loop budget every identity in three or more variables
    # runs through the fused ``product`` loop
    monkeypatch.setattr(sg, "_MAX_LOOPS", 2)
    compile_uncached = sg.compile_identity.__wrapped__
    for S in (tables["LZ2"], tables["SL3"], tables["C3"], tables["RB22"]):
        for lhs, rhs in _oracle_identities():
            names = sorted(wd.content(lhs) | wd.content(rhs))
            check = compile_uncached(lhs, rhs)
            if len(names) > 2:
                assert "product(R, repeat=" in check.source
            bad = check(S.op, S.inv, range(S.order))
            got = None if bad is None else dict(zip(names, bad))
            assert got == brute_holds(S, lhs, rhs)


def test_compiled_checker_is_cached():
    lhs, rhs = wd.parse_text("xy(zx)^-1"), wd.parse_text("x(zy)^-1")
    first = sg.compile_identity(lhs, rhs)
    again = sg.compile_identity(wd.parse_text("xy(zx)^-1"), wd.parse_text("x(zy)^-1"))
    assert first is again


def test_compiled_source_holds_no_variable_names():
    import io
    import keyword
    import re
    import tokenize

    lhs, rhs = wd.parse_text("apple(banana)^-1cherry"), wd.parse_text("cherry((apple)^-1)^-1")
    source = sg.compile_identity(lhs, rhs).source
    allowed = {"check", "op", "inv", "R", "product", "repeat", "None"}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME and not keyword.iskeyword(tok.string):
            assert tok.string in allowed or re.fullmatch(r"[vt][0-9]+", tok.string), tok.string


def test_compiled_checker_hoists_and_shares_subterms():
    # xy is computed once, in the loop of y, and feeds both sides
    source = sg.compile_identity(wd.parse_text("xyz"), wd.parse_text("xy(z)^-1")).source
    lines = [line.strip() for line in source.splitlines()]
    assert lines.count("t1 = t0[v1]") == 1
    assert lines.index("t1 = t0[v1]") < lines.index("for v2 in R:")


def test_holds_25_variables_one_element_table():
    names = [f"x{i}" for i in range(25)]
    lhs, rhs = wd.parse_text("".join(names)), wd.parse_text("".join(reversed(names)))
    assert sg.holds(sg.table([[0]], [0]), lhs, rhs) is None


def test_holds_25_variables_witness_on_left_zero():
    names = [f"x{i}" for i in range(25)]
    lhs, rhs = wd.parse_text("".join(names)), wd.parse_text("".join(reversed(names)))
    expected = {x: 0 for x in names}
    expected["x24"] = 1
    assert sg.holds(left_zero(2), lhs, rhs) == expected


# ---------------------------------------------------------------------------
# duality


def test_dual_left_zero_is_right_zero():
    assert sg.dual(left_zero(2)).op == right_zero(2).op


def test_dual_of_commutative_is_itself():
    sl3 = chain_semilattice(3)
    assert sg.dual(sl3).op == sl3.op


def test_dual_involution(tables):
    for S in tables.values():
        assert sg.dual(sg.dual(S)).op == S.op


def test_duality_of_satisfaction_order_two():
    # exhaustive at order <= 2; the acceptance suite covers order 3
    idents = [
        (wd.parse_text(l), wd.parse_text(r))
        for l, r in [("xy", "yx"), ("xy", "x"), ("xx", "x"), ("x^0y", "yx^0")]
    ]
    for S in sg.enumerate_unary_cr_tables(2):
        D = sg.dual(S)
        for l, r in idents:
            assert (sg.holds(S, l, r) is None) == (
                sg.holds(D, wd.mirror_term(l), wd.mirror_term(r)) is None
            )


# ---------------------------------------------------------------------------
# Green's relations


def test_green_left_zero():
    g = sg.green(left_zero(2))
    assert sg.describe_partition(g.L) == "universal"
    assert sg.describe_partition(g.R) == "identity"
    assert sg.describe_partition(g.H) == "identity"
    assert sg.describe_partition(g.D) == "universal"


def test_green_group_universal():
    g = sg.green(cyclic_group(3))
    for rel in (g.L, g.R, g.H, g.D):
        assert sg.describe_partition(rel) == "universal"


def test_green_swaps_under_dual(tables):
    for S in tables.values():
        g, gd = sg.green(S), sg.green(sg.dual(S))
        assert g.L == gd.R
        assert g.R == gd.L


# ---------------------------------------------------------------------------
# congruences


def test_largest_congruence_trivial_cases():
    sl3 = chain_semilattice(3)
    assert sg.largest_congruence_within(sl3, sg.identity_partition(3)) == sg.identity_partition(3)
    assert sg.largest_congruence_within(sl3, sg.universal_partition(3)) == sg.universal_partition(3)


def test_largest_congruence_against_enumeration(tables):
    small = [S for S in tables.values() if S.order <= 4]
    assert len(small) >= 8
    for S in small:
        congruences = sg.all_congruences(S)
        for theta in sg.all_partitions(S.order):
            best = sg.largest_congruence_within(S, theta)
            assert sg.is_congruence(S, best)
            assert sg.refines(best, theta)
            candidates = [c for c in congruences if sg.refines(c, theta)]
            coarsest = max(candidates, key=lambda c: -len(set(c)))
            assert best == coarsest


def test_L0_left_zero_is_universal():
    # L is universal on a left-zero semigroup and the universal relation is a
    # congruence, so the enumeration oracle gives the universal congruence.
    lz2 = left_zero(2)
    assert sg.L0(lz2) == sg.universal_partition(2)
    coarsest = max(sg.all_congruences(lz2), key=lambda c: -len(set(c)))
    assert sg.L0(lz2) == coarsest
    assert sg.R0(lz2) == sg.identity_partition(2)


def test_H0_group_universal():
    assert sg.H0(cyclic_group(4)) == sg.universal_partition(4)


def test_L0_R0_swap_under_dual(tables):
    for S in tables.values():
        if S.order <= 6:
            assert sg.L0(S) == sg.R0(sg.dual(S))


def test_tau_band_universal(tables):
    for name in ("LZ2", "RB22", "FB2", "LRB8", "SL3"):
        S = tables[name]
        assert sg.tau(S) == sg.universal_partition(S.order)


def test_tau_group_identity():
    assert sg.tau(cyclic_group(2)) == sg.identity_partition(2)


def test_tau_kernel_is_idempotent_set(tables):
    for S in tables.values():
        kt = sg.kernel_trace(S, sg.tau(S))
        assert kt.ker == frozenset(sg.idempotents(S))


# ---------------------------------------------------------------------------
# kernel, trace, relate


def test_kernel_trace_identity_and_universal():
    S = chain_semilattice(3)
    kt = sg.kernel_trace(S, sg.identity_partition(3))
    assert kt.ker == frozenset(sg.idempotents(S))
    assert kt.tr == frozenset(frozenset((e,)) for e in sg.idempotents(S))
    kt = sg.kernel_trace(S, sg.universal_partition(3))
    assert kt.ker == frozenset(range(3))


def test_left_and_right_traces_swap_under_dual(tables):
    # the carrier is shared, so the transport between S and its dual is the
    # identity on indices
    for S in tables.values():
        if S.order <= 4:
            D = sg.dual(S)
            for rho in sg.all_congruences(S):
                a = sg.kernel_trace(S, rho)
                b = sg.kernel_trace(D, rho)
                assert a.ltr == b.rtr and a.rtr == b.ltr
                assert a.ker == b.ker and a.tr == b.tr


def test_relate_reflexive(tables):
    for S in tables.values():
        if S.order <= 4:
            rho = sg.tau(S)
            assert sg.relate(S, rho, rho) == frozenset(("K", "Tl", "Tr", "T", "Kl", "Kr"))


def test_relate_kernel_differs_on_group():
    c2 = cyclic_group(2)
    flags = sg.relate(c2, sg.identity_partition(2), sg.universal_partition(2))
    assert "K" not in flags


def test_K_and_T_meet_is_identity(tables):
    # no two distinct congruences share kernel and both traces
    for S in tables.values():
        if S.order <= 4:
            congruences = sg.all_congruences(S)
            for rho, lam in itertools.combinations(congruences, 2):
                flags = sg.relate(S, rho, lam)
                assert not {"K", "Tl", "Tr"} <= flags, (S.name, rho, lam)
                assert not {"Kl", "Kr"} <= flags


def test_trace_equality_matches_T_flag(tables):
    # tr(rho) = tr(lam) iff both one-sided traces agree, on the battery
    for S in tables.values():
        if S.order <= 4:
            congruences = sg.all_congruences(S)
            for rho, lam in itertools.combinations(congruences, 2):
                ta, tb = sg.kernel_trace(S, rho), sg.kernel_trace(S, lam)
                assert (ta.tr == tb.tr) == (
                    "T" in sg.relate(S, rho, lam)
                ), (S.name, rho, lam)


# ---------------------------------------------------------------------------
# the per-table memo

ROUTES = ("K", "T", "Tl", "Tr", "Kl", "Kr")


def _fresh(S):
    return sg.UnaryCayleyTable(S.op, S.inv, S.name)


def _answers(S):
    from crvar import varieties as va

    rhos = [va.route_congruence(S, r) for r in ROUTES]
    return (
        [sg.green(S), sg.tau(S), sg.L0(S), sg.R0(S), sg.H0(S)]
        + rhos
        + [sg.relate(S, rho, lam) for rho in rhos for lam in rhos]
    )


def test_memo_is_invisible_to_equality_hash_repr_and_json(tables):
    for S in tables.values():
        cold, warm = _fresh(S), _fresh(S)
        _answers(warm)
        assert warm._memo and not cold._memo
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert sg.table_to_json(warm) == sg.table_to_json(cold)


def test_memo_answers_match_a_fresh_table(tables):
    for S in tables.values():
        warm = _fresh(S)
        first = _answers(warm)
        assert sg.green(warm) is first[0]
        assert _answers(warm) == first == _answers(_fresh(S)), S.name


# ---------------------------------------------------------------------------
# quotients


def test_quotient_by_identity_and_universal():
    S = rectangular_band(2, 2)
    assert sg.quotient(S, sg.identity_partition(4)).op == S.op
    assert sg.quotient(S, sg.universal_partition(4)).order == 1


def test_quotient_requires_congruence():
    with pytest.raises(sg.NonCongruenceError):
        sg.quotient(cyclic_group(3), (0, 0, 1))


def test_quotient_free_band_by_H0():
    fb2 = sg.free_band(2)
    assert sg.quotient(fb2, sg.H0(fb2)).order == 6


def test_quotient_preserves_cr(tables):
    for S in tables.values():
        if S.order <= 6:
            for rho in (sg.tau(S), sg.L0(S), sg.H0(S)):
                Q = sg.quotient(S, rho)
                assert sg.is_associative(Q)
                assert sg.is_completely_regular(Q)


def test_rees_quotient_by_everything():
    S = chain_semilattice(2)
    assert sg.rees_quotient(S, {0, 1}).order == 1


def test_rees_quotient_least_d_class():
    S = chain_semilattice(2)
    Q = sg.rees_quotient(S, sg.least_d_class(S))
    assert Q.order == 2
    assert sg.is_completely_regular(Q)


def test_rees_quotient_rejects_non_ideal():
    with pytest.raises(sg.NotAnIdealError):
        sg.rees_quotient(chain_semilattice(3), {2})


def test_rees_quotient_preserves_cr(tables):
    for S in tables.values():
        if 1 < S.order <= 6:
            I = sg.least_d_class(S)
            if len(I) < S.order:
                Q = sg.rees_quotient(S, I)
                assert sg.is_associative(Q) and sg.is_completely_regular(Q)


# ---------------------------------------------------------------------------
# the least-D-class congruences


def test_least_d_congruence_group():
    assert sg.least_d_congruence(cyclic_group(3), "H") == sg.universal_partition(3)


def test_least_d_congruence_semilattice():
    assert sg.least_d_congruence(chain_semilattice(2), "L") == sg.identity_partition(2)


def test_least_d_congruence_battery(tables):
    from crvar import varieties as va

    cat = va.catalog()
    targets = {"H": cat["RB"], "L": cat["RZ"], "R": cat["LZ"]}
    greens = {"H": "H", "L": "L", "R": "R"}
    for S in tables.values():
        if S.order > 6:
            continue
        D = sg.least_d_class(S)
        for kind, target in targets.items():
            p = sg.least_d_congruence(S, kind)
            assert sg.is_congruence(S, p)
            rel = getattr(sg.green(S), greens[kind])
            for a in D:
                for b in D:
                    if p[a] == p[b]:
                        assert rel[a] == rel[b]
            # the image of the least D-class in the quotient lies in the
            # stated variety (rectangular bands / right zero / left zero)
            Q = sg.quotient(S, p)
            image = sorted({p[a] for a in D})
            sub = sg.restrict(Q, image)
            assert va.member(sub, target), (S.name, kind)


# ---------------------------------------------------------------------------
# products, subsemigroups, free bands, extension


def test_direct_product_order():
    assert sg.direct_product(chain_semilattice(2), cyclic_group(3)).order == 6


def test_subsemigroup_generated():
    fb2 = sg.free_band(2)
    e = sg.idempotents(fb2)[0]
    assert sg.subsemigroup_generated(fb2, {e}) == frozenset((e,))
    assert len(sg.subsemigroup_generated(fb2, {0, 3})) <= fb2.order


def test_free_band_orders_1_2():
    assert sg.free_band(1).order == 1
    fb2 = sg.free_band(2)
    assert fb2.order == 6
    assert sg.is_associative(fb2)
    assert all(fb2.op[a][a] == a for a in range(6))


def test_free_band_rejects_unsupported_ranks():
    with pytest.raises(sg.TableError):
        sg.free_band(4)
    with pytest.raises(sg.TableError):
        sg.free_band(0)


def test_free_band_universal_property_spot_check():
    # evaluation maps into small bands are homomorphisms on the generators
    fb2 = sg.free_band(2)
    targets = [left_zero(2), right_zero(2), chain_semilattice(2)]
    for T in targets:
        for ga in range(T.order):
            for gb in range(T.order):
                # the image of each free-band element is forced by its word
                word_of = {0: "a", 1: "b", 2: "ab", 3: "ba", 4: "aba", 5: "bab"}
                img = {}
                for e, wtext in word_of.items():
                    acc = None
                    for ch in wtext:
                        val = ga if ch == "a" else gb
                        acc = val if acc is None else T.op[acc][val]
                    img[e] = acc
                for x in range(6):
                    for y in range(6):
                        assert img[fb2.op[x][y]] == T.op[img[x]][img[y]]


def test_right_zero_extension_sizes():
    one = sg.free_band(1)
    assert sg.right_zero_extension(one).order == 3
    assert sg.right_zero_extension(sg.free_band(2)).order == 13


def test_right_zero_extension_structure():
    F = sg.free_band(2)
    S = sg.right_zero_extension(F)
    assert sg.is_associative(S)
    assert sg.is_completely_regular(S)
    R = set(range(F.order, S.order))
    assert sg.is_ideal(S, R)
    assert sg.L0(S) == sg.identity_partition(S.order)
    assert sg.rees_quotient(S, R).op == sg.adjoin_zero(F).op


def test_right_zero_extension_battery(tables):
    for name in ("SL2", "LZ2", "C2"):
        S = sg.right_zero_extension(tables[name])
        assert sg.is_associative(S)
        assert sg.is_completely_regular(S)


# ---------------------------------------------------------------------------
# enumeration and file format


def test_enumeration_order_two():
    found = list(sg.enumerate_unary_cr_tables(2))
    orders = [S.order for S in found]
    assert orders.count(1) == 1
    # order 2: left zero, right zero, two semilattices, two groups (inv choices vary)
    assert len([S for S in found if S.order == 2]) >= 4


def test_json_round_trip(tables):
    for S in (tables["FB2"], tables["LRB8"]):
        text = sg.table_to_json(S)
        T = sg.table_from_json(text)
        assert T.op == S.op and T.inv == S.inv


def test_json_reports_failing_triple():
    bad = '{"order": 2, "op": [[0, 1], [0, 0]], "inv": [0, 1]}'
    with pytest.raises(sg.TableError) as err:
        sg.table_from_json(bad)
    assert "triple" in str(err.value)


def test_json_reports_cr_failure():
    bad = '{"order": 2, "op": [[0, 0], [0, 1]], "inv": [1, 1]}'
    with pytest.raises(sg.TableError) as err:
        sg.table_from_json(bad)
    assert "axiom" in str(err.value)
