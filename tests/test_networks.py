import pytest

from crvar import networks as nw
from crvar import varieties as va
from crvar.networks import (
    V,
    BaseNode,
    JoinNode,
    MeetNode,
    UpperNode,
    render_expr,
    row_widths,
    upper,
)


def ids(net):
    return set(net.node_ids())


def cover_ids(net):
    return {(render_expr(a), render_expr(b), l) for a, b, l in net.covers}


# ---------------------------------------------------------------------------
# the K network


def test_K_network_depth1():
    net = nw.gen_K_network(1)
    assert ids(net) == {"V", "V^Kl", "V^Kr", "(V^KlKr & V^KrKl)"}
    assert cover_ids(net) == {
        ("V", "V^Kl", "Kl"),
        ("V", "V^Kr", "Kr"),
        ("V^Kl", "(V^KlKr & V^KrKl)", "Kr"),
        ("V^Kr", "(V^KlKr & V^KrKl)", "Kl"),
    }


def test_K_network_depth2_adds_level():
    net = nw.gen_K_network(2)
    assert len(net.nodes) == 7
    assert {"V^KrKl", "V^KlKr", "(V^KlKrKl & V^KrKlKr)"} <= ids(net)
    middle = "(V^KlKr & V^KrKl)"
    assert (middle, "V^KrKl", "Kl") in cover_ids(net)
    assert (middle, "V^KlKr", "Kr") in cover_ids(net)
    assert ("V^KrKl", "(V^KlKrKl & V^KrKlKr)", "Kr") in cover_ids(net)
    assert ("V^KlKr", "(V^KlKrKl & V^KrKlKr)", "Kl") in cover_ids(net)


def test_K_network_row_pattern():
    for depth in range(1, 5):
        assert row_widths(nw.gen_K_network(depth)) == (1,) + (2, 1) * depth


def test_K_network_top():
    net = nw.gen_K_network(2, with_top=True)
    assert "V^K" in ids(net)
    tops = [c for c in cover_ids(net) if c[1] == "V^K"]
    assert tops == [("(V^KlKrKl & V^KrKlKr)", "V^K", "plain")]


def test_K_network_largest_variety_metadata():
    net = nw.gen_K_network(1)
    notes = dict(net.meta)
    assert "V^Tl" in notes["V^Kl"]
    assert "V^Tr" in notes["V^Kr"]


# ---------------------------------------------------------------------------
# the T network


def test_T_network_depth1_nodes():
    net = nw.gen_T_network(1)
    assert ids(net) == {
        "V",
        "V^T",
        "V^Tl",
        "V^Tr",
        "(V^Tl v V^Tr)",
        "(V^TlTr & V^TrTl)",
    }
    assert ("V", "V^T", "plain") in cover_ids(net)
    assert ("(V^Tl v V^Tr)", "(V^TlTr & V^TrTl)", "plain") in cover_ids(net)
    assert ("V^T", "V^Tl", "Tl") in cover_ids(net)
    assert ("V^Tl", "(V^Tl v V^Tr)", "Tr") in cover_ids(net)


def test_T_network_join_meet_distinct():
    net = nw.gen_T_network(2)
    assert "(V^TlTr v V^TrTl)" in ids(net)
    assert "(V^TlTrTl & V^TrTlTr)" in ids(net)


def test_T_network_row_pattern():
    for depth in range(1, 5):
        assert row_widths(nw.gen_T_network(depth)) == (1, 1) + (2, 2) * depth


def test_T_network_top_is_CR():
    net = nw.gen_T_network(1, with_top=True)
    assert "CR" in ids(net)


def test_T_network_optional_collapse():
    net = nw.gen_T_network(1, collapse=(1,))
    assert "(V^Tl v V^Tr)" not in ids(net)
    assert "(V^TlTr & V^TrTl)" in ids(net)
    assert row_widths(net) == (1, 1, 2, 1)


# ---------------------------------------------------------------------------
# the combined network


def test_combined_no_identifications():
    for depth in (1, 2):
        K = nw.gen_K_network(depth)
        T = nw.gen_T_network(depth)
        C = nw.gen_combined(depth)
        assert len(C.nodes) == len(K.nodes) + len(T.nodes)


def test_combined_cross_edges():
    C = nw.gen_combined(2)
    cross = [
        (nw.render_tagged(a), nw.render_tagged(b))
        for a, b, l in C.covers
        if isinstance(a, nw.TaggedNode) and a.tag == "K" and b.tag == "T"
    ]
    assert sorted(cross) == [
        ("K:V^Kl", "T:V^Tl"),
        ("K:V^KlKr", "T:V^TlTr"),
        ("K:V^Kr", "T:V^Tr"),
        ("K:V^KrKl", "T:V^TrTl"),
    ]


def test_combined_cross_edges_preserve_order():
    # each K side node sits below its T partner: the cross edge points upward
    C = nw.gen_combined(1)
    for a, b, l in C.covers:
        if a.tag == "K" and b.tag == "T":
            assert l == "plain"
            assert isinstance(a.expr, UpperNode) and isinstance(b.expr, UpperNode)
            assert len(a.expr.word) == len(b.expr.word)


def test_combined_mirror_is_an_involution():
    for depth in (1, 2, 3):
        C = nw.gen_combined(depth)
        M = nw.mirror_network(C)
        assert M != C
        assert nw.mirror_network(M) == C
        assert all(isinstance(n, nw.TaggedNode) for n in M.nodes)


def test_combined_mirror_is_isomorphic():
    for depth in (1, 2, 3):
        C = nw.gen_combined(depth)
        assert nw.isomorphic(nw.mirror_network(C), C)


# ---------------------------------------------------------------------------
# ladders


def test_ladder_depth1_is_nine_element_block():
    net = nw.gen_ladder51(1)
    assert len(net.nodes) == 9
    assert row_widths(net) == (1, 2, 3, 2, 1)
    assert ids(net) == {
        "V",
        "Vl",
        "Vr",
        "V^Kl",
        "(Vl v Vr)",
        "V^Kr",
        "(V^Kl v Vr)",
        "(V^Kr v Vl)",
        "(V^Kl v V^Kr)",
    }


def test_ladder_depth2_node_set():
    net = nw.gen_ladder51(2)
    assert len(net.nodes) == 14
    assert row_widths(net) == (1, 2, 3, 2, 3, 2, 1)
    assert {"Vr^Kl", "Vl^Kr", "(V^Kr v Vr^Kl)", "(V^Kl v Vl^Kr)", "(Vl^Kr v Vr^Kl)"} <= ids(net)


def test_ladder_depth3_outer_corner_words():
    net = nw.gen_ladder51(3)
    assert len(net.nodes) == 19
    # the pure operator corners appearing two steps off the diagonal
    assert {"V^KrKl", "V^KlKr"} <= ids(net)
    row7 = tuple(render_expr(n) for n in net.rows[6])
    assert row7 == ("V^KrKl", "(Vl^Kr v Vr^Kl)", "V^KlKr")


def test_K_network_depth3_transcription():
    # the full edge set of the depth-3 tower, with solid/dashed translated
    # to the Kl/Kr labels
    net = nw.gen_K_network(3)
    j1, j2, j3 = (
        "(V^KlKr & V^KrKl)",
        "(V^KlKrKl & V^KrKlKr)",
        "(V^KlKrKlKr & V^KrKlKrKl)",
    )
    assert cover_ids(net) == {
        ("V", "V^Kl", "Kl"),
        ("V", "V^Kr", "Kr"),
        ("V^Kl", j1, "Kr"),
        ("V^Kr", j1, "Kl"),
        (j1, "V^KrKl", "Kl"),
        (j1, "V^KlKr", "Kr"),
        ("V^KrKl", j2, "Kr"),
        ("V^KlKr", j2, "Kl"),
        (j2, "V^KlKrKl", "Kl"),
        (j2, "V^KrKlKr", "Kr"),
        ("V^KlKrKl", j3, "Kr"),
        ("V^KrKlKr", j3, "Kl"),
    }


def test_ladder_depth3_transcription():
    # cover edges of the third block as drawn, negative slope carrying Kl
    covers = cover_ids(nw.gen_ladder51(3))
    assert {
        ("(V^Kr v Vl)", "(V^Kl v V^Kr)", "Kl"),
        ("(V^Kl v V^Kr)", "(V^Kr v Vr^Kl)", "Kl"),
        ("(V^Kr v Vr^Kl)", "V^KrKl", "Kl"),
        ("(V^Kr v Vr^Kl)", "(Vl^Kr v Vr^Kl)", "Kr"),
        ("(V^Kl v V^Kr)", "(V^Kl v Vl^Kr)", "Kr"),
        ("(V^Kl v Vl^Kr)", "V^KlKr", "Kr"),
        ("Vr^Kl", "(V^Kr v Vr^Kl)", "Kr"),
        ("Vl^Kr", "(V^Kl v Vl^Kr)", "Kl"),
    } <= covers


def test_ladder_edge_labels_by_slope():
    net = nw.gen_ladder51(1)
    covers = cover_ids(net)
    assert ("V", "Vl", "Kl") in covers
    assert ("V", "Vr", "Kr") in covers
    assert ("Vr", "(Vl v Vr)", "Kl") in covers
    assert ("Vl", "(Vl v Vr)", "Kr") in covers


def test_ladder_cover_degree_bound():
    for depth in (1, 2, 3):
        net = nw.gen_ladder51(depth)
        for n in net.nodes:
            ups = [c for c in net.covers if c[0] == n]
            downs = [c for c in net.covers if c[1] == n]
            assert len(ups) <= 2 and len(downs) <= 2


def test_ladder_top_covers_final_node():
    net = nw.gen_ladder51(2, with_top=True)
    tops = [c for c in net.covers if render_expr(c[1]) == "V^K"]
    assert len(tops) == 1
    assert render_expr(tops[0][0]) == "(Vl^Kr v Vr^Kl)"


def test_ladder_matches_reference_model():
    for depth in range(1, 6):
        net = nw.gen_ladder51(depth)
        model = nw.reference_ladder(depth)
        assert row_widths(net) == model.rows
        assert nw.isomorphic_to_model(net, model)
    assert not nw.isomorphic_to_model(nw.gen_ladder51(2), nw.reference_ladder(3))


def test_ladder_mirror_symmetry():
    for depth in range(1, 6):
        net = nw.gen_ladder51(depth)
        assert nw.isomorphic(nw.mirror_network(net), net)


def test_mirror_of_K_network_isomorphic():
    for depth in (1, 2, 3):
        net = nw.gen_K_network(depth)
        assert nw.isomorphic(nw.mirror_network(net), net)


# ---------------------------------------------------------------------------
# the generalized ladder


def test_ladder61_requires_side_conditions():
    with pytest.raises(nw.MissingSideConditionError):
        nw.gen_ladder61(1)


def test_ladder61_default_choice_equals_51():
    for depth in (1, 2):
        a = nw.gen_ladder61(depth, use_default_upper=True)
        b = nw.gen_ladder51(depth)
        assert ids(a) == ids(b)
        assert cover_ids(a) == cover_ids(b)


def test_ladder61_fresh_labels():
    net = nw.gen_ladder61(2, side_conditions=nw.REQUIRED_SIDE_CONDITIONS)
    assert len(net.nodes) == 14
    assert {"V^l", "V^r", "V^l2", "V^r2"} <= ids(net)
    conditions = dict(net.meta)["side_conditions"]
    assert "(V^l)_Kr = V^l" in conditions
    assert row_widths(net) == row_widths(nw.gen_ladder51(2))


def test_ladder61_depth1_nine_nodes():
    net = nw.gen_ladder61(1, side_conditions=nw.REQUIRED_SIDE_CONDITIONS)
    assert len(net.nodes) == 9
    covers = cover_ids(net)
    assert ("V", "Vl", "Kl") in covers
    assert ("Vl", "V^l", "Kl") in covers


# ---------------------------------------------------------------------------
# normalization


def test_normalize_idempotent_letters():
    assert nw.normalize(UpperNode(V, ("Kl", "Kl"))) == upper(V, ("Kl",))


def test_normalize_join_to_meet():
    j = JoinNode((upper(V, ("Kl",)), upper(V, ("Kr",))))
    m = nw.normalize(j)
    assert render_expr(m) == "(V^KlKr & V^KrKl)"


def test_normalize_never_collapses_trace_joins():
    # the trace-side join can be strictly below the corresponding meet, so
    # it stays a join under normalization and gets no basis
    j = JoinNode((upper(V, ("Tl",)), upper(V, ("Tr",))))
    assert nw.normalize(j) == j
    cat = va.catalog()
    inst = nw.instantiate(nw.gen_T_network(1), {"V": cat["S"]})
    by_id = {render_expr(n): B for n, B in inst.items()}
    assert by_id["(V^Tl v V^Tr)"] is None
    assert by_id["(V^TlTr & V^TrTl)"] is not None
    assert by_id["V^T"].identities == va.op_T(cat["S"]).identities
    assert by_id["V^Tl"].identities == va.op_Tl(cat["S"]).identities


def test_normalize_subsumption():
    # V^Kl is contained in V^KrKl: the meet keeps the smaller, the join the larger
    shorter, longer = upper(V, ("Kl",)), upper(V, ("Kr", "Kl"))
    assert nw.normalize(MeetNode((shorter, longer))) == shorter
    assert nw.normalize(JoinNode((shorter, longer))) == longer


def test_normalize_base_absorption():
    assert nw.normalize(JoinNode((V, upper(V, ("Kl",))))) == upper(V, ("Kl",))
    assert nw.normalize(MeetNode((V, upper(V, ("Kl",))))) == V


def test_normalize_is_idempotent_and_terminates():
    samples = [
        JoinNode((upper(V, ("Kl", "Kl")), upper(V, ("Kr",)))),
        MeetNode((upper(V, ("Kl",)), upper(V, ("Kl", "Kr")), V)),
        JoinNode((JoinNode((V, BaseNode("Vl"))), upper(V, ("Kr",)))),
        nw.gen_ladder51(2).nodes[0],
    ]
    for e in samples:
        once = nw.normalize(e)
        assert nw.normalize(once) == once


def test_normalize_keeps_the_tag_of_combined_nodes():
    for depth in (1, 2, 3):
        for n in nw.gen_combined(depth).nodes:
            once = nw.normalize(n)
            assert once == nw.TaggedNode(n.tag, nw.normalize(n.expr))
            assert nw.normalize(once) == once


# ---------------------------------------------------------------------------
# lattice checking


def test_generated_networks_pass_lattice_check():
    for depth in (1, 2, 3, 4):
        assert nw.check_lattice(nw.gen_K_network(depth)).ok
        assert nw.check_lattice(nw.gen_T_network(depth)).ok
        assert nw.check_lattice(nw.gen_ladder51(depth)).ok
    assert nw.check_lattice(nw.gen_K_network(2, with_top=True)).ok
    assert nw.check_lattice(nw.gen_ladder51(2, with_top=True)).ok


def test_depth_must_be_positive():
    for gen in (nw.gen_K_network, nw.gen_T_network, nw.gen_ladder51):
        with pytest.raises(nw.NetworkError):
            gen(0)


def test_covers_are_transitively_reduced():
    # no cover edge may be implied by a longer path
    nets = [
        nw.gen_K_network(3),
        nw.gen_T_network(3),
        nw.gen_ladder51(3),
        nw.gen_ladder51(3, with_top=True),
        nw.gen_combined(2),
    ]
    for net in nets:
        succ = {}
        for a, b, _ in net.covers:
            succ.setdefault(a, []).append(b)

        def reachable(x, y, skip_direct):
            stack = [(x, 0)]
            seen = set()
            while stack:
                n, d = stack.pop()
                if n == y and d >= 2:
                    return True
                for m in succ.get(n, []):
                    if d == 0 and skip_direct and m == y:
                        continue
                    if (m, d + 1) not in seen and d + 1 <= len(net.nodes):
                        seen.add((m, d + 1))
                        stack.append((m, min(d + 1, 2)))
            return False

        for a, b, _ in net.covers:
            assert not reachable(a, b, skip_direct=True), (net.theorem, a, b)


def test_single_edge_deletions_only_weaken_comparability():
    # removing one cover from these grid-shaped truncations never creates
    # ambiguous bounds: pairs lose their bounds instead and are skipped
    for gen in (nw.gen_K_network, nw.gen_T_network, nw.gen_ladder51):
        net = gen(2)
        for k in range(len(net.covers)):
            broken = nw.Network(
                net.nodes,
                net.covers[:k] + net.covers[k + 1 :],
                net.rows,
                net.theorem,
                net.depth,
                net.meta,
            )
            assert nw.check_lattice(broken).ok


def test_broken_poset_fails_lattice_check():
    # a hexagon: two incomparable minimal upper bounds for the bottom pair
    a, b, c, d = (BaseNode(s) for s in ("a", "b", "c", "d"))
    bot, top = BaseNode("bot"), BaseNode("top")
    net = nw.Network(
        nodes=(a, b, bot, c, d, top),
        covers=(
            (bot, a, "plain"),
            (bot, b, "plain"),
            (a, c, "plain"),
            (a, d, "plain"),
            (b, c, "plain"),
            (b, d, "plain"),
            (c, top, "plain"),
            (d, top, "plain"),
        ),
        rows=((bot,), (a, b), (c, d), (top,)),
    )
    report = nw.check_lattice(net)
    assert not report.ok
    kind, x, y, candidates = report.violation
    assert {x, y} == {"a", "b"}
    assert candidates == frozenset(("c", "d"))


# ---------------------------------------------------------------------------
# instantiation


@pytest.fixture(scope="module")
def bindings():
    cat = va.catalog()
    return {"V": cat["S"], "Vl": cat["LNB"], "Vr": cat["RNB"]}


def test_instantiate_depth1(bindings):
    net = nw.gen_ladder51(1)
    inst = nw.instantiate(net, bindings)
    with_bases = {render_expr(n) for n, B in inst.items() if B is not None}
    assert with_bases == {"V", "Vl", "Vr", "V^Kl", "V^Kr", "(V^Kl v V^Kr)"}
    symbolic = {render_expr(n) for n, B in inst.items() if B is None}
    assert symbolic == {"(Vl v Vr)", "(V^Kl v Vr)", "(V^Kr v Vl)"}


def test_instantiate_corner_formulas(bindings):
    net = nw.gen_ladder51(2)
    inst = nw.instantiate(net, bindings)
    by_id = {render_expr(n): B for n, B in inst.items()}
    expect = va.op_Kl(bindings["Vr"])
    assert by_id["Vr^Kl"].identities == expect.identities
    assert by_id["Vl^Kr"].identities == va.op_Kr(bindings["Vl"]).identities


def test_instantiate_combined_network(bindings):
    cat = va.catalog()
    inst = nw.instantiate(nw.gen_combined(1), {"V": cat["S"]})
    by_id = {nw.render_tagged(n): B for n, B in inst.items()}
    assert by_id["K:V^Kl"].identities == va.op_Kl(cat["S"]).identities
    assert by_id["T:V^Tr"].identities == va.op_Tr(cat["S"]).identities
    assert by_id["T:(V^Tl v V^Tr)"] is None


def test_instantiate_requires_balanced(bindings):
    cat = va.catalog()
    with pytest.raises(va.UnbalancedContentError):
        nw.instantiate(nw.gen_ladder51(1), {"V": cat["LZ"]})


def test_instantiated_top_is_opK(bindings):
    net = nw.gen_ladder51(1, with_top=True)
    inst = nw.instantiate(net, bindings)
    by_id = {render_expr(n): B for n, B in inst.items()}
    assert by_id["V^K"].identities == va.op_K(bindings["V"]).identities


def test_edge_label_soundness_on_battery(bindings, tables):
    # along every cover with both ends instantiated, membership propagates up
    net = nw.gen_ladder51(2)
    inst = nw.instantiate(net, bindings)
    for lo, hi, label in net.covers:
        if inst.get(lo) is not None and inst.get(hi) is not None:
            for S in tables.values():
                if va.member(S, inst[lo]):
                    assert va.member(S, inst[hi]), (render_expr(lo), render_expr(hi), S.name)


def test_instantiated_uppers_separated(bindings, tables):
    net = nw.gen_ladder51(2)
    inst = nw.instantiate(net, bindings)
    by_id = {render_expr(n): B for n, B in inst.items()}
    lz2, rz2 = tables["LZ2"], tables["RZ2"]
    assert va.member(lz2, by_id["V^Kl"]) and not va.member(rz2, by_id["V^Kl"])
    assert va.member(rz2, by_id["V^Kr"]) and not va.member(lz2, by_id["V^Kr"])


# ---------------------------------------------------------------------------
# emission


def test_dot_output_depth1():
    text = nw.emit_dot(nw.gen_K_network(1))
    assert text.count("->") == 4
    assert text.count("[label=") == 4
    assert "style=solid" in text and "style=dashed" in text
    assert text == nw.emit_dot(nw.gen_K_network(1))


def test_dot_styles_match_relations():
    text = nw.emit_dot(nw.gen_ladder51(1))
    for line in text.splitlines():
        if "->" in line:
            assert ("style=solid" in line) or ("style=dashed" in line)
    assert '"V" -> "Vl" [style=solid];' in text
    assert '"V" -> "Vr" [style=dashed];' in text
    top = nw.emit_dot(nw.gen_ladder51(1, with_top=True))
    assert '[style=dotted];' in top


def test_json_round_trip():
    for net in (
        nw.gen_K_network(2),
        nw.gen_T_network(2),
        nw.gen_ladder51(2),
        nw.gen_combined(1),
        nw.gen_ladder61(2, side_conditions=nw.REQUIRED_SIDE_CONDITIONS),
    ):
        again = nw.load_json(nw.emit_json(net))
        assert again == net


def test_ladder61_passes_lattice_check():
    for depth in (1, 2, 3):
        net = nw.gen_ladder61(depth, side_conditions=nw.REQUIRED_SIDE_CONDITIONS)
        assert nw.check_lattice(net).ok
        assert nw.isomorphic_to_model(net, nw.reference_ladder(depth))


def test_json_carries_bases(bindings):
    inst = nw.instantiate(nw.gen_ladder51(1), bindings)
    payload = nw.emit_json(nw.gen_ladder51(1), inst)
    assert '"basis"' in payload
