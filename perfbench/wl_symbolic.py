"""Workload ``symbolic``: zeta-checks, words and networks; no tables are loaded.

zeta queries pair a random term (depth <= 3 over three letters) with the end
of a seeded walk of 1-5 ``zeta_neighbors`` steps (equivalent pairs), or take
pairs that a battery table refutes: xy/yx, x(x)^-1/y(y)^-1, xyx/xy(x)^-1 with
seeded letters, and random refuted pairs.  Budgets are 5-7.  Word queries
validate, parse and mirror random words, some invalid.  Network queries
generate K, T, combined and ladder networks at fixed depths up to 16, check
the lattice axioms, the mirror and ladder-model isomorphisms, the JSON round
trip and DOT output, and instantiate small ones.  The combined network and
a hexagon are not lattices.
"""

from __future__ import annotations

import random
from typing import List

from . import reference as ref
from .common import BINDINGS, Context, cli_query
from .loop import FAIL, OK, UNKNOWN, Query, digest

NAME = "symbolic"
ROUND_S = 6.0
LETTERS = "pqrstuvxyz"
WALK_STEPS = (1, 2, 3, 4, 5, 2, 3, 4)
# larger terms make a 5-step walk pair cost up to seconds
WALK_START_SYMBOLS, WALK_END_SYMBOLS = 12, 24
# The fixed refuted pairs and the mid-depth networks form a cluster of
# similar costs just below the two costliest queries, so the round's
# 11th-slowest query (the tail) falls inside it.
FIXED_REFUTED = (
    ("xy", "yx", 7),
    ("xy", "yx", 7),
    ("x(x)^-1", "y(y)^-1", 5),
    ("x(x)^-1", "y(y)^-1", 6),
    ("xyx", "xy(x)^-1", 5),
    ("xyx", "xy(x)^-1", 6),
)
RANDOM_REFUTED = 4
RANDOM_REFUTED_BUDGET = 5
WORDS_VALID, WORDS_INVALID = 6, 2
# (family, depth, instantiate) per round; instantiation stays at depth <= 3
NETWORKS = (
    ("ladder5.1", 10, False),
    ("ladder5.1", 8, False),
    ("ladder6.1", 8, False),
    ("ladder6.1", 7, False),
    ("K", 16, False),
    ("K", 12, False),
    ("T", 10, False),
    ("T", 9, False),
    ("ladder5.1", 3, True),
    ("K", 3, True),
    ("T", 2, True),
    ("combined", 6, False),
    ("ladder6.1-side", 4, False),
    ("hexagon", 0, False),
)
LATTICE = {"ladder5.1", "ladder6.1", "ladder6.1-side", "K", "T"}


def random_term(rng: random.Random, depth: int, letters: str):
    from crvar.words import Inv, Var, prod

    if depth == 0 or rng.random() < 0.35:
        return Var(rng.choice(letters))
    if rng.random() < 0.35:
        return Inv(random_term(rng, depth - 1, letters))
    return prod(random_term(rng, depth - 1, letters) for _ in range(rng.randint(2, 3)))


def refuted_by(tables, u, v):
    """Name and assignment of the first battery table separating u from v."""
    for S in tables:
        env = ref.refuting_assignment(S.op, S.inv, u, v)
        if env is not None:
            return S.name, env
    return None


def zeta_query(u_text: str, v_text: str, budget: int, refutation) -> Query:
    """Equivalent pairs have refutation None; refuted pairs carry the table
    and assignment that separate them, so they must never come back
    equivalent."""
    from crvar import words as wd

    def run():
        u, v = wd.parse_text(u_text), wd.parse_text(v_text)
        return u, v, wd.zeta_equivalent(u, v, budget)

    def check(raw):
        u, v, verdict = raw
        head = f"zeta {u_text} ~ {v_text} budget {budget}: "
        if not hasattr(verdict, "witness"):
            return UNKNOWN, head + f"unknown ({verdict.budget_exhausted})"
        path = verdict.witness
        answer = head + "equivalent " + " | ".join(ref.render(t) for t in path)
        if refutation is not None:
            return FAIL, answer + f" (refuted in {refutation[0]} by {refutation[1]})"
        if path[0] != u or path[-1] != v or len(path) - 1 > budget:
            return FAIL, answer + " (path does not join the pair within the budget)"
        # The search grows both ends, so a step may be a rewrite read backwards.
        for a, b in zip(path, path[1:]):
            if b not in wd.zeta_neighbors(a) and a not in wd.zeta_neighbors(b):
                return FAIL, answer + f" (non-step {ref.render(a)} -> {ref.render(b)})"
        return OK, answer

    return Query("zeta", run, check, negative=refutation is not None)


def word_query(text: str) -> Query:
    from crvar import words as wd

    def run():
        w = wd.word_from_text(text)
        violation = wd.first_violation(w)
        if violation is not None:
            return w, violation, None, None
        return w, None, wd.parse_word(w), wd.mirror(w)

    def check(raw):
        w, violation, term, mirrored = raw
        valid = ref.is_valid_word(w)
        if violation is not None:
            answer = f"word {text}: invalid, condition {violation[0]} at position {violation[1]}"
            return (FAIL, answer + " (the grammar accepts it)") if valid else (OK, answer)
        answer = f"word {text}: valid, mirror {''.join(mirrored)}"
        if not valid:
            return FAIL, answer + " (the grammar rejects it)"
        if ref.render(term) != "".join(w):
            return FAIL, answer + " (parse does not render back)"
        if mirrored != ref.mirror_word(w):
            return FAIL, answer + " (wrong mirror image)"
        return OK, answer

    return Query("word", run, check, negative=not ref.is_valid_word(_symbols(text)))


def _symbols(text: str) -> tuple:
    out, i = [], 0
    while i < len(text):
        if text.startswith(ref.CLOSE, i):
            out.append(ref.CLOSE)
            i += len(ref.CLOSE)
        else:
            out.append(text[i])
            i += 1
    return tuple(out)


def hexagon():
    """Two incomparable minimal upper bounds for the bottom pair."""
    from crvar import networks as nw

    a, b, c, d, bot, top = (nw.BaseNode(s) for s in ("a", "b", "c", "d", "bot", "top"))
    covers = tuple(
        (lo, hi, "plain")
        for lo, hi in ((a, c), (a, d), (b, c), (b, d), (bot, a), (bot, b), (c, top), (d, top))
    )
    return nw.Network((a, b, bot, c, d, top), covers, ((bot,), (a, b), (c, d), (top,)), "", 0)


def network_query(ctx: Context, family: str, depth: int, inst: bool) -> Query:
    from crvar import networks as nw

    bindings = {k: ctx.catalog[v] for k, v in BINDINGS.items()}
    generate = {
        "K": lambda: nw.gen_K_network(depth),
        "T": lambda: nw.gen_T_network(depth),
        "combined": lambda: nw.gen_combined(depth),
        "ladder5.1": lambda: nw.gen_ladder51(depth),
        "ladder6.1": lambda: nw.gen_ladder61(depth, use_default_upper=True),
        "ladder6.1-side": lambda: nw.gen_ladder61(depth, side_conditions=nw.REQUIRED_SIDE_CONDITIONS),
        "hexagon": hexagon,
    }[family]
    ladder = family.startswith("ladder")

    def run():
        net = generate()
        report = nw.check_lattice(net)
        mirrored = None if family == "combined" else nw.isomorphic(nw.mirror_network(net), net)
        model = nw.isomorphic_to_model(net, nw.reference_ladder(depth)) if ladder else None
        js = nw.emit_json(net)
        back = nw.load_json(js)
        dot = nw.emit_dot(net)
        bases = nw.instantiate(net, bindings) if inst else None
        return net, report, mirrored, model, js, back, dot, bases

    def check(raw):
        net, report, mirrored, model, js, back, dot, bases = raw
        answer = (
            f"network {family} depth {depth}: {len(net.nodes)} nodes {len(net.covers)} covers; "
            f"{report}; mirror {mirrored}; model {model}; json {digest(js)}; dot {digest(dot)}"
        )
        if bases is not None:
            answer += f"; bases {sum(B is not None for B in bases.values())}"
        expected = family in LATTICE
        truth = ref.lattice_verdict(net.nodes, [(a, b) for a, b, _ in net.covers])
        if report.ok != expected or truth != expected:
            return FAIL, answer + f" (lattice verdict {report.ok}, reference {truth}, expected {expected})"
        if mirrored is False or model is False:
            return FAIL, answer + " (isomorphism fails)"
        if back != net:
            return FAIL, answer + " (JSON round trip changed the network)"
        if not dot.startswith("digraph network {") or dot.count("\n") != 3 + len(net.nodes) + len(net.covers):
            return FAIL, answer + " (DOT output has the wrong shape)"
        if bases is not None and set(bases) != set(net.nodes):
            return FAIL, answer + " (instantiation misses nodes)"
        return OK, answer

    return Query("network", run, check, negative=family not in LATTICE)


def build(ctx: Context, seed: int, seconds: float) -> List[List[Query]]:
    from crvar import words as wd

    rng = random.Random(seed)
    tables = [S for S in ctx.tables.values() if S.order <= 8]
    count = int(1.5 * seconds / ROUND_S) + 2
    rounds = []
    for _ in range(count):
        queries = []
        for steps in WALK_STEPS:
            letters = "".join(rng.sample(LETTERS, 3))
            end = None
            while end is None or len(_symbols(ref.render(end))) > WALK_END_SYMBOLS:
                start = end = random_term(rng, 3, letters)
                if len(_symbols(ref.render(start))) > WALK_START_SYMBOLS:
                    continue
                for _ in range(steps):
                    end = rng.choice(sorted(wd.zeta_neighbors(end), key=ref.render))
            budget = rng.randint(max(5, steps), 7)
            queries.append(zeta_query(ref.render(start), ref.render(end), budget, None))
        for u, v, budget in FIXED_REFUTED:
            rename = dict(zip("xy", rng.sample(LETTERS, 2)))
            u, v = ("".join(rename.get(ch, ch) for ch in s) for s in (u, v))
            pair = (wd.parse_text(u), wd.parse_text(v))
            queries.append(zeta_query(u, v, budget, refuted_by(tables, *pair)))
        made = 0
        while made < RANDOM_REFUTED:
            letters = "".join(rng.sample(LETTERS, 2))
            u, v = random_term(rng, 2, letters), random_term(rng, 2, letters)
            why = refuted_by(tables, u, v)
            if why is not None and len(ref.render(u)) + len(ref.render(v)) <= 12:
                queries.append(zeta_query(ref.render(u), ref.render(v), RANDOM_REFUTED_BUDGET, why))
                made += 1
        for i in range(WORDS_VALID + WORDS_INVALID):
            word = list(_symbols(ref.render(random_term(rng, 3, "".join(rng.sample(LETTERS, 3))))))
            if i >= WORDS_VALID:
                while ref.is_valid_word(tuple(word)):
                    pos = rng.randrange(len(word) + 1)
                    word.insert(pos, rng.choice((ref.OPEN, ref.CLOSE)))
            queries.append(word_query("".join(word)))
        queries += [network_query(ctx, f, d, inst) for f, d, inst in NETWORKS]
        rng.shuffle(queries)
        # twice over, so that the round's median query is one of them
        queries += 2 * [
            cli_query(ctx, ["word", "validate", "x(x)^-1"], 0),
            cli_query(ctx, ["word", "mirror", "p(q(rs)^-1t)^-1u"], 0),
            cli_query(ctx, ["word", "parse", "xy(x)^-1"], 0),
            cli_query(ctx, ["word", "zeta-check", "x", "((x)^-1)^-1", "--budget", "10"], 0),
            cli_query(ctx, ["network", "--theorem", "4.2", "--depth", "2", "--format", "dot"], 0),
            cli_query(
                ctx,
                ["network", "--theorem", "5.1", "--depth", "2", "--bind", "V=S,Vl=LNB,Vr=RNB", "--format", "json"],
                0,
            ),
            cli_query(ctx, ["network", "--theorem", "6.1", "--depth", "1", "--assume-side-conditions"], 0),
        ]
        rounds.append(queries)
    return rounds
