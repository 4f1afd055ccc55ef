"""Workload ``tables``: analysis of tables of order 13-319.

Tables enter as JSON text through ``table_from_json`` (or as files through
the README's ``semigroup`` and ``variety member`` commands) and are then
asked for Green's relations, the congruences tau/L0/R0/H0, the six
``route_congruence`` + ``quotient`` steps, ``relate`` on pairs of route
congruences and, where the direct route stays within the sizing caps, the
two-route membership check for the S and SG schemas.  Every round loads one
large table (FB3xLZ2, FB3xRZ2 or rzx(FB3), renamed by the seed), FB3 and
three mid-sized tables, plus four corrupted inputs: one ``op`` entry changed
so that associativity fails, or one ``inv`` entry changed so that a CR axiom
fails.  Each corrupted input must be rejected with the exact message of the
seed commit, which an independent reference computes.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List

from . import reference as ref
from .common import Context, cli_query, relabeled
from .loop import FAIL, OK, Query, digest
from .wl_membership import OPS, SINGLE_OP_ROUTES, within_caps

NAME = "tables"
ROUND_S = 6.0
BIG = ("FB3xLZ2", "FB3xRZ2", "rzx(FB3)")
MID = ("FB2xFB2", "LRB8xRB23", "rzx(FB2)")
CONGRUENCES = ("tau", "L0", "R0", "H0")
# per round: relate queries and two-route checks per loaded table; the ten
# relate queries on the large table make the round's 11th-slowest query (the
# tail) one of a cluster of similar ones
RELATE = {"big": 10, "FB3": 3}
TWO_ROUTE = {"rzx(FB2)": 2, "FB2xFB2": 1, "LRB8xRB23": 1}


def _theta(kind: str, op) -> tuple:
    """The equivalence each congruence must refine, computed independently."""
    L, R = ref.green_lr(op)
    E = ref.idempotent_split(op)
    return {
        "tau": E,
        "K": E,
        "L0": L,
        "Tl": L,
        "R0": R,
        "Tr": R,
        "H0": ref.meet(L, R),
        "T": ref.meet(L, R),
        "Kl": ref.meet(E, L),
        "Kr": ref.meet(E, R),
    }[kind]


def _congruence_error(S, rho, kind: str):
    if not ref.is_congruence(S.op, S.inv, rho):
        return f"{kind} result is not a congruence"
    if not ref.refines(rho, _theta(kind, S.op)):
        return f"{kind} result does not refine its equivalence"
    return None


def corrupted(S, rng: random.Random, part: str):
    """Change one entry of op or inv; return the JSON text and the loader's
    expected rejection message."""
    op = [list(r) for r in S.op]
    inv = list(S.inv)
    n = S.order
    while True:
        if part == "op":
            i, j = rng.randrange(n), rng.randrange(n)
            old = op[i][j]
            op[i][j] = rng.choice([v for v in range(n) if v != old])
            bad = ref.first_failing_triple_after_edit(op, (i, j))
            if bad is not None:
                message = f"not associative: failing triple {bad}"
                break
            cr = ref.first_cr_failure(op, inv)
            if cr is not None:
                message = f"not completely regular: axiom {cr[0]} fails at element {cr[1]}"
                break
            op[i][j] = old
        else:
            a = rng.randrange(n)
            old = inv[a]
            inv[a] = rng.choice([v for v in range(n) if v != old])
            cr = ref.first_cr_failure(op, inv)
            if cr is not None:
                message = f"not completely regular: axiom {cr[0]} fails at element {cr[1]}"
                break
            inv[a] = old
    text = json.dumps({"order": n, "op": op, "inv": inv, "name": S.name}, separators=(",", ":"))
    return text, message


def load_query(text: str, slots: Dict[str, object], slot: str, source, expected_error) -> Query:
    from crvar import semigroups as sg

    def run():
        try:
            S = sg.table_from_json(text)
        except sg.TableError as exc:
            return "rejected", str(exc)
        slots[slot] = S
        return "loaded", S

    def check(raw):
        status, value = raw
        if status == "rejected":
            answer = f"load {slot}: rejected: {value}"
            if expected_error is None:
                return FAIL, answer + " (input is a valid table)"
            if value != expected_error:
                return FAIL, answer + f" (expected: {expected_error})"
            return OK, answer
        answer = f"load {slot}: loaded {value.name} order {value.order}"
        if expected_error is not None:
            return FAIL, answer + f" (expected rejection: {expected_error})"
        if value.op != source.op or value.inv != source.inv:
            return FAIL, answer + " (table differs from its input)"
        return OK, answer

    return Query("load", run, check, negative=expected_error is not None)


def analysis_query(kind: str, slots, slot: str, arg=None, catalog=None) -> Query:
    from crvar import semigroups as sg
    from crvar import varieties as va

    if kind == "green":

        def run():
            return sg.green(slots[slot])

        def check(g):
            S = slots[slot]
            L, R = ref.green_lr(S.op)
            answer = f"green {slot}: L {g.L} R {g.R} H {g.H} D {g.D}"
            if (g.L, g.R, g.H, g.D) != (L, R, ref.meet(L, R), ref.join(L, R)):
                return FAIL, answer + " (differs from the principal-ideal reference)"
            return OK, answer

    elif kind in CONGRUENCES:

        def run():
            return getattr(sg, kind)(slots[slot])

        def check(rho):
            answer = f"{kind} {slot}: {rho}"
            err = _congruence_error(slots[slot], rho, kind)
            return (FAIL, answer + f" ({err})") if err else (OK, answer)

    elif kind == "route":

        def run():
            S = slots[slot]
            rho = va.route_congruence(S, arg)
            return rho, sg.quotient(S, rho)

        def check(raw):
            rho, Q = raw
            S = slots[slot]
            answer = f"route {arg} {slot}: {rho} quotient order {Q.order} {digest(repr((Q.op, Q.inv)))}"
            err = _congruence_error(S, rho, arg)
            if err:
                return FAIL, answer + f" ({err})"
            if not ref.quotient_consistent(S.op, S.inv, rho, Q.op, Q.inv):
                return FAIL, answer + " (quotient table does not match the congruence)"
            return OK, answer

    elif kind == "relate":
        r1, r2 = arg

        def run():
            S = slots[slot]
            rho = va.route_congruence(S, r1)
            lam = va.route_congruence(S, r2)
            return rho, lam, sg.relate(S, rho, lam)

        def check(raw):
            rho, lam, flags = raw
            S = slots[slot]
            answer = f"relate {r1},{r2} {slot}: {sorted(flags)}"
            for p, r in ((rho, r1), (lam, r2)):
                err = _congruence_error(S, p, r)
                if err:
                    return FAIL, answer + f" ({err})"
            if ("K" in flags) != (ref.kernel(S.op, rho) == ref.kernel(S.op, lam)):
                return FAIL, answer + " (K flag disagrees with the kernels)"
            derived = {"T": {"Tl", "Tr"}, "Kl": {"K", "Tl"}, "Kr": {"K", "Tr"}}
            for flag, parts in derived.items():
                if (flag in flags) != (parts <= flags):
                    return FAIL, answer + f" ({flag} flag inconsistent)"
            if rho != lam and ({"K", "Tl", "Tr"} <= flags or {"Kl", "Kr"} <= flags):
                return FAIL, answer + " (distinct congruences with equal kernel and trace)"
            return OK, answer

    elif kind == "two-route":
        base, P = arg

        def run():
            S = slots[slot]
            B = catalog[base]
            return va.member(S, va.apply_word(B, [P])), va.member_via_quotient(S, B, P)

        def check(raw):
            direct, via = raw
            answer = f"two-route {base}^{P} {slot}: direct {direct} quotient {via}"
            return (OK, answer) if direct == via else (FAIL, answer + " (routes disagree)")

    else:
        raise ValueError(kind)
    return Query(kind, run, check)


def build(ctx: Context, seed: int, seconds: float) -> List[List[Query]]:
    from crvar import varieties as va

    rng = random.Random(seed)
    schemas = {(b, P): va.apply_word(ctx.catalog[b], [P]) for b in SINGLE_OP_ROUTES for P in OPS}
    two_route = {
        m: [key for key, B in schemas.items() if within_caps(ctx.tables[m], B)] for m in MID
    }
    count = int(1.5 * seconds / ROUND_S) + 2
    rounds = []
    for _ in range(count):
        slots: Dict[str, object] = {}
        big, bad_big = rng.sample(BIG, 2)
        loads = []
        for slot, name in (("big", big), ("FB3", "FB3")) + tuple((m, m) for m in MID):
            S = relabeled(ctx.tables[name], rng)
            text = json.dumps(
                {"order": S.order, "op": S.op, "inv": S.inv, "name": S.name}, separators=(",", ":")
            )
            loads.append(load_query(text, slots, slot, S, None))
        for name, part in ((bad_big, "op"), ("FB3", "inv"), (rng.choice(MID), "op"), (rng.choice(MID), "inv")):
            text, message = corrupted(relabeled(ctx.tables[name], rng), rng, part)
            loads.append(load_query(text, slots, f"bad-{part}-{name}", None, message))
        rng.shuffle(loads)
        analyses = []
        # green and the congruences on the cheap mid-sized tables put about
        # as many queries below the commands' cost as there are above it, so
        # the round's median falls mid-cluster rather than at its edge
        for slot in ("big", "FB3") + MID:
            analyses.append(analysis_query("green", slots, slot))
            analyses += [analysis_query(k, slots, slot) for k in CONGRUENCES]
            analyses += [analysis_query("route", slots, slot, r) for r in OPS]
            pairs = [(a, b) for i, a in enumerate(OPS) for b in OPS[i + 1 :]]
            for pair in rng.sample(pairs, RELATE.get(slot, 1)):
                analyses.append(analysis_query("relate", slots, slot, pair))
            for key in rng.sample(two_route.get(slot, []), TWO_ROUTE.get(slot, 0)):
                analyses.append(analysis_query("two-route", slots, slot, key, ctx.catalog))
        rng.shuffle(analyses)
        fb2, ext = ctx.files["fb2.json"], ctx.files["ext.json"]
        # twice over, so that the round's median query is one of them
        commands = 2 * [
            cli_query(ctx, ["variety", "member", "catalog:B", fb2], 0),
            cli_query(ctx, ["semigroup", "freeband", "--generators", "2"], 0),
            cli_query(ctx, ["semigroup", "green", fb2], 0),
            cli_query(ctx, ["semigroup", "extend", fb2], 0),
            cli_query(ctx, ["semigroup", "congruence", "--kind", "L0", ext], 0),
            cli_query(ctx, ["semigroup", "quotient", "--kind", "tau", fb2], 0),
        ]
        rounds.append(loads + analyses + commands)
    return rounds
