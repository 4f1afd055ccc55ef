"""Workload ``membership``: variety membership at full size.

Each query builds its basis inside the timed span, either a catalog basis
under an operator word of length 0-2 or a node of the instantiated ladder of
Theorem 5.1 (V = S, Vl = LNB, Vr = RNB, depth 2), and asks
``member_witness`` of a battery table of order 5-8 (FB3 only with bases in
at most two variables).  Every round asks the same (table, basis) pairs,
listed in ``golden/membership_universe.json`` with their verdicts; the seed
renames the elements of every table once per round and orders the round.
Members enumerate every assignment, non-members stop at a witness, and bases
that share identities on one table make (table, identity) checks repeat.
"""

from __future__ import annotations

import json
import os
import random
from typing import List

from . import reference as ref
from .common import BINDINGS, HERE, Context, cli_query, relabeled
from .loop import FAIL, OK, Query

NAME = "membership"
ROUND_S = 2.1  # seed-commit time of one round, to size the query list
OPS = ("K", "T", "Tl", "Tr", "Kl", "Kr")
SINGLE_OP_ROUTES = ("S", "SG")
SAMPLES = 24  # random assignments per identity when checking a member verdict

# sizing caps on a query, checked statically when the universe is chosen
MAX_ASSIGNMENTS_PER_IDENTITY = 8**6
MAX_SYMBOL_ASSIGNMENTS = 4_000_000  # sum over identities of n^k * (symbols in lhs and rhs)


def universe_path() -> str:
    return os.path.join(HERE, "golden", "membership_universe.json")


def load_universe() -> List[dict]:
    with open(universe_path()) as fh:
        return json.load(fh)["pairs"]


def spec_text(spec: dict) -> str:
    if spec["kind"] == "ladder":
        return f"ladder5.1(2):{spec['node']}"
    return spec["name"] + ("^" + ".".join(spec["ops"]) if spec["ops"] else "")


def basis_builder(ctx: Context, spec: dict):
    """The timed construction of a basis from its spec."""
    from crvar import networks as nw
    from crvar import varieties as va

    if spec["kind"] == "ladder":
        bindings = {k: ctx.catalog[v] for k, v in BINDINGS.items()}
        node = spec["node"]

        def build():
            inst = nw.instantiate(nw.gen_ladder51(2), bindings)
            for n, B in inst.items():
                if nw.render_expr(n) == node:
                    return B
            raise KeyError(node)

        return build
    base, ops = ctx.catalog[spec["name"]], list(spec["ops"])
    return lambda: va.apply_word(base, ops)


def within_caps(S, B) -> bool:
    work = 0
    for ident in B.identities:
        k = len(ref.variables(ident.lhs) | ref.variables(ident.rhs))
        if S.order**k > MAX_ASSIGNMENTS_PER_IDENTITY:
            return False
        work += S.order**k * (len(ref.render(ident.lhs)) + len(ref.render(ident.rhs)))
    return work <= MAX_SYMBOL_ASSIGNMENTS


def member_query(ctx: Context, S, spec: dict, expected_member: bool, rng: random.Random) -> Query:
    from crvar import varieties as va

    build = basis_builder(ctx, spec)
    sample_seed = rng.getrandbits(32)

    def run():
        B = build()
        return B, va.member_witness(S, B)

    def check(raw):
        B, witness = raw
        if witness is None:
            text = f"{S.name} in {spec_text(spec)}: member"
            if not expected_member:
                return FAIL, text + " (recorded verdict: non-member)"
            srng = random.Random(sample_seed)
            for ident in B.identities:
                names = sorted(ref.variables(ident.lhs) | ref.variables(ident.rhs))
                for _ in range(SAMPLES):
                    env = {x: srng.randrange(S.order) for x in names}
                    if ref.evaluate(S.op, S.inv, ident.lhs, env) != ref.evaluate(S.op, S.inv, ident.rhs, env):
                        return FAIL, text + f" but {ident} fails under {env}"
        else:
            ident, env = witness
            text = f"{S.name} in {spec_text(spec)}: false: {ident} fails under {env}"
            if expected_member:
                return FAIL, text + " (recorded verdict: member)"
            if ident not in B.identities:
                return FAIL, text + " (identity not in the basis)"
            names = ref.variables(ident.lhs) | ref.variables(ident.rhs)
            if set(env) != names:
                return FAIL, text + " (assignment does not bind exactly the identity's variables)"
            if ref.evaluate(S.op, S.inv, ident.lhs, env) == ref.evaluate(S.op, S.inv, ident.rhs, env):
                return FAIL, text + " (witness satisfies its identity)"
        if spec["kind"] == "catalog" and spec["name"] in SINGLE_OP_ROUTES and len(spec["ops"]) == 1:
            via = va.member_via_quotient(S, ctx.catalog[spec["name"]], spec["ops"][0])
            if via != (witness is None):
                return FAIL, text + f" (quotient route says member={via})"
        return OK, text

    return Query("member", run, check, negative=not expected_member)


def build(ctx: Context, seed: int, seconds: float) -> List[List[Query]]:
    rng = random.Random(seed)
    universe = load_universe()
    count = int(1.5 * seconds / ROUND_S) + 2
    rounds = []
    for _ in range(count):
        copies = {}
        queries = []
        for pair in universe:
            name = pair["table"]
            if name not in copies:
                copies[name] = relabeled(ctx.tables[name], rng)
            queries.append(member_query(ctx, copies[name], pair["spec"], pair["member"], rng))
        rng.shuffle(queries)
        queries.append(cli_query(ctx, ["variety", "dual", "catalog:LZ"], 0))
        queries.append(cli_query(ctx, ["variety", "apply", "--ops", "Kl", "catalog:SG"], 0))
        rounds.append(queries)
    return rounds
