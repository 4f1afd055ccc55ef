"""Self-test of the oracles: every planted wrong answer must count as failed.

    python3 perfbench/selftest.py

For each kind of check it takes a real query of seed 0, runs it, changes the
answer in one way a broken fast path could (a flipped verdict, a witness
that satisfies its identity, a zeta path with a non-step, a refuted pair
reported equivalent, a flipped lattice verdict, a changed loader message, a
congruence that does not refine its equivalence, a changed command output,
a wrong mirror image, a valid witness other than the first one)
and feeds the planted answer through the same loop the benchmark uses.
Every plant must fail its independent check without the answers recorded at
the seed commit, except the other valid witness, which only they can catch.
Exits 1 unless the real answers all pass and every planted one fails.
"""

from __future__ import annotations

import itertools
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import loop, wl_membership, wl_symbolic, wl_tables  # noqa: E402
from perfbench import reference as ref  # noqa: E402
from perfbench.common import build_context  # noqa: E402
from perfbench.loop import Query  # noqa: E402


def first(queries, kind, pred=lambda q, raw: True):
    for q in queries:
        if q.kind == kind:
            raw = q.run()
            if pred(q, raw):
                return q, raw
    raise LookupError(kind)


def satisfying(S, ident):
    names = sorted(ref.variables(ident.lhs) | ref.variables(ident.rhs))
    for values in itertools.product(range(S.order), repeat=len(names)):
        env = dict(zip(names, values))
        if ref.evaluate(S.op, S.inv, ident.lhs, env) == ref.evaluate(S.op, S.inv, ident.rhs, env):
            return env
    raise LookupError("no satisfying assignment")


def plants(ctx):
    from crvar import networks as nw
    from crvar import words as wd

    out = []
    pairs = wl_membership.load_universe()
    rng = random.Random(0)
    non = next(p for p in pairs if not p["member"])
    S = ctx.tables[non["table"]]
    q = wl_membership.member_query(ctx, S, non["spec"], False, rng)
    B, (ident, env) = q.run()
    out.append(("non-member reported member", q, (B, None)))
    out.append(("witness satisfies its identity", q, (B, (ident, satisfying(S, ident)))))
    later = dict(env)
    for name in sorted(later, reverse=True):  # a later failing assignment, if any
        for value in range(S.order):
            trial = dict(env, **{name: value})
            if trial != env and ref.evaluate(S.op, S.inv, ident.lhs, trial) != ref.evaluate(S.op, S.inv, ident.rhs, trial):
                later = trial
                break
        if later != env:
            break
    out.append(("another valid witness than the recorded first one", q, (B, (ident, later)), True))
    mem = next(p for p in pairs if p["member"])
    q = wl_membership.member_query(ctx, ctx.tables[mem["table"]], mem["spec"], True, rng)
    B, _ = q.run()
    bad = B.identities[0]
    names = ref.variables(bad.lhs) | ref.variables(bad.rhs)
    out.append(("member reported non-member", q, (B, (bad, dict.fromkeys(names, 0)))))

    tab = wl_tables.build(ctx, 0, 1.0)[0]
    for q in tab:
        if q.kind == "load":
            q.run()  # fill the round's slots
    q, (status, message) = first(tab, "load", lambda q, raw: raw[0] == "rejected")
    out.append(("changed loader message", q, (status, message.replace(" ", "  ", 1))))
    q, (status, S) = first(tab, "load", lambda q, raw: raw[0] == "loaded")
    out.append(("valid table rejected", q, ("rejected", "not associative: failing triple (0, 0, 0)")))
    q, (rho, Q) = first(tab, "route", lambda q, raw: len(set(raw[0])) > 1)
    out.append(("congruence coarsened to universal", q, ((0,) * len(rho), Q)))
    q, raw = first(tab, "two-route")
    out.append(("membership routes disagree", q, (raw[0], not raw[1])))
    q, (code, stdout, stderr) = first(tab, "cli")
    out.append(("changed command output", q, (code, stdout + " ", stderr)))

    sym = wl_symbolic.build(ctx, 0, 1.0)[0]
    q, (u, v, verdict) = first(
        sym, "zeta", lambda q, raw: not q.negative and hasattr(raw[2], "witness") and raw[2].steps >= 1
    )
    out.append(("zeta path with a non-step", q, (u, v, wd.ZetaEquivalent((u, wd.Var("zz"), v)))))
    q, (u, v, _) = first(sym, "zeta", lambda q, raw: q.negative)
    out.append(("refuted pair reported equivalent", q, (u, v, wd.ZetaEquivalent((u, v)))))
    q, raw = first(sym, "network", lambda q, raw: raw[1].ok)
    out.append(("lattice verdict flipped", q, (raw[0], nw.LatticeReport(False, ("lub", "a", "b", frozenset())),) + raw[2:]))
    q, raw = first(sym, "network", lambda q, raw: not raw[1].ok)
    out.append(("non-lattice reported lattice", q, (raw[0], nw.LatticeReport(True)) + raw[2:]))
    q, raw = first(sym, "word", lambda q, raw: raw[1] is None and ref.OPEN in raw[0])
    out.append(("mirror without the bracket swap", q, raw[:3] + (tuple(reversed(raw[0])),)))
    return out


def main() -> int:
    ctx = build_context(os.path.join(ROOT, ".perfbench_work"))
    ok = True
    for name, module in (("membership", wl_membership), ("tables", wl_tables), ("symbolic", wl_symbolic)):
        res = loop.run_loop(module.build(ctx, 0, 1.0)[:1], 0.0)
        print(f"real answers, {name}: {res.failed} of {res.attempted} failed")
        ok &= res.failed == 0
    planted = plants(ctx)
    for name, q, raw, *by_record in planted:
        # Each planted answer must fail its independent check alone, except
        # one that only the answers recorded at the seed commit can catch.
        golden = [loop.digest(q.check(q.run())[1])] if by_record else None
        res = loop.run_loop([[Query(q.kind, lambda raw=raw: raw, q.check, q.negative)]], 0.0, golden)
        counted = res.failed == 1
        ok &= counted
        print(f"{'counted' if counted else 'MISSED '} failed_frac {res.failed / res.attempted:.1f}: {name}")
    print("oracle self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
