"""Record, at the seed commit, the data the oracles compare against.

    python3 perfbench/record.py universe          # membership (table, basis) pairs
    python3 perfbench/record.py invariants        # README command outputs
    python3 perfbench/record.py golden membership,tables,symbolic 0 1 2 ...
    python3 perfbench/record.py baseline          # shares and traced layers

``universe`` chooses the pairs every membership round asks, within the sizing
caps, and stores each verdict; verdicts do not change when a table's
elements are renamed, so they hold for every seed.  ``golden`` runs each
workload's query list for the benchmark's run length and stores a digest of
every answer, so a later commit must give byte-identical answers (first
counterexample, violation text, zeta path) for these seeds.  ``baseline``
records the measured input shares and traced layer shares in
``baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import loop, wl_membership, wl_symbolic, wl_tables  # noqa: E402
from perfbench.common import BINDINGS, HERE, build_context  # noqa: E402

WORKDIR = os.path.join(ROOT, ".perfbench_work")
MEMBER_TABLES = ("RB23", "FB2", "dual(FB2)", "rzx(SL2)", "LRB8", "dual(LRB8)")
# per round: catalog members up to this much seed-commit time, and counts
MEMBER_BUDGET_S = 1.2
QUOTAS = {"member": 16, "non-member": 20, "ladder": 6, "FB3": 3, "median-band": 10}
# catalog members of this seed-commit cost fill the middle of the latency
# distribution, so the median query is one of a cluster of similar ones
BAND_S = (0.001, 0.004)


def _write(name: str, payload) -> None:
    path = os.path.join(HERE, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def universe() -> None:
    from crvar import networks as nw
    from crvar import varieties as va

    ctx = build_context(WORKDIR)
    words = [()] + [(a,) for a in wl_membership.OPS] + [(a, b) for a in wl_membership.OPS for b in wl_membership.OPS]
    specs = []
    for name, B in ctx.catalog.items():
        for w in words if B.content_balanced else [()]:
            specs.append({"kind": "catalog", "name": name, "ops": list(w)})
    bindings = {k: ctx.catalog[v] for k, v in BINDINGS.items()}
    for n, B in nw.instantiate(nw.gen_ladder51(2), bindings).items():
        if B is not None:
            specs.append({"kind": "ladder", "node": nw.render_expr(n)})
    cands = []
    for table in MEMBER_TABLES + ("FB3",):
        S = ctx.tables[table]
        for spec in specs:
            B = wl_membership.basis_builder(ctx, spec)()
            if table == "FB3" and len(B.variables()) > 2:
                continue
            if wl_membership.within_caps(S, B):
                cands.append((table, spec, B))
    random.Random(2020).shuffle(cands)
    chosen, spent = [], 0.0
    counts = dict.fromkeys(QUOTAS, 0)
    for table, spec, B in cands:
        category = "FB3" if table == "FB3" else "ladder" if spec["kind"] == "ladder" else None
        if category is not None and counts[category] >= QUOTAS[category]:
            continue
        if category is None and all(counts[k] >= QUOTAS[k] for k in ("member", "non-member", "median-band")):
            continue
        t0 = time.perf_counter()
        member = va.member_witness(ctx.tables[table], B) is None
        dt = time.perf_counter() - t0
        if category is None:
            category = "member" if member else "non-member"
            if member and BAND_S[0] <= dt <= BAND_S[1] and counts["median-band"] < QUOTAS["median-band"]:
                category = "median-band"
            elif counts[category] >= QUOTAS[category] or (member and spent + dt > MEMBER_BUDGET_S):
                continue
            else:
                spent += dt if member else 0.0
        counts[category] += 1
        chosen.append({"table": table, "spec": spec, "member": member, "seed_commit_ms": round(dt * 1e3, 3)})
        if all(counts[k] >= QUOTAS[k] for k in QUOTAS):
            break
    _write("golden/membership_universe.json", {"candidates": len(cands), "counts": counts, "pairs": chosen})
    print(f"{len(chosen)} pairs from {len(cands)} candidates: {counts}")


def invariants() -> None:
    ctx = build_context(WORKDIR)
    ctx.invariants = {}
    recorded = {}
    for module in (wl_membership, wl_tables, wl_symbolic):
        for q in module.build(ctx, 0, 1.0)[0]:
            if q.kind != "cli":
                continue
            status, text = q.check(q.run())
            if status != loop.OK:
                raise SystemExit(text)
            recorded[text.split("\n", 1)[0][len("$ crvar "):]] = loop.digest(text)
    _write("golden/invariants.json", {"cli": recorded})
    print(f"{len(recorded)} command outputs recorded")


def golden(names, seeds) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    for module in (wl_membership, wl_tables, wl_symbolic):
        if module.NAME not in names:
            continue
        path = loop.golden_path(module.NAME)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            payload = {"seeds": {}}
        for seed in seeds:
            ctx = build_context(WORKDIR)
            res = loop.run_loop(module.build(ctx, seed, seconds), seconds, keep_texts=True)
            if res.failed:
                raise SystemExit(f"{module.NAME} seed {seed}: {res.failures}")
            payload["seeds"][str(seed)] = [loop.digest(t) for t in res.texts]
            print(f"{module.NAME} seed {seed}: {len(res.texts)} answers")
        _write(os.path.join("golden", os.path.basename(path)), payload)


def baseline() -> None:
    """Measured input properties and traced layer shares of each workload,
    with the machine they were measured on."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    ctx = build_context(WORKDIR)
    out = {
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, {platform.platform()}",
        "python": platform.python_version(),
        "seed": 0,
        "workloads": {},
    }
    for module in (wl_membership, wl_tables, wl_symbolic):
        queries = module.build(ctx, 0, seconds)[0]
        kinds: dict = {}
        for q in queries:
            k = kinds.setdefault(q.kind, [0, 0])
            k[0] += 1
            k[1] += q.negative
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", module.NAME,
             "--seed", "0", "--seconds", str(seconds), "--trace", "1"],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
        traced = json.loads(proc.stdout.strip().splitlines()[-1])
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][module.NAME] = {
            "queries_per_round": len(queries),
            "negative_share_by_kind": {k: f"{neg}/{n}" for k, (n, neg) in sorted(kinds.items())},
            "layer_self_time_share": {
                k[: -len(".share")]: round(v, 4) for k, v in m.items() if k.endswith(".share") and v > 0.0005
            },
            "repeat_share": round(m["varieties.repeat_share"], 4),
            "zeta_decided_ratio": round(m["words.zeta_equivalent.decided_ratio"], 4),
            "trace_overhead": round(m["trace.overhead"], 4),
            "correct": traced["correct"],
        }
        print(module.NAME, out["workloads"][module.NAME])
    _write("baseline.json", out)


if __name__ == "__main__":
    what = sys.argv[1]
    if what == "universe":
        universe()
    elif what == "invariants":
        invariants()
    elif what == "baseline":
        baseline()
    elif what == "golden":
        names = sys.argv[2].split(",")
        golden(names, [int(s) for s in sys.argv[3:]])
    else:
        raise SystemExit(__doc__)
