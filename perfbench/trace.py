"""The traced run: spans around each layer's public functions.

Tracing rebinds module attributes for the duration of a run, so no file of
the program changes.  Calls that go through a module attribute or a module
global are seen, which makes nested calls (``member_witness`` -> ``holds``,
``L0`` -> ``largest_congruence_within``, ``cli.main`` -> anything) child
spans.  Spans are kept in memory and written out when the run ends.

Three counts are computed here rather than by the program: ``assignments``
(witness rank in ``itertools.product`` order plus one, or n^k when the
identity holds), ``triples`` (n^3 per accepted table) and ``pairs``
(n(n-1)/2 per passing lattice check).
"""

from __future__ import annotations

import importlib
import json
import os
import time
from typing import Dict, List

from . import reference as ref

# layer name -> (module, attribute) pairs wrapped as that layer
LAYERS: Dict[str, tuple] = {
    "semigroups.holds": (("semigroups", "holds"),),
    "varieties.member_witness": (("varieties", "member_witness"),),
    "varieties.apply_word": (("varieties", "apply_word"),),
    "varieties.member_via_quotient": (("varieties", "member_via_quotient"),),
    "semigroups.table_from_json": (("semigroups", "table_from_json"),),
    "semigroups.congruence": (
        ("semigroups", "largest_congruence_within"),
        ("semigroups", "tau"),
        ("semigroups", "L0"),
        ("semigroups", "R0"),
        ("semigroups", "H0"),
        ("varieties", "route_congruence"),
    ),
    "semigroups.green": (("semigroups", "green"),),
    "semigroups.quotient": (("semigroups", "quotient"),),
    "semigroups.relate": (("semigroups", "relate"),),
    "words.zeta_equivalent": (("words", "zeta_equivalent"),),
    "words.parse": (
        ("words", "word_from_text"),
        ("words", "parse_word"),
        ("words", "parse_text"),
        ("words", "first_violation"),
    ),
    "networks.generate": (
        ("networks", "gen_K_network"),
        ("networks", "gen_T_network"),
        ("networks", "gen_combined"),
        ("networks", "gen_ladder51"),
        ("networks", "gen_ladder61"),
    ),
    "networks.check_lattice": (("networks", "check_lattice"),),
    "networks.isomorphic": (
        ("networks", "isomorphic"),
        ("networks", "isomorphic_to_model"),
        ("networks", "mirror_network"),
        ("networks", "reference_ladder"),
    ),
    "networks.instantiate": (("networks", "instantiate"),),
    "networks.emit": (("networks", "emit_dot"), ("networks", "emit_json"), ("networks", "load_json")),
    "cli.main": (("cli", "main"),),
}

# what a span keeps of its call for the counts computed after the run
_KEEP = {
    "semigroups.holds": lambda a, out: (a[0], a[1], a[2], out),
    "semigroups.table_from_json": lambda a, out: out.order,
    "networks.check_lattice": lambda a, out: (len(a[0].nodes), out.ok),
    "networks.generate": lambda a, out: len(out.nodes),
    "words.zeta_equivalent": lambda a, out: hasattr(out, "witness"),
}

# span record fields
LAYER, START, END, PARENT, QID, INFO, ERROR = range(7)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = [-1]
        self.qid = -1
        self.active = False  # spans are recorded only while a query runs
        self._saved: List[tuple] = []

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                module = importlib.import_module(f"crvar.{module_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn, _KEEP.get(layer)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, layer: str, fn, keep):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [layer, 0.0, 0.0, stack[-1], tracer.qid, None, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[END] = clock()
                rec[ERROR] = True
                raise
            finally:
                stack.pop()
            rec[END] = clock()
            if keep is not None:
                rec[INFO] = keep(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def write(self, path: str) -> None:
        """One JSON line per span: layer, start, end, parent, query, error."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[LAYER], s[START], s[END], s[PARENT], s[QID], s[ERROR]]) + "\n")


def layer_metrics(spans: List[list], busy_total: float) -> Dict[str, float]:
    """Per-layer calls, busy time, self time, share of busy time and errors,
    plus the counts computed outside the program."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.busy_s"] = 0.0
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.errors"] = 0
    for i, s in enumerate(spans):
        layer = s[LAYER]
        dur = s[END] - s[START]
        out[f"{layer}.self_s"] += dur - child_time[i]
        out[f"{layer}.errors"] += s[ERROR]
        p = s[PARENT]
        while p >= 0 and spans[p][LAYER] != layer:
            p = spans[p][PARENT]
        if p < 0:  # outermost span of its layer: one call into the layer
            out[f"{layer}.calls"] += 1
            out[f"{layer}.busy_s"] += dur
    attributed = 0.0
    for layer in LAYERS:
        attributed += out[f"{layer}.self_s"]
        out[f"{layer}.share"] = out[f"{layer}.self_s"] / busy_total if busy_total else 0.0
    out["trace.unattributed_share"] = max(0.0, 1.0 - attributed / busy_total) if busy_total else 0.0

    assignments = 0
    seen_checks = set()
    repeats = 0
    checks = 0
    table_keys: Dict[int, tuple] = {}
    identities_checked = 0
    triples = 0
    pairs = 0
    nodes = 0
    zeta_calls = 0
    decided = 0
    for s in spans:
        layer, info = s[LAYER], s[INFO]
        if info is None:
            continue
        if layer == "semigroups.holds":
            S, lhs, rhs, witness = info
            names = sorted(ref.variables(lhs) | ref.variables(rhs))
            n = S.order
            if witness is None:
                assignments += n ** len(names)
            else:
                assignments += ref.assignment_rank(n, names, witness) + 1
            key = table_keys.get(id(S))
            if key is None:
                key = table_keys[id(S)] = (S.op, S.inv)
            check = (key, lhs, rhs)
            checks += 1
            if check in seen_checks:
                repeats += 1
            else:
                seen_checks.add(check)
            if s[PARENT] >= 0 and spans[s[PARENT]][LAYER] == "varieties.member_witness":
                identities_checked += 1
        elif layer == "semigroups.table_from_json":
            triples += info ** 3
        elif layer == "networks.check_lattice":
            n, ok = info
            if ok:
                pairs += n * (n - 1) // 2
        elif layer == "networks.generate":
            if s[PARENT] < 0 or spans[s[PARENT]][LAYER] != "networks.generate":
                nodes += info
        elif layer == "words.zeta_equivalent":
            zeta_calls += 1
            decided += info
    holds_busy = out["semigroups.holds.busy_s"]
    out["semigroups.holds.assignments"] = assignments
    out["semigroups.holds.assignments_per_s"] = assignments / holds_busy if holds_busy else 0.0
    out["varieties.member_witness.identities_checked"] = identities_checked
    out["varieties.repeat_share"] = repeats / checks if checks else 0.0
    out["semigroups.table_from_json.triples"] = triples
    out["networks.check_lattice.pairs"] = pairs
    out["networks.generate.nodes"] = nodes
    out["words.zeta_equivalent.decided_ratio"] = decided / zeta_calls if zeta_calls else 0.0
    return out


# -- growth curves ------------------------------------------------------------


def growth_curves(ctx) -> Dict[str, float]:
    """Single timed calls at fixed sizes, untraced: how each hot layer scales."""
    from crvar import networks as nw
    from crvar import semigroups as sg
    from crvar import words as wd

    clock = time.perf_counter
    out: Dict[str, float] = {}
    letters = "abcdef"
    # one-time costs of the first call would land on the smallest point;
    # warm up on an input that no timed point uses
    sg.holds(ctx.tables["LZ2"], wd.parse_text("a"), wd.parse_text("((a)^-1)^-1"))
    for n, S in ((4, ctx.tables["SL2xSL2"]), (6, ctx.tables["FB2"]), (8, ctx.tables["LRB8"])):
        for k in (2, 4, 6):
            # true in every completely regular table but not syntactically trivial
            lhs = wd.parse_text(letters[:k])
            rhs = wd.parse_text(letters[0] + "((" + letters[1] + ")^-1)^-1" + letters[2:k])
            t0 = clock()
            sg.holds(S, lhs, rhs)
            out[f"growth.holds.n{n}_k{k}_s"] = clock() - t0
    for n, S in ((36, ctx.tables["FB2xFB2"]), (159, ctx.tables["FB3"]), (318, ctx.tables["FB3xLZ2"])):
        text = sg.table_to_json(S)
        t0 = clock()
        sg.table_from_json(text)
        out[f"growth.table_from_json.n{n}_s"] = clock() - t0
    for depth in (4, 8, 12, 16):
        net = nw.gen_ladder51(depth)
        t0 = clock()
        nw.check_lattice(net)
        out[f"growth.check_lattice.d{depth}_s"] = clock() - t0
    u, v = wd.parse_text("xy"), wd.parse_text("yx")
    for budget in (5, 6, 7):
        t0 = clock()
        wd.zeta_equivalent(u, v, budget)
        out[f"growth.zeta_equivalent.b{budget}_s"] = clock() - t0
    return out
