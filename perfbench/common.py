"""Set-up shared by the workloads: the tables every workload may touch, the
table files the command-line queries read, and the command-line query."""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Dict, List

from . import reference as ref
from .loop import FAIL, OK, Query, digest

HERE = os.path.dirname(os.path.abspath(__file__))
# catalog bases bound to the parameters of the Theorem 5.1 ladder
BINDINGS = {"V": "S", "Vl": "LNB", "Vr": "RNB"}


@dataclass
class Context:
    tables: Dict[str, object]
    catalog: Dict[str, object]
    workdir: str
    files: Dict[str, str] = field(default_factory=dict)
    invariants: Dict[str, dict] = field(default_factory=dict)


def load_invariants() -> Dict[str, dict]:
    """Answers that do not depend on the seed, recorded at the seed commit."""
    path = os.path.join(HERE, "golden", "invariants.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def build_context(workdir: str) -> Context:
    from crvar import semigroups as sg
    from crvar import varieties as va
    from crvar.battery import battery, left_zero, rectangular_band, right_zero

    tables = dict(battery())
    fb2, fb3 = tables["FB2"], sg.free_band(3)
    tables["FB3"] = fb3
    for S in (
        sg.direct_product(fb3, left_zero(2)),
        sg.direct_product(fb3, right_zero(2)),
        sg.direct_product(fb2, fb2),
        sg.direct_product(tables["LRB8"], rectangular_band(2, 3)),
        sg.right_zero_extension(fb2),
        sg.right_zero_extension(fb3),
    ):
        tables[S.name] = S
    os.makedirs(workdir, exist_ok=True)
    files = {}
    for name, S in (("fb2.json", fb2), ("ext.json", tables["rzx(FB2)"])):
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            fh.write(sg.table_to_json(S))
        files[name] = path
    return Context(tables, va.catalog(), workdir, files, load_invariants())


def relabeled(S, rng: random.Random):
    """An isomorphic copy of S with its elements renamed at random."""
    from crvar import semigroups as sg

    perm = list(range(S.order))
    rng.shuffle(perm)
    op, inv = ref.relabel(S.op, S.inv, perm)
    return sg.table(op, inv, S.name)


def cli_query(ctx: Context, argv: List[str], expected_code: int) -> Query:
    """A README command run in-process through ``cli.main`` with output captured.

    Its output must match the one recorded at the seed commit for any seed.
    """
    from crvar import cli

    shown = " ".join(os.path.basename(a) if a.startswith(ctx.workdir) else a for a in argv)
    recorded = ctx.invariants.get("cli", {}).get(shown)

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(raw):
        code, out, err = raw
        text = f"$ crvar {shown}\nexit {code}\n{out}{err}"
        if code != expected_code:
            return FAIL, f"exit code {code}, expected {expected_code}: " + text
        if recorded is not None and digest(text) != recorded:
            return FAIL, "output differs from the one recorded at the seed commit: " + text
        return OK, text

    return Query("cli", run, check)
