"""The closed loop: one caller, one thread, the next query when the last returns.

A workload is a list of rounds fixed by the seed before timing starts.  Every
round has the same composition, so a run that stops at a round boundary
measures the same mix whatever the seed.  Oracles run between rounds, outside
the timed spans, and their time is not counted in the loop's wall time.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

OK, FAIL, UNKNOWN = "ok", "fail", "unknown"

# Speed of the machine, measured between queries.  The speed of this kind of
# shared machine drifts by up to half over minutes, for every program alike
# (CPU time drifts with wall time), so the runner scales its figures by how
# long a fixed interpreter-bound loop takes next to them.  CAL_REF_S is the
# loop's typical time on the machine the baselines were recorded on.
CAL_REF_S = 0.002
CAL_EVERY = 5  # queries between two calibration loops
_CAL_TABLE = [[(a * 17 + b * 5 + 1) % 64 for b in range(64)] for a in range(64)]


def calibration_s() -> float:
    """Time of one fixed loop of table lookups, like the program's own."""
    op, acc = _CAL_TABLE, 0
    t0 = time.perf_counter()
    for i in range(30000):
        acc = op[op[acc][i & 63]][(i * 7) & 63]
    return time.perf_counter() - t0


@dataclass
class Query:
    """One user-level question.

    ``run`` is the timed call into the program and returns its raw answer.
    ``check`` runs untimed and returns (status, text): status is OK, FAIL or
    UNKNOWN (a bounded search gave up), text is the canonical answer whose
    digest is compared with the answer recorded at the seed commit.
    ``negative`` marks planted non-members, corrupted inputs, refuted pairs
    and non-lattices.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    negative: bool = False


@dataclass
class LoopResult:
    round_latencies: List[List[float]] = field(default_factory=list)  # traced passes only
    round_calibration: List[float] = field(default_factory=list)  # mean per untraced round
    wall_s: float = 0.0
    plain_wall_s: float = 0.0
    round_overhead: List[float] = field(default_factory=list)  # traced / untraced time - 1, per round
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    unknown: int = 0
    negatives: int = 0
    failures: List[str] = field(default_factory=list)
    texts: List[str] = field(default_factory=list)
    kinds: Dict[str, int] = field(default_factory=dict)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def golden_path(workload: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", f"{workload}.json")


def load_golden(workload: str, seed: int) -> List[str]:
    try:
        with open(golden_path(workload)) as fh:
            return json.load(fh)["seeds"].get(str(seed), [])
    except FileNotFoundError:
        return []


def run_loop(
    rounds: List[List[Query]],
    seconds: float,
    golden: Optional[List[str]] = None,
    keep_texts: bool = False,
    tracer=None,
) -> LoopResult:
    """Run whole rounds, at least one, until ``seconds`` of loop time have passed.

    With a ``tracer`` every round runs twice, traced and untraced in
    alternating order, so that ``wall_s`` (traced) and ``plain_wall_s``
    cover the same queries and together fill ``seconds``; spans are recorded
    only while traced queries run, each tagged with the query's index.
    Rounds are reused from the start when the list runs out.
    """
    golden = golden or []
    res = LoopResult()
    clock = time.perf_counter
    base = 0  # index of the round's first query in the seed's query list
    while res.rounds == 0 or res.wall_s + res.plain_wall_s < seconds:
        queries = rounds[res.rounds % len(rounds)]
        passes = [True] if tracer is None else [res.rounds % 2 == 0, res.rounds % 2 == 1]
        runs, pass_s = [], {}
        for traced in passes:
            raws, latencies, calibration = [], [], []
            if tracer is not None:
                tracer.active = traced
            round_start = clock()
            for i, q in enumerate(queries):
                if tracer is not None:
                    tracer.qid = base + i
                elif i % CAL_EVERY == 0:
                    calibration.append(calibration_s())
                t0 = clock()
                try:
                    raw, exc = q.run(), None
                except Exception as e:  # any escape is a failed query, reported below
                    raw, exc = None, e
                latencies.append(clock() - t0)
                raws.append((raw, exc))
            pass_s[traced] = clock() - round_start
            if traced:
                res.wall_s += pass_s[traced]
                res.round_latencies.append(latencies)
                if calibration:
                    res.round_calibration.append(sum(calibration) / len(calibration))
            else:
                res.plain_wall_s += pass_s[traced]
            runs.append(raws)
        res.rounds += 1
        if tracer is not None:
            tracer.active = False
            res.round_overhead.append(pass_s[True] / pass_s[False] - 1.0)
        for raws in runs:
            for i, (q, (raw, exc)) in enumerate(zip(queries, raws)):
                _record(res, q, base + i, raw, exc, golden, keep_texts)
        base += len(queries)
    return res


def _record(res: LoopResult, q: Query, index: int, raw, exc, golden, keep_texts: bool) -> None:
    if exc is not None:
        status, text = FAIL, f"raised {type(exc).__name__}: {exc}"
    else:
        try:
            status, text = q.check(raw)
        except Exception as e:  # a check that cannot read the answer fails it
            status, text = FAIL, f"answer unreadable ({type(e).__name__}: {e})"
    if status != FAIL and index < len(golden) and digest(text) != golden[index]:
        status = FAIL
        text = "differs from the answer recorded at the seed commit: " + text
    if status == FAIL:
        res.failed += 1
        if len(res.failures) < 20:
            res.failures.append(f"query {index} ({q.kind}): {text[:300]}")
    elif status == UNKNOWN:
        res.unknown += 1
    res.attempted += 1
    res.negatives += q.negative
    res.kinds[q.kind] = res.kinds.get(q.kind, 0) + 1
    if keep_texts:
        res.texts.append(text)
