"""Finite unary semigroups as Cayley tables.

A table is a square multiplication matrix plus an inversion vector, all
0-based.  Equivalence relations on the carrier are stored as block-id
vectors normalized by first occurrence.  Everything here is exhaustive and
oracle-grade: associativity, the complete-regularity axioms, Green's
relations, congruence refinement, kernels and traces, quotients, and the
finite constructions used by the variety machinery (free bands and the
right-zero extension).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from .words import Inv, Term, Var, content


class TableError(ValueError):
    pass


class NotAnIdealError(TableError):
    pass


class NonCongruenceError(TableError):
    pass


class NoLeastDClassError(TableError):
    pass


class UnboundVariableError(KeyError):
    pass


@dataclass(frozen=True)
class UnaryCayleyTable:
    op: tuple  # n rows, each a tuple of n element indices
    inv: tuple  # length-n vector
    name: str = field(default="", compare=False)
    # results of ``green`` and ``largest_congruence_within``, which depend on
    # op and inv only; a table never changes, so they stay valid
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.op)

    def __post_init__(self):
        n = len(self.op)
        if len(self.inv) != n or any(len(row) != n for row in self.op):
            raise TableError("table shape mismatch")
        for row in self.op:
            for x in row:
                if type(x) is not int:
                    raise TableError(f"entry {x!r} is not an integer")
                if not 0 <= x < n:
                    raise TableError(f"index {x} out of range")
        for x in self.inv:
            if type(x) is not int:
                raise TableError(f"inverse entry {x!r} is not an integer")
            if not 0 <= x < n:
                raise TableError(f"inverse index {x} out of range")


def table(op: Sequence[Sequence[int]], inv: Sequence[int], name: str = "") -> UnaryCayleyTable:
    return UnaryCayleyTable(tuple(tuple(row) for row in op), tuple(inv), name)


# ---------------------------------------------------------------------------
# axioms


def _magma_generators(S: UnaryCayleyTable) -> List[int]:
    """A set G whose left-normed products ``(..((g1 g2) g3)..) gk`` cover S.

    Greedy: candidates are taken by descending count of distinct entries in
    their row and column, and one joins G when the closure of G under right
    multiplication by G does not reach it yet.  The closure needs no
    associativity, so G generates S as a magma even when the table is not a
    semigroup.
    """
    op = S.op
    n = S.order
    reach = [len(set(row)) + len(set(col)) for row, col in zip(op, zip(*op))]
    gens: List[int] = []
    covered = [False] * n
    closure: List[int] = []
    for a in sorted(range(n), key=lambda a: -reach[a]):
        if covered[a]:
            continue
        gens.append(a)
        frontier = [a] + [op[x][a] for x in closure]
        while frontier:
            x = frontier.pop()
            if not covered[x]:
                covered[x] = True
                closure.append(x)
                row = op[x]
                frontier += [row[g] for g in gens]
        if len(closure) == n:
            break
    return gens


def _passes_light_test(S: UnaryCayleyTable) -> bool:
    """Light's test (Clifford & Preston I, section 1.2): the table is
    associative iff (xg)y = x(gy) for every g in a magma generating set G and
    all x, y.  This costs O(n^2 |G|) instead of O(n^3)."""
    op = S.op
    # order < 2 is associative; itemgetter needs two indices to return a tuple
    if len(op) < 2:
        return True
    for g in _magma_generators(S):
        compose = itemgetter(*op[g])  # row of x -> row of x(g-)
        if any(op[row_x[g]] != compose(row_x) for row_x in op):
            return False
    return True


def first_nonassociative_triple(S: UnaryCayleyTable) -> Optional[tuple]:
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc).

    The O(n^3) scan that names it runs only after Light's test has failed.
    """
    if _passes_light_test(S):
        return None
    op = S.op
    rng = range(S.order)
    for a in rng:
        for b in rng:
            ab = op[a][b]
            row_a = op[a]
            row_ab = op[ab]
            for c in rng:
                if row_ab[c] != row_a[op[b][c]]:
                    return (a, b, c)
    return None


def is_associative(S: UnaryCayleyTable) -> bool:
    return first_nonassociative_triple(S) is None


def first_cr_failure(S: UnaryCayleyTable) -> Optional[tuple]:
    """First element violating a = a a^-1 a, (a^-1)^-1 = a or a a^-1 = a^-1 a."""
    op, inv = S.op, S.inv
    for a in range(S.order):
        ai = inv[a]
        if op[op[a][ai]][a] != a:
            return ("a a^-1 a = a", a)
        if inv[ai] != a:
            return ("(a^-1)^-1 = a", a)
        if op[a][ai] != op[ai][a]:
            return ("a a^-1 = a^-1 a", a)
    return None


def is_completely_regular(S: UnaryCayleyTable) -> bool:
    return first_cr_failure(S) is None


def idempotents(S: UnaryCayleyTable) -> tuple:
    return tuple(a for a in range(S.order) if S.op[a][a] == a)


# ---------------------------------------------------------------------------
# evaluation and identity checking


def evaluate(S: UnaryCayleyTable, term: Term, assignment: Dict[str, int]) -> int:
    if isinstance(term, Var):
        try:
            return assignment[term.name]
        except KeyError:
            raise UnboundVariableError(term.name) from None
    if isinstance(term, Inv):
        return S.inv[evaluate(S, term.body, assignment)]
    op = S.op
    acc = evaluate(S, term.factors[0], assignment)
    for f in term.factors[1:]:
        acc = op[acc][evaluate(S, f, assignment)]
    return acc


# How many compiled checkers are cached; a fixed bound keeps memory flat however
# many distinct identities a session checks.
_CHECKER_CACHE_SIZE = 1024

# CPython allows 20 statically nested blocks.  Past this many variables the
# outermost ones share a single ``product`` loop.
_MAX_LOOPS = 18


@lru_cache(maxsize=_CHECKER_CACHE_SIZE)
def compile_identity(lhs: Term, rhs: Term) -> Callable:
    """Compile lhs = rhs into a function ``check(op, inv, R)``.

    ``check`` runs one loop over ``R`` per variable, sorted names first
    outermost, which is the order of ``itertools.product(R, repeat=k)``; it
    returns the value tuple of the first assignment where the two sides
    differ, or None.  Every subterm and every prefix of a product is computed
    once, in the loop of its deepest variable, and a repeated subterm shares
    one temporary.  The source holds slot numbers only, never a variable name.
    """
    names = sorted(content(lhs) | content(rhs))
    slot = {x: i for i, x in enumerate(names)}
    fused = max(0, len(names) - _MAX_LOOPS)  # extra variables in loop 0
    body: List[list] = [[] for _ in range(len(names) - fused)]
    memo: Dict[tuple, tuple] = {}  # structural key -> (temporary, loop)

    def define(key: tuple, level: int, expr: str) -> tuple:
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = (f"t{len(memo)}", level)
            body[level].append(f"{hit[0]} = {expr}")
        return hit

    def value(term: Term) -> tuple:
        if isinstance(term, Var):
            i = slot[term.name]
            return f"v{i}", max(0, i - fused)
        if isinstance(term, Inv):
            a, level = value(term.body)
            return define(("i", a), level, f"inv[{a}]")
        acc, level = value(term.factors[0])
        for f in term.factors[1:]:
            b, deeper = value(f)
            if deeper > level:
                # the row of the prefix is loop-invariant in the inner loops
                row, _ = define(("r", acc), level, f"op[{acc}]")
                acc, level = define(("m", acc, b), deeper, f"{row}[{b}]")
            else:
                acc, level = define(("m", acc, b), level, f"op[{acc}][{b}]")
        return acc, level

    left, _ = value(lhs)
    right, _ = value(rhs)
    lines = ["def check(op, inv, R):"]
    indent = "    "
    for level, stmts in enumerate(body):
        if level == 0 and fused:
            bound = ", ".join(f"v{i}" for i in range(fused + 1))
            lines.append(f"{indent}for {bound} in product(R, repeat={fused + 1}):")
        else:
            lines.append(f"{indent}for v{level + fused} in R:")
        indent += "    "
        lines += [indent + s for s in stmts]
    values = ", ".join(f"v{i}" for i in range(len(names)))
    lines += [f"{indent}if {left} != {right}:", f"{indent}    return ({values},)", "    return None"]
    source = "\n".join(lines) + "\n"
    namespace: dict = {"product": product}
    exec(compile(source, "<identity>", "exec"), namespace)
    check = namespace["check"]
    check.source = source
    return check


def holds(S: UnaryCayleyTable, lhs: Term, rhs: Term) -> Optional[Dict[str, int]]:
    """None if lhs = rhs holds under every assignment, else the first
    counter-assignment in ``itertools.product`` order over the sorted variables."""
    if lhs == rhs:
        return None
    bad = compile_identity(lhs, rhs)(S.op, S.inv, range(S.order))
    if bad is None:
        return None
    return dict(zip(sorted(content(lhs) | content(rhs)), bad))


# ---------------------------------------------------------------------------
# duality


def dual(S: UnaryCayleyTable) -> UnaryCayleyTable:
    n = S.order
    op = tuple(tuple(S.op[b][a] for b in range(n)) for a in range(n))
    name = S.name[5:-1] if S.name.startswith("dual(") and S.name.endswith(")") else (
        f"dual({S.name})" if S.name else ""
    )
    return UnaryCayleyTable(op, S.inv, name)


# ---------------------------------------------------------------------------
# partitions

Partition = tuple  # block id per element, normalized by first occurrence


def normalize_partition(assign: Sequence[int]) -> Partition:
    seen: Dict[int, int] = {}
    out = []
    for b in assign:
        if b not in seen:
            seen[b] = len(seen)
        out.append(seen[b])
    return tuple(out)


def identity_partition(n: int) -> Partition:
    return tuple(range(n))


def universal_partition(n: int) -> Partition:
    return (0,) * n


def blocks(p: Partition) -> tuple:
    out: Dict[int, list] = {}
    for i, b in enumerate(p):
        out.setdefault(b, []).append(i)
    return tuple(tuple(v) for _, v in sorted(out.items()))


def partition_from_blocks(n: int, blks: Iterable[Iterable[int]]) -> Partition:
    assign = [-1] * n
    for b, blk in enumerate(blks):
        for i in blk:
            assign[i] = b
    if -1 in assign:
        raise ValueError("blocks do not cover the carrier")
    return normalize_partition(assign)


def partition_meet(p: Partition, q: Partition) -> Partition:
    ids: Dict[tuple, int] = {}
    return normalize_partition([ids.setdefault((a, b), len(ids)) for a, b in zip(p, q)])


def partition_join(p: Partition, q: Partition) -> Partition:
    parent = list(range(len(p)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for rel in (p, q):
        first: Dict[int, int] = {}
        for i, b in enumerate(rel):
            if b in first:
                union(i, first[b])
            else:
                first[b] = i
    return normalize_partition([find(i) for i in range(len(p))])


def refines(p: Partition, q: Partition) -> bool:
    """True iff every p-block lies inside a q-block."""
    rep: Dict[int, int] = {}
    for i, b in enumerate(p):
        if b in rep:
            if q[rep[b]] != q[i]:
                return False
        else:
            rep[b] = i
    return True


def all_partitions(n: int) -> Iterator[Partition]:
    """Every partition of range(n), in restricted-growth order."""

    def grow(prefix: list, used: int) -> Iterator[Partition]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(used + 1):
            prefix.append(b)
            yield from grow(prefix, max(used, b + 1))
            prefix.pop()

    yield from grow([], 0)


def describe_partition(p: Partition) -> str:
    k = len(set(p))
    if k == len(p):
        return "identity"
    if k == 1:
        return "universal"
    return " ".join("{" + ",".join(map(str, blk)) + "}" for blk in blocks(p))


# ---------------------------------------------------------------------------
# congruences


def is_congruence(S: UnaryCayleyTable, p: Partition) -> bool:
    n = S.order
    op, inv = S.op, S.inv
    rep: Dict[int, int] = {}
    for a in range(n):
        b = rep.setdefault(p[a], a)
        if b == a:
            continue
        if p[inv[a]] != p[inv[b]]:
            return False
        for c in range(n):
            if p[op[c][a]] != p[op[c][b]] or p[op[a][c]] != p[op[b][c]]:
                return False
    return True


def largest_congruence_within(S: UnaryCayleyTable, theta: Partition) -> Partition:
    """The maximum congruence contained in the equivalence ``theta``.

    Iterated signature refinement: split blocks until left and right
    translations and inversion are all compatible.
    """
    p = normalize_partition(theta)
    key = ("congruence", p)
    hit = S._memo.get(key)
    if hit is not None:
        return hit
    op, inv = S.op, S.inv
    while True:
        block = p.__getitem__
        rows = [tuple(map(block, row)) for row in op]  # p[ac] for each a, c
        # each element's block, its inverse's block, its column and its row
        sig = zip(p, map(block, inv), zip(*rows), rows)
        ids: Dict[tuple, int] = {}
        q = normalize_partition([ids.setdefault(s, len(ids)) for s in sig])
        if q == p:
            S._memo[key] = p
            return p
        p = q


def all_congruences(S: UnaryCayleyTable) -> List[Partition]:
    return [p for p in all_partitions(S.order) if is_congruence(S, p)]


# ---------------------------------------------------------------------------
# Green's relations


@dataclass(frozen=True)
class GreenRelations:
    L: Partition
    R: Partition
    H: Partition
    D: Partition


def green(S: UnaryCayleyTable) -> GreenRelations:
    hit = S._memo.get("green")
    if hit is not None:
        return hit
    n = S.order
    op = S.op
    left_ideals = []
    right_ideals = []
    for a in range(n):
        left_ideals.append(frozenset([a] + [op[x][a] for x in range(n)]))
        right_ideals.append(frozenset([a] + [op[a][x] for x in range(n)]))
    L = _partition_by(left_ideals)
    R = _partition_by(right_ideals)
    g = S._memo["green"] = GreenRelations(L, R, partition_meet(L, R), partition_join(L, R))
    return g


def _partition_by(keys: Sequence) -> Partition:
    ids: Dict = {}
    return normalize_partition([ids.setdefault(k, len(ids)) for k in keys])


def L0(S: UnaryCayleyTable) -> Partition:
    return largest_congruence_within(S, green(S).L)


def R0(S: UnaryCayleyTable) -> Partition:
    return largest_congruence_within(S, green(S).R)


def H0(S: UnaryCayleyTable) -> Partition:
    return largest_congruence_within(S, green(S).H)


def tau(S: UnaryCayleyTable) -> Partition:
    """Largest idempotent-pure congruence: refine {E, S minus E}."""
    E = set(idempotents(S))
    theta = normalize_partition([0 if a in E else 1 for a in range(S.order)])
    return largest_congruence_within(S, theta)


# ---------------------------------------------------------------------------
# kernel and traces


@dataclass(frozen=True)
class KernelTrace:
    ker: frozenset
    tr: frozenset  # partition of E(S) as a frozenset of frozensets
    ltr: frozenset
    rtr: frozenset


def _restrict(p: Partition, subset: Iterable[int]) -> frozenset:
    out: Dict[int, set] = {}
    for a in subset:
        out.setdefault(p[a], set()).add(a)
    return frozenset(frozenset(v) for v in out.values())


def kernel_trace(S: UnaryCayleyTable, rho: Partition) -> KernelTrace:
    E = idempotents(S)
    eblocks = {rho[e] for e in E}
    ker = frozenset(a for a in range(S.order) if rho[a] in eblocks)
    g = green(S)
    ltr = _restrict(largest_congruence_within(S, partition_join(rho, g.L)), E)
    rtr = _restrict(largest_congruence_within(S, partition_join(rho, g.R)), E)
    return KernelTrace(ker, _restrict(rho, E), ltr, rtr)


def relate(S: UnaryCayleyTable, rho: Partition, lam: Partition) -> frozenset:
    """Flags from {K, Tl, Tr, T, Kl, Kr} relating two congruences."""
    a = kernel_trace(S, rho)
    b = kernel_trace(S, lam)
    flags = set()
    if a.ker == b.ker:
        flags.add("K")
    if a.ltr == b.ltr:
        flags.add("Tl")
    if a.rtr == b.rtr:
        flags.add("Tr")
    if "Tl" in flags and "Tr" in flags:
        flags.add("T")
    if "K" in flags and "Tl" in flags:
        flags.add("Kl")
    if "K" in flags and "Tr" in flags:
        flags.add("Kr")
    return frozenset(flags)


# ---------------------------------------------------------------------------
# quotients


def quotient(S: UnaryCayleyTable, rho: Partition) -> UnaryCayleyTable:
    if not is_congruence(S, rho):
        raise NonCongruenceError("relation is not a congruence")
    rho = normalize_partition(rho)
    k = len(set(rho))
    rep = [0] * k
    for a in range(S.order - 1, -1, -1):
        rep[rho[a]] = a
    op = tuple(
        tuple(rho[S.op[rep[i]][rep[j]]] for j in range(k)) for i in range(k)
    )
    inv = tuple(rho[S.inv[rep[i]]] for i in range(k))
    return UnaryCayleyTable(op, inv, f"{S.name}/~" if S.name else "")


def is_ideal(S: UnaryCayleyTable, ideal: Iterable[int]) -> bool:
    I = set(ideal)
    if not I or not I <= set(range(S.order)):
        return False
    for a in I:
        for x in range(S.order):
            if S.op[a][x] not in I or S.op[x][a] not in I:
                return False
    return True


def rees_quotient(S: UnaryCayleyTable, ideal: Iterable[int]) -> UnaryCayleyTable:
    """Collapse a two-sided ideal to a zero element (appended last)."""
    I = set(ideal)
    if not is_ideal(S, I):
        raise NotAnIdealError("subset is not a two-sided ideal")
    survivors = [a for a in range(S.order) if a not in I]
    index = {a: i for i, a in enumerate(survivors)}
    zero = len(survivors)
    k = zero + 1

    def img(a: int) -> int:
        return index.get(a, zero)

    op = [[zero] * k for _ in range(k)]
    for i, a in enumerate(survivors):
        for j, b in enumerate(survivors):
            op[i][j] = img(S.op[a][b])
    inv = [img(S.inv[a]) for a in survivors] + [zero]
    return UnaryCayleyTable(
        tuple(tuple(row) for row in op), tuple(inv), f"{S.name}/I" if S.name else ""
    )


def adjoin_zero(S: UnaryCayleyTable) -> UnaryCayleyTable:
    n = S.order
    op = [list(row) + [n] for row in S.op] + [[n] * (n + 1)]
    inv = list(S.inv) + [n]
    return UnaryCayleyTable(
        tuple(tuple(row) for row in op), tuple(inv), f"{S.name}^0" if S.name else ""
    )


# ---------------------------------------------------------------------------
# the least-D-class congruences


def d_class_order(S: UnaryCayleyTable):
    """D-classes with the two-sided-ideal containment order."""
    D = green(S).D
    n = S.order
    # principal two-sided ideals
    ideals = []
    for a in range(n):
        J = {a}
        frontier = [a]
        while frontier:
            b = frontier.pop()
            for x in range(n):
                for c in (S.op[x][b], S.op[b][x]):
                    if c not in J:
                        J.add(c)
                        frontier.append(c)
        ideals.append(frozenset(J))
    return D, ideals


def least_d_class(S: UnaryCayleyTable) -> frozenset:
    D, ideals = d_class_order(S)
    minimal = min(ideals, key=len)
    if any(not minimal <= J for J in ideals):
        raise NoLeastDClassError("no least D-class")
    return frozenset(a for a in range(S.order) if ideals[a] == minimal)


def least_d_congruence(S: UnaryCayleyTable, kind: str) -> Partition:
    """Equality outside the least D-class, H/L/R-restriction inside it."""
    rel = {"H": green(S).H, "L": green(S).L, "R": green(S).R}[kind]
    D = least_d_class(S)
    n = S.order
    assign = []
    for a in range(n):
        if a in D:
            assign.append(("D", rel[a]))
        else:
            assign.append(("x", a))
    p = _partition_by(assign)
    if not is_congruence(S, p):
        raise NonCongruenceError(f"rho_{kind} failed the congruence check")
    return p


# ---------------------------------------------------------------------------
# constructions


def direct_product(S: UnaryCayleyTable, T: UnaryCayleyTable) -> UnaryCayleyTable:
    ns, nt = S.order, T.order
    pairs = [(a, b) for a in range(ns) for b in range(nt)]
    index = {p: i for i, p in enumerate(pairs)}
    op = tuple(
        tuple(index[(S.op[a][c], T.op[b][d])] for (c, d) in pairs) for (a, b) in pairs
    )
    inv = tuple(index[(S.inv[a], T.inv[b])] for (a, b) in pairs)
    name = f"{S.name}x{T.name}" if S.name and T.name else ""
    return UnaryCayleyTable(op, inv, name)


def subsemigroup_generated(S: UnaryCayleyTable, seed: Iterable[int]) -> frozenset:
    """Closure of a seed set under multiplication and inversion."""
    out = set(seed)
    frontier = list(out)
    while frontier:
        a = frontier.pop()
        candidates = [S.inv[a]]
        for b in list(out):
            candidates.append(S.op[a][b])
            candidates.append(S.op[b][a])
        for c in candidates:
            if c not in out:
                out.add(c)
                frontier.append(c)
    return frozenset(out)


def restrict(S: UnaryCayleyTable, subset: Iterable[int], name: str = "") -> UnaryCayleyTable:
    elems = sorted(subset)
    index = {a: i for i, a in enumerate(elems)}
    op = tuple(tuple(index[S.op[a][b]] for b in elems) for a in elems)
    inv = tuple(index[S.inv[a]] for a in elems)
    return UnaryCayleyTable(op, inv, name)


# -- free bands -------------------------------------------------------------


def _band_signature(w: str, memo: dict):
    """Canonical invariant deciding equality of band words (content, the
    letter completing the content from each end, and the reduced prefix and
    suffix, recursively)."""
    s = memo.get(w)
    if s is not None:
        return s
    letters = set(w)
    if len(letters) == 1:
        sig = ("1", w[0])
    else:
        k = len(letters)
        seen: set = set()
        for i, ch in enumerate(w):
            seen.add(ch)
            if len(seen) == k:
                prefix, a = w[:i], ch
                break
        seen = set()
        for i in range(len(w) - 1, -1, -1):
            seen.add(w[i])
            if len(seen) == k:
                suffix, b = w[i + 1 :], w[i]
                break
        sig = (
            frozenset(letters),
            a,
            b,
            _band_signature(prefix, memo),
            _band_signature(suffix, memo),
        )
    memo[w] = sig
    return sig


_FREE_BAND_ORDERS = {1: 1, 2: 6, 3: 159}


def free_band(generators: int) -> UnaryCayleyTable:
    """The free band on up to three generators (orders 1, 6, 159)."""
    if not 1 <= generators <= 3:
        raise TableError("free bands are supported for 1..3 generators only")
    memo: dict = {}
    reps: Dict[tuple, str] = {}
    for ch in "abc"[:generators]:
        reps[_band_signature(ch, memo)] = ch
    while True:
        grew = False
        words = sorted(reps.values(), key=lambda w: (len(w), w))
        for u in words:
            for v in words:
                w = u + v
                sig = _band_signature(w, memo)
                old = reps.get(sig)
                if old is None:
                    reps[sig] = w
                    grew = True
                elif (len(w), w) < (len(old), old):
                    reps[sig] = w
        if not grew:
            break
    elems = sorted(reps.values(), key=lambda w: (len(w), w))
    index = {w: i for i, w in enumerate(elems)}
    sig_index = {_band_signature(w, memo): i for w, i in index.items()}
    op = tuple(
        tuple(sig_index[_band_signature(u + v, memo)] for v in elems) for u in elems
    )
    inv = tuple(range(len(elems)))
    S = UnaryCayleyTable(op, inv, f"FB{generators}")
    if S.order != _FREE_BAND_ORDERS[generators]:
        raise TableError(f"free band on {generators} generators came out with order {S.order}")
    return S


def all_bands(n: int) -> List[UnaryCayleyTable]:
    """Every band on {0..n-1} up to isomorphism, by backtracking search."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    op = [[i if i == j else -1 for j in range(n)] for i in range(n)]

    def consistent() -> bool:
        for a in range(n):
            for b in range(n):
                ab = op[a][b]
                if ab < 0:
                    continue
                for c in range(n):
                    bc = op[b][c]
                    if bc < 0:
                        continue
                    left = op[ab][c]
                    right = op[a][bc]
                    if left >= 0 and right >= 0 and left != right:
                        return False
        return True

    found: List[tuple] = []

    def fill(k: int) -> None:
        if k == len(cells):
            found.append(tuple(tuple(row) for row in op))
            return
        i, j = cells[k]
        for v in range(n):
            op[i][j] = v
            if consistent():
                fill(k + 1)
        op[i][j] = -1

    fill(0)
    seen: set = set()
    out: List[UnaryCayleyTable] = []
    from itertools import permutations

    for raw in found:
        canon = min(
            tuple(
                tuple(perm[raw[a][b]] for b in inverse)
                for a in inverse
            )
            for perm in permutations(range(n))
            for inverse in [sorted(range(n), key=lambda x: perm[x])]
        )
        if canon not in seen:
            seen.add(canon)
            out.append(UnaryCayleyTable(raw, tuple(range(n))))
    return out


# -- the right-zero extension ----------------------------------------------


def right_zero_extension(F: UnaryCayleyTable) -> UnaryCayleyTable:
    """Adjoin a right-zero copy of F with an identity element adjoined.

    Carrier F u R with R indexed by F^1; products: F acts as given, a*b = b
    for a in F, b in R, and b*a multiplies inside F^1.  R is a right-zero
    ideal and the Rees quotient by R is F with a zero adjoined.
    """
    n = F.order
    # R indices: n is the copy of the adjoined identity, n+1+x the copy of x.
    total = 2 * n + 1

    def rz(x: Optional[int]) -> int:
        return n if x is None else n + 1 + x

    op = [[0] * total for _ in range(total)]
    for a in range(n):
        for b in range(n):
            op[a][b] = F.op[a][b]
    for a in range(n):
        for r in range(n, total):
            op[a][r] = r
    for a in range(n):
        op[rz(None)][a] = rz(a)
        for x in range(n):
            op[rz(x)][a] = rz(F.op[x][a])
    for r in range(n, total):
        for s in range(n, total):
            op[r][s] = s
    inv = list(F.inv) + [r for r in range(n, total)]
    inv = [inv[a] if a < n else a for a in range(total)]
    return UnaryCayleyTable(
        tuple(tuple(row) for row in op),
        tuple(inv),
        f"rzx({F.name})" if F.name else "",
    )


# ---------------------------------------------------------------------------
# exhaustive enumeration (small orders)


def enumerate_unary_cr_tables(max_order: int = 3) -> Iterator[UnaryCayleyTable]:
    """All associative unary tables of order <= max_order passing the CR axioms."""
    for n in range(1, max_order + 1):
        rng = range(n)
        for flat in product(rng, repeat=n * n):
            op = tuple(tuple(flat[i * n : (i + 1) * n]) for i in rng)
            ok = True
            for a in rng:
                for b in rng:
                    ab = op[a][b]
                    for c in rng:
                        if op[ab][c] != op[a][op[b][c]]:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                continue
            for inv in product(rng, repeat=n):
                cand = UnaryCayleyTable(op, tuple(inv))
                if is_completely_regular(cand):
                    yield cand


# ---------------------------------------------------------------------------
# file format


def table_to_json(S: UnaryCayleyTable) -> str:
    payload = {"order": S.order, "op": [list(r) for r in S.op], "inv": list(S.inv)}
    if S.name:
        payload["name"] = S.name
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_table(text: str) -> UnaryCayleyTable:
    """Read a table file: its JSON, shape, integer entries, declared order
    and name.  The semigroup axioms are not checked."""
    payload = json.loads(text)
    try:
        S = table(payload["op"], payload["inv"], payload.get("name", ""))
    except (KeyError, TypeError) as exc:
        raise TableError(f"malformed table file: {exc}") from None
    if not isinstance(S.name, str):
        raise TableError("table name must be a string")
    if S.order != payload.get("order", S.order):
        raise TableError("declared order does not match the table")
    return S


def table_from_json(text: str) -> UnaryCayleyTable:
    """``parse_table`` followed by the associativity and complete-regularity
    checks; the first failure is named in the TableError."""
    S = parse_table(text)
    bad = first_nonassociative_triple(S)
    if bad is not None:
        raise TableError(f"not associative: failing triple {bad}")
    cr = first_cr_failure(S)
    if cr is not None:
        raise TableError(f"not completely regular: axiom {cr[0]} fails at element {cr[1]}")
    return S
