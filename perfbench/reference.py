"""Independent reference computations used by the oracles.

Nothing here calls into ``crvar``: each answer the program gives is checked
against code that shares no logic with the function being timed, so a
faster path that changes an answer cannot also change its check.  Terms are
read only through their public fields (``Var.name``, ``Inv.body``,
``Prod.factors``).
"""

from __future__ import annotations

import itertools

OPEN = "("
CLOSE = ")^-1"


# -- terms --------------------------------------------------------------------


def term_kind(t) -> str:
    if hasattr(t, "name"):
        return "var"
    if hasattr(t, "body"):
        return "inv"
    return "prod"


def variables(t) -> set:
    kind = term_kind(t)
    if kind == "var":
        return {t.name}
    if kind == "inv":
        return variables(t.body)
    out: set = set()
    for f in t.factors:
        out |= variables(f)
    return out


def evaluate(op, inv, t, env) -> int:
    kind = term_kind(t)
    if kind == "var":
        return env[t.name]
    if kind == "inv":
        return inv[evaluate(op, inv, t.body, env)]
    acc = evaluate(op, inv, t.factors[0], env)
    for f in t.factors[1:]:
        acc = op[acc][evaluate(op, inv, f, env)]
    return acc


def render(t) -> str:
    kind = term_kind(t)
    if kind == "var":
        return t.name
    if kind == "inv":
        return OPEN + render(t.body) + CLOSE
    return "".join(render(f) for f in t.factors)


def refuting_assignment(op, inv, lhs, rhs):
    """First assignment (sorted variables, lexicographic values) separating
    lhs from rhs in the table, or None when the identity holds."""
    names = sorted(variables(lhs) | variables(rhs))
    for values in itertools.product(range(len(op)), repeat=len(names)):
        env = dict(zip(names, values))
        if evaluate(op, inv, lhs, env) != evaluate(op, inv, rhs, env):
            return env
    return None


def assignment_rank(order: int, names, env) -> int:
    """Position of ``env`` in itertools.product order over sorted ``names``."""
    rank = 0
    for name in names:
        rank = rank * order + env[name]
    return rank


# -- flat words ---------------------------------------------------------------


def is_valid_word(symbols: tuple) -> bool:
    """Membership in the least set holding the letters and closed under
    concatenation and u -> (u)^-1, decided by interval dynamic programming
    over the grammar rather than by counting."""
    n = len(symbols)
    if n == 0:
        return False
    ok = [[False] * (n + 1) for _ in range(n + 1)]
    for length in range(1, n + 1):
        for i in range(0, n - length + 1):
            j = i + length
            if length == 1:
                ok[i][j] = symbols[i] not in (OPEN, CLOSE)
                continue
            if symbols[i] == OPEN and symbols[j - 1] == CLOSE and length >= 3 and ok[i + 1][j - 1]:
                ok[i][j] = True
                continue
            ok[i][j] = any(ok[i][k] and ok[k][j] for k in range(i + 1, j))
    return ok[0][n]


def mirror_word(symbols: tuple) -> tuple:
    swap = {OPEN: CLOSE, CLOSE: OPEN}
    return tuple(swap.get(s, s) for s in reversed(symbols))


# -- tables -------------------------------------------------------------------


def relabel(op, inv, perm):
    """The isomorphic copy of (op, inv) under element renaming ``perm``."""
    n = len(op)
    back = [0] * n
    for a, pa in enumerate(perm):
        back[pa] = a
    new_op = [[perm[op[back[x]][back[y]]] for y in range(n)] for x in range(n)]
    new_inv = [perm[inv[back[x]]] for x in range(n)]
    return new_op, new_inv


def first_cr_failure(op, inv):
    for a in range(len(op)):
        ai = inv[a]
        if op[op[a][ai]][a] != a:
            return ("a a^-1 a = a", a)
        if inv[ai] != a:
            return ("(a^-1)^-1 = a", a)
        if op[a][ai] != op[ai][a]:
            return ("a a^-1 = a^-1 a", a)
    return None


def first_failing_triple_after_edit(op, cell):
    """First non-associative triple of a table that was associative before
    the single entry ``cell`` = (i, j) was changed.

    Every failing triple reads the changed entry in one of its four
    products, so only O(n^2) candidates need checking.
    """
    i, j = cell
    n = len(op)
    cands = set()
    for x in range(n):
        cands.add((i, j, x))  # (ab)c with ab the edited entry
        cands.add((x, i, j))  # a(bc) with bc the edited entry
        for y in range(n):
            if op[x][y] == i:
                cands.add((x, y, j))  # (ab)c with (ab, c) the edited entry
            if op[x][y] == j:
                cands.add((i, x, y))  # a(bc) with (a, bc) the edited entry
    failing = [t for t in cands if op[op[t[0]][t[1]]][t[2]] != op[t[0]][op[t[1]][t[2]]]]
    return min(failing) if failing else None


def is_congruence(op, inv, p) -> bool:
    n = len(op)
    rep: dict = {}
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


def refines(p, q) -> bool:
    seen: dict = {}
    for a, b in enumerate(p):
        if seen.setdefault(b, q[a]) != q[a]:
            return False
    return True


def canonical(p) -> tuple:
    ids: dict = {}
    return tuple(ids.setdefault(b, len(ids)) for b in p)


def green_lr(op):
    """Green's L and R as canonical block vectors, from principal ideals."""
    n = len(op)
    left = [frozenset({a} | {op[x][a] for x in range(n)}) for a in range(n)]
    right = [frozenset({a} | {op[a][x] for x in range(n)}) for a in range(n)]
    return canonical(left), canonical(right)


def meet(p, q) -> tuple:
    return canonical(list(zip(p, q)))


def idempotent_split(op) -> tuple:
    """The equivalence with two classes, idempotents and the rest."""
    return canonical([op[a][a] == a for a in range(len(op))])


def quotient_consistent(op, inv, rho, qop, qinv) -> bool:
    """(qop, qinv) is the quotient of (op, inv) by rho, blocks numbered by
    first occurrence."""
    k = len(set(rho))
    if len(qop) != k or canonical(rho) != tuple(rho):
        return False
    n = len(op)
    for a in range(n):
        if qinv[rho[a]] != rho[inv[a]]:
            return False
        ra = rho[a]
        row = op[a]
        qrow = qop[ra]
        for b in range(n):
            if qrow[rho[b]] != rho[row[b]]:
                return False
    return True


def kernel(op, rho) -> frozenset:
    eblocks = {rho[e] for e in range(len(op)) if op[e][e] == e}
    return frozenset(a for a in range(len(op)) if rho[a] in eblocks)


# -- posets -------------------------------------------------------------------


def lattice_verdict(node_keys, covers) -> bool:
    """True iff every pair with a common upper (lower) bound has a least
    (greatest) one, checked with up-set and down-set bitmasks."""
    index = {k: i for i, k in enumerate(node_keys)}
    n = len(node_keys)
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for a, b in covers:
        succ[index[a]].append(index[b])
        pred[index[b]].append(index[a])
    up = [None] * n
    down = [None] * n

    def close(i, nxt, memo):
        if memo[i] is None:
            mask = 1 << i
            for j in nxt[i]:
                mask |= close(j, nxt, memo)
            memo[i] = mask
        return memo[i]

    for i in range(n):
        close(i, succ, up)
        close(i, pred, down)
    up_of = {m: i for i, m in enumerate(up)}
    down_of = {m: i for i, m in enumerate(down)}
    for x in range(n):
        for y in range(x + 1, n):
            for bounds, exact in ((up, up_of), (down, down_of)):
                common = bounds[x] & bounds[y]
                if common and common not in exact:
                    return False
    return True


def join(p, q) -> tuple:
    parent = list(range(len(p)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for rel in (p, q):
        first: dict = {}
        for a, b in enumerate(rel):
            if b in first:
                ra, rb = find(a), find(first[b])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            else:
                first[b] = a
    return canonical([find(a) for a in range(len(p))])
