"""Symbolic variety networks: generation, normalization, verification, output.

Node expressions are base symbols (V, Vl, Vr, ...), upper-operator
applications V^w for an operator word w, and joins/meets of expressions.
A network is a finite labeled cover DAG (transitive reduction) together
with its generation rows.  Generators produce, at a chosen depth:

* the K-operator network (diamond tower: sides V^{s(Kl,Kr)}, one middle
  join-as-meet node per level),
* the T-operator network (sides plus a join and a meet middle node per
  level, never identified),
* their combination with inclusion cross-edges,
* the two-sided ladder built from overlapping nine-element blocks, and the
  generalized ladder with freely chosen upper bounds per side.

Edge labels name the relation tying the endpoints (Kl, Kr, Tl, Tr, plain);
in DOT output these map to solid, dashed and dotted styles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence

from . import theta
from . import varieties as va


class NetworkError(ValueError):
    pass


class MissingSideConditionError(NetworkError):
    pass


# ---------------------------------------------------------------------------
# node expressions


@dataclass(frozen=True)
class BaseNode:
    symbol: str


@dataclass(frozen=True)
class UpperNode:
    base: "NodeExpr"
    word: tuple  # operator letters, e.g. ("Kr", "Kl") for V^KrKl


@dataclass(frozen=True)
class JoinNode:
    args: tuple  # sorted by rendered text


@dataclass(frozen=True)
class MeetNode:
    args: tuple


NodeExpr = object

V = BaseNode("V")
VL = BaseNode("Vl")
VR = BaseNode("Vr")
CR = BaseNode("CR")


def render_expr(e: NodeExpr) -> str:
    if isinstance(e, BaseNode):
        return e.symbol
    if isinstance(e, UpperNode):
        base = render_expr(e.base)
        if not isinstance(e.base, BaseNode):
            base = f"({base})"
        return f"{base}^{''.join(e.word)}"
    if isinstance(e, JoinNode):
        return "(" + " v ".join(render_expr(a) for a in e.args) + ")"
    if isinstance(e, MeetNode):
        return "(" + " & ".join(render_expr(a) for a in e.args) + ")"
    raise NetworkError(f"not a node expression: {e!r}")


def _sorted_args(args: Iterable[NodeExpr]) -> tuple:
    uniq = []
    for a in args:
        if a not in uniq:
            uniq.append(a)
    return tuple(sorted(uniq, key=render_expr))


def join(*args: NodeExpr) -> NodeExpr:
    flat: list = []
    for a in args:
        flat.extend(a.args) if isinstance(a, JoinNode) else flat.append(a)
    out = _sorted_args(flat)
    return out[0] if len(out) == 1 else JoinNode(out)


def meet_expr(*args: NodeExpr) -> NodeExpr:
    flat: list = []
    for a in args:
        flat.extend(a.args) if isinstance(a, MeetNode) else flat.append(a)
    out = _sorted_args(flat)
    return out[0] if len(out) == 1 else MeetNode(out)


def upper(base: NodeExpr, word: Sequence[str]) -> NodeExpr:
    word = tuple(word)
    if not word:
        return base
    if isinstance(base, UpperNode):
        return UpperNode(base.base, theta.multiply(base.word, word))
    return UpperNode(base, word)


# ---------------------------------------------------------------------------
# normalization


def normalize(e: NodeExpr) -> NodeExpr:
    """Rewrite to the canonical form.

    Adjacent duplicate operator letters collapse; a join of two operator
    nodes over the same base with equal-length, different-head alternating
    words becomes the corresponding meet one letter higher; comparable
    operator nodes inside a join or meet prune to the larger respectively
    smaller one; arguments are deduplicated and canonically ordered.
    """
    while True:
        e2 = _normalize_once(e)
        if e2 == e:
            return e
        e = e2


def _normalize_once(e: NodeExpr) -> NodeExpr:
    if isinstance(e, TaggedNode):
        return TaggedNode(e.tag, _normalize_once(e.expr))
    if isinstance(e, BaseNode):
        return e
    if isinstance(e, UpperNode):
        base = _normalize_once(e.base)
        return upper(base, theta.multiply(theta.EMPTY, e.word))
    args = tuple(_normalize_once(a) for a in e.args)
    if isinstance(e, JoinNode):
        rewritten = _join_to_meet(args)
        if rewritten is not None:
            return rewritten
        args = _prune(args, keep="larger")
        return join(*args)
    args = _prune(args, keep="smaller")
    return meet_expr(*args)


def _join_to_meet(args: tuple) -> Optional[NodeExpr]:
    # Valid for the kernel-side alphabet only: the join of two K-operator
    # nodes with equal-length, different-head words equals the meet one
    # letter higher.  For trace-side words the join can be strictly below
    # the meet, so no rewrite is attempted there.
    if len(args) != 2:
        return None
    a, b = args
    if not (isinstance(a, UpperNode) and isinstance(b, UpperNode)):
        return None
    if a.base != b.base or len(a.word) != len(b.word):
        return None
    if not (theta.is_alternating(a.word) and theta.is_alternating(b.word)):
        return None
    if not set(a.word + b.word) <= set(theta.K_LETTERS):
        return None
    if a.word[0] == b.word[0]:
        return None
    return meet_expr(upper(a.base, theta.higher(a.word)), upper(b.base, theta.higher(b.word)))


def _known_leq(a: NodeExpr, b: NodeExpr) -> bool:
    """Sound partial order on expressions: V^r <= V^s for |r| < |s| (same
    base, same alphabet, alternating), and b <= b^w."""
    if a == b:
        return True
    if isinstance(b, UpperNode) and a == b.base:
        return True
    if isinstance(a, UpperNode) and isinstance(b, UpperNode):
        return (
            a.base == b.base
            and theta.is_alternating(a.word)
            and theta.is_alternating(b.word)
            and theta.same_alphabet(a.word, b.word)
            and len(a.word) < len(b.word)
        )
    return False


def _prune(args: tuple, keep: str) -> tuple:
    out = list(args)
    for a in args:
        for b in args:
            if a is b or a not in out or b not in out:
                continue
            if _known_leq(a, b):
                # a <= b: a join keeps the larger b, a meet keeps the smaller a
                out.remove(a if keep == "larger" else b)
    return tuple(out)


# ---------------------------------------------------------------------------
# networks


@dataclass(frozen=True)
class Network:
    nodes: tuple
    covers: tuple  # (lower, upper, label)
    rows: tuple  # generation rows, each a tuple of nodes
    theorem: str = field(default="", compare=False)
    depth: int = field(default=0, compare=False)
    meta: tuple = ()

    def node_ids(self) -> tuple:
        return tuple(_node_id(n) for n in self.nodes)


def _network(nodes, covers, rows, theorem, depth, meta=()) -> Network:
    nodes = tuple(sorted(set(nodes), key=_node_id))
    covers = tuple(sorted(set(covers), key=lambda c: (_node_id(c[0]), _node_id(c[1]), c[2])))
    return Network(nodes, covers, tuple(tuple(r) for r in rows), theorem, depth, tuple(meta))


V_K = UpperNode(V, ("K",))
V_T = UpperNode(V, ("T",))


def _sides(level: int, letters: tuple) -> tuple:
    """The two operator nodes V^w of a level, the l-headed word first."""
    return tuple(upper(V, w) for w in sorted(theta.enumerate_words(level, letters)))


def gen_K_network(depth: int, with_top: bool = False) -> Network:
    """The diamond tower over the Kl/Kr upper operators: V, two side nodes
    per word length, and one middle node per level (the join of the sides,
    expressed as the meet one letter higher)."""
    if depth < 1:
        raise NetworkError("depth must be >= 1")
    nodes: list = [V]
    covers: list = []
    rows: list = [(V,)]
    meta: list = []
    below = V
    for level in range(1, depth + 1):
        left, right = _sides(level, theta.K_LETTERS)
        middle = normalize(JoinNode((left, right)))
        rows.append((left, right))
        rows.append((middle,))
        for side, t_side in zip((left, right), _sides(level, theta.T_LETTERS)):
            covers.append((below, side, side.word[-1]))
            covers.append((side, middle, theta.higher(side.word)[-1]))
            meta.append(
                (
                    render_expr(side),
                    "largest variety with this intersection against V^K is "
                    + render_expr(t_side),
                )
            )
        nodes += [left, right, middle]
        below = middle
    if with_top:
        nodes.append(V_K)
        covers.append((below, V_K, "plain"))
        rows.append((V_K,))
    return _network(nodes, covers, rows, "4.2", depth, meta)


def gen_T_network(depth: int, with_top: bool = False, collapse: Sequence[int] = ()) -> Network:
    """Sides V^{s(Tl,Tr)} plus separate join and meet middle nodes per level.

    The join and the meet are distinct objects unless the level appears in
    ``collapse``, which asserts the optional identification.
    """
    if depth < 1:
        raise NetworkError("depth must be >= 1")
    nodes: list = [V, V_T]
    covers: list = [(V, V_T, "plain")]
    rows: list = [(V,), (V_T,)]
    below = V_T
    for level in range(1, depth + 1):
        left, right = _sides(level, theta.T_LETTERS)
        join_node = JoinNode(_sorted_args((left, right)))
        # one letter higher on each side: the trace closure of the join
        meet_node = meet_expr(upper(V, theta.higher(left.word)), upper(V, theta.higher(right.word)))
        # with the level collapsed the sides are covered by the meet itself
        middle = meet_node if level in collapse else join_node
        for side in (left, right):
            covers.append((below, side, side.word[-1]))
            covers.append((side, middle, theta.higher(side.word)[-1]))
        rows.append((left, right))
        if level in collapse:
            nodes += [left, right, meet_node]
            rows.append((meet_node,))
        else:
            covers.append((join_node, meet_node, "plain"))
            nodes += [left, right, join_node, meet_node]
            rows.append((join_node, meet_node))
        below = meet_node
    if with_top:
        nodes.append(CR)
        covers.append((below, CR, "plain"))
        rows.append((CR,))
    return _network(nodes, covers, rows, "4.3", depth)


@dataclass(frozen=True)
class TaggedNode:
    tag: str  # "K" or "T"
    expr: object


def render_tagged(n: TaggedNode) -> str:
    return f"{n.tag}:{render_expr(n.expr)}"


def gen_combined(depth: int, with_top: bool = False) -> Network:
    """Disjoint union of the K and T networks with inclusion cross-edges
    from each K-operator side node up to the T node of the same word."""
    K = gen_K_network(depth, with_top)
    T = gen_T_network(depth, with_top)
    wrapk = {n: TaggedNode("K", n) for n in K.nodes}
    wrapt = {n: TaggedNode("T", n) for n in T.nodes}
    nodes = list(wrapk.values()) + list(wrapt.values())
    covers = [(wrapk[a], wrapk[b], l) for a, b, l in K.covers]
    covers += [(wrapt[a], wrapt[b], l) for a, b, l in T.covers]
    for level in range(1, depth + 1):
        for ks, ts in zip(_sides(level, theta.K_LETTERS), _sides(level, theta.T_LETTERS)):
            covers.append((wrapk[ks], wrapt[ts], "plain"))
    rows = tuple(tuple(wrapk[n] for n in r) for r in K.rows) + tuple(
        tuple(wrapt[n] for n in r) for r in T.rows
    )
    return _network(nodes, covers, rows, "4.5", depth)


# -- ladders ------------------------------------------------------------------


def _ladder_atom(k: int, side: str, ell, err) -> NodeExpr:
    """The k-th upper atom of a ladder chain (k >= 1).

    For the left side: V^Kl, Vr^Kl, V^KrKl, Vl^KrKl, V^KlKrKl, ...; each is
    the previous opposite atom pushed up by Kl.  ``ell``/``err`` supply the
    first atoms (V^Kl, V^Kr by default; V^l, V^r for the generalized form).
    """
    first = "Kl" if side == "l" else "Kr"
    if k == 1:
        return ell if side == "l" else err
    if k == 2:
        base = VR if side == "l" else VL
        return upper(base, (first,))
    prev = _ladder_atom(k - 2, "r" if side == "l" else "l", ell, err)
    return upper(prev, (first,))


def _ladder_chain(length: int, side: str, ell, err, fresh: Optional[list] = None) -> list:
    first = VL if side == "l" else VR
    chain = [V, first]
    for k in range(1, length + 1):
        if fresh is not None and k <= len(fresh):
            chain.append(fresh[k - 1])
        else:
            chain.append(_ladder_atom(k, side, ell, err))
    return chain


def _ladder_node(i: int, j: int, A: list, B: list) -> NodeExpr:
    # Boundary nodes of the staircase are single chain atoms: each chain
    # entry contains the opposite chain's entry two steps below (the atoms
    # are built by pushing the opposite corner up), so the join absorbs.
    if i == 0 or j - i == 2:
        return B[j]
    if j == 0 or i - j == 2:
        return A[i]
    return JoinNode(_sorted_args((A[i], B[j])))


def _ladder(depth: int, with_top: bool, A: list, B: list, theorem: str, meta=()) -> Network:
    top_index = depth + 1
    coords = [
        (i, j)
        for i in range(top_index + 1)
        for j in range(top_index + 1)
        if abs(i - j) <= 2
    ]
    node_of = {(i, j): _ladder_node(i, j, A, B) for (i, j) in coords}
    if len(set(node_of.values())) != len(coords):
        raise NetworkError("ladder node expressions collided")
    covers = []
    for (i, j) in coords:
        if (i + 1, j) in node_of:
            covers.append((node_of[(i, j)], node_of[(i + 1, j)], "Kl"))
        if (i, j + 1) in node_of:
            covers.append((node_of[(i, j)], node_of[(i, j + 1)], "Kr"))
    rows = []
    for r in range(2 * top_index + 1):
        row = [node_of[(i, r - i)] for i in range(r, -1, -1) if (i, r - i) in node_of]
        if row:
            rows.append(tuple(row))
    nodes = list(node_of.values())
    if with_top:
        nodes.append(V_K)
        covers.append((node_of[(top_index, top_index)], V_K, "plain"))
        rows.append((V_K,))
    return _network(nodes, covers, rows, theorem, depth, meta)


def gen_ladder51(depth: int, with_top: bool = False) -> Network:
    """Overlapping nine-element blocks on the chains V < Vl < V^Kl < Vr^Kl < ...

    Depth counts blocks: depth 1 is the base three-by-three grid, each
    further block is glued on the top two-by-two corner of the previous one.
    Lines of negative slope (the Kl label) connect Kl-related varieties.
    """
    if depth < 1:
        raise NetworkError("depth must be >= 1")
    ell, err = upper(V, ("Kl",)), upper(V, ("Kr",))
    A = _ladder_chain(depth + 1, "l", ell, err)
    B = _ladder_chain(depth + 1, "r", ell, err)
    return _ladder(depth, with_top, A, B, "5.1")


REQUIRED_SIDE_CONDITIONS = (
    "(V^l)_Kr = V^l",
    "(V^r)_Kl = V^r",
)


def gen_ladder61(
    depth: int,
    side_conditions: Sequence[str] = (),
    use_default_upper: bool = False,
    with_top: bool = False,
) -> Network:
    """The generalized ladder: V^Kl, V^Kr replaced by chosen bounds V^l, V^r
    with the stated fixed-point side conditions, and a fresh intermediate
    upper bound per level.  With the default choice V^l = V^Kl, V^r = V^Kr
    the result is the plain ladder."""
    if use_default_upper:
        return replace(
            gen_ladder51(depth, with_top),
            theorem="6.1",
            meta=(("side_conditions", REQUIRED_SIDE_CONDITIONS),),
        )
    if depth < 1:
        raise NetworkError("depth must be >= 1")
    missing = [c for c in REQUIRED_SIDE_CONDITIONS if c not in side_conditions]
    if missing:
        raise MissingSideConditionError(
            f"side conditions not supplied: {missing}"
        )
    ell, err = BaseNode("V^l"), BaseNode("V^r")
    fresh_l = [ell] + [BaseNode(f"V^l{k}") for k in range(2, depth + 2)]
    fresh_r = [err] + [BaseNode(f"V^r{k}") for k in range(2, depth + 2)]
    A = _ladder_chain(depth + 1, "l", ell, err, fresh=fresh_l)
    B = _ladder_chain(depth + 1, "r", ell, err, fresh=fresh_r)
    conditions = list(REQUIRED_SIDE_CONDITIONS)
    for k in range(2, depth + 2):
        conditions.append(f"(V^l{k})_Kr = V^l{k}")
        conditions.append(f"(V^r{k})_Kl = V^r{k}")
    return _ladder(
        depth, with_top, A, B, "6.1", (("side_conditions", tuple(conditions)),)
    )


# ---------------------------------------------------------------------------
# reference model and isomorphism


@dataclass(frozen=True)
class LadderModel:
    rows: tuple  # node counts per row
    covers: tuple  # ((row, idx), (row, idx), label)


def reference_ladder(depth: int, with_top: bool = False) -> LadderModel:
    """The abstract ladder shape from the block-iteration rule alone."""
    top_index = depth + 1
    coords = [
        (i, j)
        for i in range(top_index + 1)
        for j in range(top_index + 1)
        if abs(i - j) <= 2
    ]
    rows: List[list] = []
    pos: Dict[tuple, tuple] = {}
    for r in range(2 * top_index + 1):
        row = [(i, r - i) for i in range(r, -1, -1) if (i, r - i) in set(coords)]
        if row:
            for idx, c in enumerate(row):
                pos[c] = (len(rows), idx)
            rows.append(row)
    covers = []
    for c in coords:
        i, j = c
        for nxt, label in (((i + 1, j), "Kl"), ((i, j + 1), "Kr")):
            if nxt in pos:
                covers.append((pos[c], pos[nxt], label))
    widths = [len(r) for r in rows]
    if with_top:
        covers.append((pos[(top_index, top_index)], (len(rows), 0), "plain"))
        widths.append(1)
    return LadderModel(tuple(widths), tuple(sorted(covers)))


def row_widths(net: Network) -> tuple:
    return tuple(len(r) for r in net.rows)


def _cover_index(net: Network) -> Dict[tuple, str]:
    pos: Dict[object, tuple] = {}
    for r, row in enumerate(net.rows):
        for i, node in enumerate(row):
            pos[node] = (r, i)
    return {(pos[a], pos[b]): label for a, b, label in net.covers}


def isomorphic_to_model(net: Network, model: LadderModel) -> bool:
    if row_widths(net) != model.rows:
        return False
    cov2 = {(a, b): l for a, b, l in model.covers}
    return _match_rows(_cover_index(net), cov2, model.rows)


def isomorphic(net1: Network, net2: Network, label_map: Optional[Dict[str, str]] = None) -> bool:
    """Graded isomorphism test: row-by-row matching respecting covers and labels."""
    w1, w2 = row_widths(net1), row_widths(net2)
    if w1 != w2:
        return False
    label_map = label_map or {}
    cov1 = {
        (a, b): label_map.get(l, l) for (a, b), l in _cover_index(net1).items()
    }
    cov2 = _cover_index(net2)
    return _match_rows(cov1, cov2, w1)


def _match_rows(cov1: Dict[tuple, str], cov2: Dict[tuple, str], widths: tuple) -> bool:
    from itertools import permutations

    def extend(row: int, perms: list) -> bool:
        if row == len(widths):
            return True
        for perm in permutations(range(widths[row])):
            mapping = perms + [perm]
            if _rows_consistent(cov1, cov2, mapping, row):
                if extend(row + 1, mapping):
                    return True
        return False

    return extend(0, [])


def _rows_consistent(cov1, cov2, mapping, upto: int) -> bool:
    # check all covers whose endpoints lie in the mapped prefix and touch row `upto`
    for (a, b), label in cov1.items():
        if max(a[0], b[0]) != upto or a[0] > upto or b[0] > upto:
            continue
        image = ((a[0], mapping[a[0]][a[1]]), (b[0], mapping[b[0]][b[1]]))
        if cov2.get(image) != label:
            return False
    for (a, b), label in cov2.items():
        if max(a[0], b[0]) != upto or a[0] > upto or b[0] > upto:
            continue
        pre = ((a[0], mapping[a[0]].index(a[1])), (b[0], mapping[b[0]].index(b[1])))
        if cov1.get(pre) != label:
            return False
    return True


_MIRROR_BASE = {"Vl": "Vr", "Vr": "Vl", "V^l": "V^r", "V^r": "V^l"}


def mirror_expr(e: NodeExpr) -> NodeExpr:
    if isinstance(e, TaggedNode):
        return TaggedNode(e.tag, mirror_expr(e.expr))
    if isinstance(e, BaseNode):
        sym = e.symbol
        for a, b in _MIRROR_BASE.items():
            if sym == a:
                return BaseNode(b)
            if sym.startswith(a) and sym[len(a) :].isdigit():
                return BaseNode(b + sym[len(a) :])
        return e
    if isinstance(e, UpperNode):
        return UpperNode(mirror_expr(e.base), theta.dual_word(e.word))
    if isinstance(e, JoinNode):
        return JoinNode(_sorted_args(mirror_expr(a) for a in e.args))
    return MeetNode(_sorted_args(mirror_expr(a) for a in e.args))


def mirror_network(net: Network) -> Network:
    m = {n: mirror_expr(n) for n in net.nodes}
    covers = [(m[a], m[b], theta.dual_word((l,))[0]) for a, b, l in net.covers]
    rows = tuple(tuple(m[n] for n in r) for r in net.rows)
    return _network(m.values(), covers, rows, net.theorem, net.depth, net.meta)


# ---------------------------------------------------------------------------
# lattice verification


@dataclass(frozen=True)
class LatticeReport:
    ok: bool
    violation: Optional[tuple] = None  # (kind, node_a, node_b, offending bounds)

    def __str__(self) -> str:
        if self.ok:
            return "lattice axioms hold on the truncation"
        kind, a, b, bounds = self.violation
        names = ", ".join(sorted(bounds))
        return f"no unique {kind} for {a} and {b}: candidates {names}"


def check_lattice(net: Network) -> LatticeReport:
    """Unique least upper and greatest lower bounds for every pair whose
    bounds lie inside the truncation; pairs with no bound inside are skipped."""
    nodes = list(net.nodes)
    up: Dict[object, set] = {n: {n} for n in nodes}
    order = _topo(net)
    for n in reversed(order):
        for a, b, _ in net.covers:
            if a == n:
                up[n] |= up[b]
    down: Dict[object, set] = {n: {n} for n in nodes}
    for n in order:
        for a, b, _ in net.covers:
            if b == n:
                down[n] |= down[a]
    for i, x in enumerate(nodes):
        for y in nodes[i + 1 :]:
            for kind, bounds in (("lub", up), ("glb", down)):
                common = bounds[x] & bounds[y]
                if not common:
                    continue
                inner = down if kind == "lub" else up
                minimal = [
                    c for c in common if not any(d != c and d in inner[c] for d in common)
                ]
                if len(minimal) != 1:
                    return LatticeReport(
                        False,
                        (kind, _node_id(x), _node_id(y), frozenset(_node_id(m) for m in minimal)),
                    )
    return LatticeReport(True)


def _topo(net: Network) -> list:
    order: list = []
    seen: set = set()
    outgoing: Dict[object, list] = {n: [] for n in net.nodes}
    for a, b, _ in net.covers:
        outgoing[a].append(b)

    def visit(n) -> None:
        if n in seen:
            return
        seen.add(n)
        for m in outgoing[n]:
            visit(m)
        order.append(n)

    for n in net.nodes:
        visit(n)
    order.reverse()
    return order


# ---------------------------------------------------------------------------
# instantiation


def instantiate(net: Network, bindings: Dict[str, va.IdentityBasis]) -> Dict[object, Optional[va.IdentityBasis]]:
    """Attach identity bases to every node that has a basis formula.

    Base symbols resolve through ``bindings`` (CR resolves to the empty
    basis); operator nodes apply the corresponding basis operators; meets
    take basis unions; joins are symbolic-only unless the join-to-meet
    normalization applies.
    """
    for B in bindings.values():
        if not B.content_balanced:
            raise va.UnbalancedContentError(f"binding {B.name!r} is not content-balanced")
    out: Dict[object, Optional[va.IdentityBasis]] = {}
    for n in net.nodes:
        out[n] = _instantiate_expr(n, bindings)
    return out


def _instantiate_expr(e: NodeExpr, bindings) -> Optional[va.IdentityBasis]:
    if isinstance(e, TaggedNode):
        return _instantiate_expr(e.expr, bindings)
    if isinstance(e, BaseNode):
        if e.symbol == "CR":
            return va.basis("CR", ())
        return bindings.get(e.symbol)
    if isinstance(e, UpperNode):
        base = _instantiate_expr(e.base, bindings)
        if base is None:
            return None
        return va.apply_word(base, e.word)
    if isinstance(e, MeetNode):
        parts = [_instantiate_expr(a, bindings) for a in e.args]
        if any(p is None for p in parts):
            return None
        out = parts[0]
        for p in parts[1:]:
            out = va.meet(out, p)
        return out
    if isinstance(e, JoinNode):
        rewritten = _join_to_meet(e.args)
        if rewritten is not None:
            return _instantiate_expr(rewritten, bindings)
        return None
    raise NetworkError(f"not a node expression: {e!r}")


# ---------------------------------------------------------------------------
# emission

_STYLE = {"Kl": "solid", "Tl": "solid", "Kr": "dashed", "Tr": "dashed", "plain": "dotted"}


def _node_id(n) -> str:
    return render_tagged(n) if isinstance(n, TaggedNode) else render_expr(n)


def emit_dot(net: Network, bases: Optional[Dict[object, Optional[va.IdentityBasis]]] = None) -> str:
    lines = ["digraph network {", "  rankdir=BT;"]
    for n in net.nodes:
        label = _node_id(n)
        if bases is not None and bases.get(n) is not None:
            label += "\\n" + "; ".join(str(i) for i in bases[n].identities)
        lines.append(f'  "{_node_id(n)}" [label="{label}"];')
    for a, b, l in net.covers:
        lines.append(f'  "{_node_id(a)}" -> "{_node_id(b)}" [style={_STYLE[l]}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _expr_payload(e) -> dict:
    if isinstance(e, TaggedNode):
        return {"kind": "tagged", "tag": e.tag, "expr": _expr_payload(e.expr)}
    if isinstance(e, BaseNode):
        return {"kind": "base", "symbol": e.symbol}
    if isinstance(e, UpperNode):
        return {"kind": "upper", "base": _expr_payload(e.base), "word": list(e.word)}
    if isinstance(e, JoinNode):
        return {"kind": "join", "args": [_expr_payload(a) for a in e.args]}
    return {"kind": "meet", "args": [_expr_payload(a) for a in e.args]}


def _expr_from_payload(p: dict):
    kind = p["kind"]
    if kind == "tagged":
        return TaggedNode(p["tag"], _expr_from_payload(p["expr"]))
    if kind == "base":
        return BaseNode(p["symbol"])
    if kind == "upper":
        return UpperNode(_expr_from_payload(p["base"]), tuple(p["word"]))
    args = tuple(_expr_from_payload(a) for a in p["args"])
    return JoinNode(args) if kind == "join" else MeetNode(args)


def _deep_tuple(value):
    if isinstance(value, (list, tuple)):
        return tuple(_deep_tuple(v) for v in value)
    return value


def _deep_list(value):
    if isinstance(value, (list, tuple)):
        return [_deep_list(v) for v in value]
    return value


def emit_json(net: Network, bases: Optional[Dict[object, Optional[va.IdentityBasis]]] = None) -> str:
    nodes = []
    for n in net.nodes:
        entry = {"id": _node_id(n), "expr": _expr_payload(n)}
        if bases is not None:
            B = bases.get(n)
            entry["basis"] = None if B is None else [str(i) for i in B.identities]
        nodes.append(entry)
    payload = {
        "nodes": nodes,
        "covers": [
            {"lo": _node_id(a), "hi": _node_id(b), "label": l} for a, b, l in net.covers
        ],
        "meta": {
            "theorem": net.theorem,
            "depth": net.depth,
            "rows": [[_node_id(n) for n in row] for row in net.rows],
            "extra": _deep_list(net.meta),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_json(text: str) -> Network:
    payload = json.loads(text)
    exprs = {e["id"]: _expr_from_payload(e["expr"]) for e in payload["nodes"]}
    covers = [
        (exprs[c["lo"]], exprs[c["hi"]], c["label"]) for c in payload["covers"]
    ]
    meta = payload["meta"]
    return _network(
        exprs.values(),
        covers,
        ([exprs[i] for i in row] for row in meta["rows"]),
        meta.get("theorem", ""),
        meta.get("depth", 0),
        _deep_tuple(meta.get("extra", ())),
    )
