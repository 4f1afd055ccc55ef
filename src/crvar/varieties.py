"""Identity bases for varieties and the upper-operator basis schemas.

A basis is a named finite set of identities between terms.  The operator
schemas turn a content-balanced basis for V into bases for the largest
varieties with the same kernel (K), left/right/two-sided trace (Tl, Tr, T)
and their combinations (Kl, Kr).  Each operator also has an independent
membership route through a quotient of the finite semigroup being tested;
the two routes are kept separate so they can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence

from . import semigroups as sg
from .semigroups import UnaryCayleyTable
from .words import (
    Inv,
    Term,
    Var,
    WordError,
    content,
    mirror_term,
    parse_text,
    prod,
    term_to_text,
    zero_power,
)


class BasisError(ValueError):
    pass


class UnbalancedContentError(BasisError):
    """The operator schemas require equal content on both sides of every identity."""


@dataclass(frozen=True)
class Identity:
    lhs: Term
    rhs: Term
    idempotency_sugar: bool = False

    def __post_init__(self):
        if self.idempotency_sugar and self.rhs != prod((self.lhs, self.lhs)):
            raise BasisError("sugared identity must have rhs = lhs lhs")

    def variables(self) -> frozenset:
        return content(self.lhs) | content(self.rhs)

    def balanced(self) -> bool:
        return content(self.lhs) == content(self.rhs)

    def __str__(self) -> str:
        if self.idempotency_sugar:
            return f"{term_to_text(self.lhs)} in E"
        return f"{term_to_text(self.lhs)} = {term_to_text(self.rhs)}"


def identity(lhs: Term, rhs: Term) -> Identity:
    return Identity(lhs, rhs)


def idempotent(w: Term) -> Identity:
    """The identity "w in E", stored as w = w w."""
    return Identity(w, prod((w, w)), idempotency_sugar=True)


def parse_identity(line: str) -> Identity:
    text = line.strip()
    try:
        if text.endswith(" in E"):
            return idempotent(parse_text(text[:-5]))
        if "=" not in text:
            raise BasisError(f"cannot parse identity {line!r}")
        lhs, rhs = text.split("=", 1)
        return Identity(parse_text(lhs), parse_text(rhs))
    except WordError as exc:
        raise BasisError(f"cannot parse identity {line!r}: {exc}") from None


@dataclass(frozen=True)
class IdentityBasis:
    name: str = field(compare=False)
    identities: tuple = ()

    @property
    def content_balanced(self) -> bool:
        return all(ident.balanced() for ident in self.identities)

    def variables(self) -> frozenset:
        out: frozenset = frozenset()
        for ident in self.identities:
            out |= ident.variables()
        return out

    def unbalanced_lines(self) -> tuple:
        return tuple(
            i + 1 for i, ident in enumerate(self.identities) if not ident.balanced()
        )

    def __str__(self) -> str:
        body = ", ".join(str(i) for i in self.identities)
        return f"{self.name}: [{body}]"


def basis(name: str, identities: Iterable[Identity]) -> IdentityBasis:
    out: list = []
    for ident in identities:
        if ident not in out:
            out.append(ident)
    return IdentityBasis(name, tuple(out))


def parse_basis(text: str, name: str = "basis") -> IdentityBasis:
    idents = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            idents.append(parse_identity(line))
    return basis(name, idents)


def render_basis(B: IdentityBasis) -> str:
    return "".join(f"{ident}\n" for ident in B.identities)


# ---------------------------------------------------------------------------
# duality


def dual_identity(ident: Identity) -> Identity:
    return Identity(
        mirror_term(ident.lhs), mirror_term(ident.rhs), ident.idempotency_sugar
    )


def dual_basis(B: IdentityBasis) -> IdentityBasis:
    name = B.name[5:-1] if B.name.startswith("dual(") and B.name.endswith(")") else f"dual({B.name})"
    return basis(name, tuple(dual_identity(i) for i in B.identities))


# ---------------------------------------------------------------------------
# the upper-operator schemas

_ALPHA = "abcdefghijklmnopqrstuvwxyz"


def fresh_variables(B: IdentityBasis, count: int) -> list:
    """First identifiers (shortlex) not occurring in the basis."""
    used = B.variables()
    out: list = []
    k = 1
    while len(out) < count:
        for name in _names_of_length(k):
            if name not in used and name not in out:
                out.append(name)
                if len(out) == count:
                    break
        k += 1
    return out


def _names_of_length(k: int):
    if k == 1:
        yield from _ALPHA
        return
    from itertools import product as iproduct

    for head in _ALPHA:
        for tail in iproduct(_ALPHA, repeat=k - 1):
            yield head + "".join(tail)


def _require_balanced(B: IdentityBasis) -> None:
    if not B.content_balanced:
        raise UnbalancedContentError(
            f"basis {B.name!r} has content-unbalanced identities at lines "
            f"{B.unbalanced_lines()}"
        )


def op_K(B: IdentityBasis) -> IdentityBasis:
    """Per identity u = v emit  x u y (x v y)^-1 in E  with fresh x, y."""
    _require_balanced(B)
    x, y = (Var(n) for n in fresh_variables(B, 2))
    out = [
        idempotent(prod((x, i.lhs, y, Inv(prod((x, i.rhs, y))))))
        for i in B.identities
    ]
    return basis(f"{B.name}^K", out)


def op_Tl(B: IdentityBasis) -> IdentityBasis:
    """Per identity u = v emit  x u = x u (x v)^0  with fresh x."""
    _require_balanced(B)
    (x,) = (Var(n) for n in fresh_variables(B, 1))
    out = [
        Identity(
            prod((x, i.lhs)),
            prod((x, i.lhs, zero_power(prod((x, i.rhs))))),
        )
        for i in B.identities
    ]
    return basis(f"{B.name}^Tl", out)


def op_Tr(B: IdentityBasis) -> IdentityBasis:
    out = dual_basis(op_Tl(dual_basis(B)))
    return basis(f"{B.name}^Tr", out.identities)


def op_T(B: IdentityBasis) -> IdentityBasis:
    """Per identity u = v emit  u^0 = v^0  and  (x u y)^0 = (x v y)^0."""
    _require_balanced(B)
    x, y = (Var(n) for n in fresh_variables(B, 2))
    out = []
    for i in B.identities:
        out.append(Identity(zero_power(i.lhs), zero_power(i.rhs)))
        out.append(
            Identity(
                zero_power(prod((x, i.lhs, y))), zero_power(prod((x, i.rhs, y)))
            )
        )
    return basis(f"{B.name}^T", out)


def op_Kl(B: IdentityBasis) -> IdentityBasis:
    """Three identities per input: the K schema plus both Tl-style absorptions."""
    _require_balanced(B)
    x, y = (Var(n) for n in fresh_variables(B, 2))
    out = []
    for i in B.identities:
        out.append(idempotent(prod((x, i.lhs, y, Inv(prod((x, i.rhs, y)))))))
        out.append(
            Identity(prod((x, i.lhs)), prod((x, i.lhs, zero_power(prod((x, i.rhs))))))
        )
        out.append(
            Identity(prod((x, i.rhs)), prod((x, i.rhs, zero_power(prod((x, i.lhs))))))
        )
    return basis(f"{B.name}^Kl", out)


def op_Kr(B: IdentityBasis) -> IdentityBasis:
    out = dual_basis(op_Kl(dual_basis(B)))
    return basis(f"{B.name}^Kr", out.identities)


_OPS = {
    "K": op_K,
    "T": op_T,
    "Tl": op_Tl,
    "Tr": op_Tr,
    "Kl": op_Kl,
    "Kr": op_Kr,
}

OP_NAMES = tuple(sorted(_OPS))


def apply_word(B: IdentityBasis, ops: Sequence[str]) -> IdentityBasis:
    """Left-to-right composition of the single-step operators."""
    out = B
    for op in ops:
        try:
            f = _OPS[op]
        except KeyError:
            raise BasisError(f"unknown operator {op!r}") from None
        out = f(out)
    return out


def meet(B1: IdentityBasis, B2: IdentityBasis) -> IdentityBasis:
    """Union of the identity sets: presents the intersection of the varieties."""
    return basis(f"({B1.name} & {B2.name})", B1.identities + B2.identities)


# ---------------------------------------------------------------------------
# membership


def member_witness(S: UnaryCayleyTable, B: IdentityBasis):
    """None if S satisfies every identity of B, else (identity, assignment)."""
    for ident in B.identities:
        w = sg.holds(S, ident.lhs, ident.rhs)
        if w is not None:
            return ident, w
    return None


def member(S: UnaryCayleyTable, B: IdentityBasis) -> bool:
    return member_witness(S, B) is None


def route_congruence(S: UnaryCayleyTable, route: str):
    """The congruence used by the quotient characterization of each operator."""
    if route == "K":
        return sg.tau(S)
    if route == "T":
        return sg.H0(S)
    if route == "Tl":
        return sg.L0(S)
    if route == "Tr":
        return sg.R0(S)
    if route == "Kl":
        return sg.largest_congruence_within(
            S, sg.partition_meet(sg.tau(S), sg.green(S).L)
        )
    if route == "Kr":
        return sg.largest_congruence_within(
            S, sg.partition_meet(sg.tau(S), sg.green(S).R)
        )
    raise BasisError(f"unknown route {route!r}")


def member_via_quotient(S: UnaryCayleyTable, B: IdentityBasis, route: str) -> bool:
    return member(sg.quotient(S, route_congruence(S, route)), B)


# ---------------------------------------------------------------------------
# the catalog

_CATALOG_SOURCE = {
    "T": ["x = y"],
    "LZ": ["xy = x"],
    "RZ": ["xy = y"],
    "RB": ["xyz = xz", "xx = x"],
    "G": ["x^0 = y^0"],
    "S": ["xy = yx", "xx = x"],
    "LNB": ["xyz = xzy", "xx = x"],
    "RNB": ["xyz = yxz", "xx = x"],
    "NB": ["axyb = ayxb", "xx = x"],
    "LRB": ["xyx = xy", "xx = x"],
    "RRB": ["xyx = yx", "xx = x"],
    "ReB": ["xyzx = xyxzx", "xx = x"],
    "B": ["xx = x"],
    "SG": ["x^0y = yx^0"],
}


def catalog() -> Dict[str, IdentityBasis]:
    return {
        name: parse_basis("\n".join(lines), name)
        for name, lines in _CATALOG_SOURCE.items()
    }


def catalog_basis(name: str) -> IdentityBasis:
    try:
        return catalog()[name]
    except KeyError:
        raise BasisError(f"unknown catalog variety {name!r}") from None
