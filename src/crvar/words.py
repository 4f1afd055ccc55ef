"""Words over the unary-semigroup alphabet and their term trees.

A flat word is a tuple of symbols: lowercase letters (variables) plus the
two special symbols OPEN = "(" and CLOSE_INV = ")^-1".  The valid words are
the least set containing the letters and closed under concatenation and
u -> (u)^-1; ``validate`` checks the equivalent counting description
(balanced counts, prefix dominance, no "()^-1" adjacency).

Terms are the parse trees: a variable, a formal inverse, or a flattened
product of at least two non-product factors (the unique factorization into
irreducibles).  All values are immutable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

OPEN = "("
CLOSE_INV = ")^-1"

# One leading alphabetic, then digits/underscores.  Two adjacent letters can
# therefore never merge when a word is rendered without whitespace, which is
# what makes render/parse a strict round trip.
_LETTER = re.compile(r"[a-z][0-9_]*")

FlatWord = tuple  # tuple of symbol strings


class WordError(ValueError):
    pass


class WordSyntaxError(WordError):
    """Raised by the tokenizer: the text is not a sequence of Y-symbols."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidWordError(WordError):
    """A flat word that is not a member of the word algebra.

    ``condition`` is the first violated membership condition: 1 balanced
    counts, 2 prefix dominance, 3 no "()^-1" adjacency; "empty" for the
    empty sequence.
    """

    def __init__(self, condition, position: int):
        super().__init__(
            f"not a valid word: condition {condition} fails at position {position}"
        )
        self.condition = condition
        self.position = position


class NonPlainWordError(WordError):
    pass


def is_letter(symbol: str) -> bool:
    return symbol != OPEN and symbol != CLOSE_INV and bool(_LETTER.fullmatch(symbol))


# ---------------------------------------------------------------------------
# text <-> flat word


def word_from_text(text: str) -> FlatWord:
    """Tokenize ASCII text into a flat word.

    Letters match [a-z][0-9_]*, "(" and ")^-1" are literal, whitespace is
    ignored.  The postfix "^0" is sugar: u^0 stands for u(u)^-1 and is
    expanded here, for a letter or for a parenthesized group.
    """
    out: list = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            out.append(OPEN)
            i += 1
            continue
        if ch == ")":
            if text[i : i + 4] == ")^-1":
                out.append(CLOSE_INV)
                i += 4
                continue
            if text[i : i + 3] == ")^0":
                _expand_group_zero(out, i)
                i += 3
                continue
            raise WordSyntaxError("')' must be followed by ^-1 or ^0", i)
        m = _LETTER.match(text, i)
        if m:
            name = m.group()
            i = m.end()
            if text[i : i + 2] == "^0":
                out.extend((name, OPEN, name, CLOSE_INV))
                i += 2
            else:
                out.append(name)
            continue
        raise WordSyntaxError(f"unexpected character {ch!r}", i)
    return tuple(out)


def _expand_group_zero(out: list, position: int) -> None:
    # Replace a trailing "( u" group by "u ( u )^-1" when the group closes
    # with ")^0".  The "(" must be present and balanced.
    depth = 0
    for j in range(len(out) - 1, -1, -1):
        if out[j] == CLOSE_INV:
            depth += 1
        elif out[j] == OPEN:
            if depth == 0:
                inner = out[j + 1 :]
                if not inner:
                    raise WordSyntaxError("empty group before ^0", position)
                del out[j:]
                out.extend(inner)
                out.append(OPEN)
                out.extend(inner)
                out.append(CLOSE_INV)
                return
            depth -= 1
    raise WordSyntaxError("')^0' has no matching '('", position)


def word_to_text(word: Iterable[str]) -> str:
    return "".join(word)


# ---------------------------------------------------------------------------
# membership


def first_violation(word: FlatWord) -> Optional[tuple]:
    """Return (condition, position) of the first failure, or None if valid."""
    if len(word) == 0:
        return ("empty", 0)
    balance = 0
    prev_open = False
    for i, sym in enumerate(word):
        if sym == OPEN:
            balance += 1
            prev_open = True
        elif sym == CLOSE_INV:
            if prev_open:
                return (3, i)
            balance -= 1
            if balance < 0:
                return (2, i)
            prev_open = False
        else:
            prev_open = False
    if balance != 0:
        return (1, len(word))
    return None


def validate(word: FlatWord) -> bool:
    return first_violation(word) is None


def validate_text(text: str) -> bool:
    return validate(word_from_text(text))


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Inv:
    body: "Term"


@dataclass(frozen=True)
class Prod:
    factors: tuple

    def __post_init__(self):
        if len(self.factors) < 2:
            raise WordError("a product needs at least two factors")
        if any(isinstance(f, Prod) for f in self.factors):
            raise WordError("product factors must not be products")


Term = Union[Var, Inv, Prod]


def prod(factors: Iterable[Term]) -> Term:
    """Smart product constructor: flattens nested products, unwraps singletons."""
    flat: list = []
    for f in factors:
        if isinstance(f, Prod):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if len(flat) == 1:
        return flat[0]
    return Prod(tuple(flat))


def parse_word(word: FlatWord) -> Term:
    """Parse a valid flat word into its unique term (irreducible factorization)."""
    violation = first_violation(word)
    if violation is not None:
        raise InvalidWordError(*violation)
    term, _ = _parse_factors(word, 0, len(word))
    return term


def _parse_factors(word: FlatWord, start: int, stop: int):
    factors: list = []
    i = start
    while i < stop:
        sym = word[i]
        if sym == OPEN:
            j = _matching_close(word, i)
            inner, _ = _parse_factors(word, i + 1, j)
            factors.append(Inv(inner))
            i = j + 1
        else:
            factors.append(Var(sym))
            i += 1
    if len(factors) == 1:
        return factors[0], stop
    return Prod(tuple(factors)), stop


def _matching_close(word: FlatWord, open_index: int) -> int:
    depth = 0
    for j in range(open_index, len(word)):
        if word[j] == OPEN:
            depth += 1
        elif word[j] == CLOSE_INV:
            depth -= 1
            if depth == 0:
                return j
    raise InvalidWordError(1, len(word))


def parse_text(text: str) -> Term:
    return parse_word(word_from_text(text))


def render(term: Term) -> FlatWord:
    out: list = []
    _render_into(term, out)
    return tuple(out)


def _render_into(term: Term, out: list) -> None:
    if isinstance(term, Var):
        out.append(term.name)
    elif isinstance(term, Inv):
        out.append(OPEN)
        _render_into(term.body, out)
        out.append(CLOSE_INV)
    else:
        for f in term.factors:
            _render_into(f, out)


def term_to_text(term: Term) -> str:
    return word_to_text(render(term))


# ---------------------------------------------------------------------------
# mirror image


def mirror(word: FlatWord) -> FlatWord:
    """Reverse the word and exchange "(" with ")^-1"; letters are fixed."""
    swapped = []
    for sym in reversed(word):
        if sym == OPEN:
            swapped.append(CLOSE_INV)
        elif sym == CLOSE_INV:
            swapped.append(OPEN)
        else:
            swapped.append(sym)
    return tuple(swapped)


def mirror_term(term: Term) -> Term:
    if isinstance(term, Var):
        return term
    if isinstance(term, Inv):
        return Inv(mirror_term(term.body))
    return Prod(tuple(mirror_term(f) for f in reversed(term.factors)))


# ---------------------------------------------------------------------------
# content / head / tail


def content_head_tail(word: FlatWord):
    """(content, head, tail) of a word made of letters only."""
    if len(word) == 0:
        raise NonPlainWordError("empty word")
    for i, sym in enumerate(word):
        if sym == OPEN or sym == CLOSE_INV:
            raise NonPlainWordError(f"grouping symbol at position {i}")
    return (frozenset(word), word[0], word[-1])


def content(term: Term) -> frozenset:
    """The set of variable names occurring in a term."""
    if isinstance(term, Var):
        return frozenset((term.name,))
    if isinstance(term, Inv):
        return content(term.body)
    out: set = set()
    for f in term.factors:
        out |= content(f)
    return frozenset(out)


def word_content(word: FlatWord) -> frozenset:
    return frozenset(s for s in word if s != OPEN and s != CLOSE_INV)


def zero_power(term: Term) -> Term:
    """t^0 = t (t)^-1, flattened."""
    return prod((term, Inv(term)))


# ---------------------------------------------------------------------------
# the rewrite relation generating the free completely regular quotient

# Generated by the bidirectional schemas, instantiated at subterms:
#   s <-> s s^-1 s,   s <-> ((s)^-1)^-1,   s s^-1 <-> s^-1 s


def zeta_neighbors(term: Term) -> frozenset:
    return frozenset(_neighbors(term))


def _neighbors(term: Term) -> Iterator[Term]:
    # expansions at this node
    yield prod((term, Inv(term), term))
    yield Inv(Inv(term))
    # collapse of a double inverse at this node
    if isinstance(term, Inv) and isinstance(term.body, Inv):
        yield term.body.body
    if isinstance(term, Inv):
        for b in _neighbors(term.body):
            yield Inv(b)
    if isinstance(term, Prod):
        fs = term.factors
        # Runs are matched around each Inv factor: its body s occupies one
        # factor slot, or several when s is itself a product (factors of a
        # product splice flat, so an occurrence of s next to (s)^-1 is a run).
        for m, f in enumerate(fs):
            if not isinstance(f, Inv):
                continue
            body = f.body
            xs = body.factors if isinstance(body, Prod) else (body,)
            k = len(xs)
            before = m >= k and fs[m - k : m] == xs
            after = fs[m + 1 : m + 1 + k] == xs and m + 1 + k <= len(fs)
            if before and after:
                # s s^-1 s -> s
                yield prod(fs[: m - k] + xs + fs[m + 1 + k :])
            if before:
                # s s^-1 -> s^-1 s
                yield prod(fs[: m - k] + (f,) + xs + fs[m + 1 :])
            if after:
                # s^-1 s -> s s^-1
                yield prod(fs[:m] + xs + (f,) + fs[m + 1 + k :])
        for i, f in enumerate(fs):
            for g in _neighbors(f):
                yield prod(fs[:i] + (g,) + fs[i + 1 :])


@dataclass(frozen=True)
class ZetaEquivalent:
    witness: tuple  # terms, consecutive entries one rewrite step apart

    @property
    def steps(self) -> int:
        return len(self.witness) - 1


@dataclass(frozen=True)
class ZetaUnknown:
    budget_exhausted: int


ZetaVerdict = Union[ZetaEquivalent, ZetaUnknown]

_NODE_CAP = 100_000


def zeta_equivalent(u: Term, v: Term, budget: int, node_cap: int = _NODE_CAP) -> ZetaVerdict:
    """Bounded bidirectional search for a rewrite path of at most ``budget`` steps.

    Sound: an equivalent verdict always carries a genuine path.  Unknown does
    not imply inequivalence.  Frontiers are expanded one full level at a time
    in canonical term order, so the outcome is deterministic and invariant
    under the mirror automorphism of the rewrite graph.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if u == v:
        return ZetaEquivalent((u,))
    fparent: dict = {u: None}
    bparent: dict = {v: None}
    ffront, bfront = [u], [v]
    depth = 0
    while depth < budget and ffront and bfront:
        if len(ffront) <= len(bfront):
            side, front, other = fparent, ffront, bparent
        else:
            side, front, other = bparent, bfront, fparent
        new: list = []
        meet = None
        for node in sorted(front, key=term_to_text):
            for nb in sorted(zeta_neighbors(node), key=term_to_text):
                if nb in side:
                    continue
                side[nb] = node
                new.append(nb)
                if nb in other:
                    meet = nb
                    break
            if meet is not None:
                break
        depth += 1
        if meet is not None:
            return ZetaEquivalent(_join_paths(meet, fparent, bparent))
        if side is fparent:
            ffront = new
        else:
            bfront = new
        if len(fparent) + len(bparent) > node_cap:
            return ZetaUnknown(depth)
    return ZetaUnknown(budget)


def _join_paths(meet: Term, fparent: dict, bparent: dict) -> tuple:
    left: list = []
    node = meet
    while node is not None:
        left.append(node)
        node = fparent[node]
    left.reverse()
    node = bparent[meet]
    while node is not None:
        left.append(node)
        node = bparent[node]
    return tuple(left)
