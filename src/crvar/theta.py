"""Operator words: the monoid of alternating words over {Tl, Tr} or {Kl, Kr}.

A word is a plain tuple of letters, e.g. ("Kr", "Kl") for V^KrKl; the empty
tuple is the identity.  Multiplication concatenates and collapses adjacent
repeated letters, so the product of alternating words is alternating.  The
order makes longer words smaller.  Duality swaps l and r; the two-sided
letters K and T are fixed.
"""

from __future__ import annotations

T_LETTERS = ("Tl", "Tr")
K_LETTERS = ("Kl", "Kr")
_DUAL = {"Tl": "Tr", "Tr": "Tl", "Kl": "Kr", "Kr": "Kl"}

EMPTY: tuple = ()


def word(text: str) -> tuple:
    """Parse an alternating concatenation like "TlTrTl"; "" and "1" are the
    empty word."""
    if text in ("", "1"):
        return EMPTY
    letters = tuple(text[i : i + 2] for i in range(0, len(text), 2))
    one_alphabet = set(letters) <= set(T_LETTERS) or set(letters) <= set(K_LETTERS)
    if not (one_alphabet and is_alternating(letters)):
        raise ValueError(f"not an alternating operator word: {text!r}")
    return letters


def multiply(s: tuple, t: tuple) -> tuple:
    """Concatenate, dropping each letter of t that repeats the one before it."""
    out = list(s)
    for a in t:
        if not out or out[-1] != a:
            out.append(a)
    return tuple(out)


def leq(s: tuple, t: tuple) -> bool:
    """s <= t iff |s| > |t| or s = t (longer words are smaller)."""
    return len(s) > len(t) or s == t


def dual_word(s) -> tuple:
    """Swap l and r letterwise; any other letter is fixed."""
    return tuple(_DUAL.get(a, a) for a in s)


def is_alternating(s: tuple) -> bool:
    """No letter repeats the one before it, and every letter is one-sided."""
    return all(a != b for a, b in zip(s, s[1:])) and all(a in _DUAL for a in s)


def same_alphabet(s: tuple, t: tuple) -> bool:
    """Both words or neither are over {Kl, Kr}."""
    return (set(s) <= set(K_LETTERS)) == (set(t) <= set(K_LETTERS))


def higher(s: tuple) -> tuple:
    """The non-empty alternating word s one letter longer."""
    return s + (_DUAL[s[-1]],)


def enumerate_words(n: int, letters: tuple = T_LETTERS) -> frozenset:
    """All alternating words of length n over ``letters``: one for n = 0,
    otherwise two."""
    if n < 0:
        raise ValueError("length must be >= 0")
    if n == 0:
        return frozenset((EMPTY,))
    return frozenset(tuple(letters[(h + i) % 2] for i in range(n)) for h in (0, 1))


def words_up_to(n: int) -> list:
    """All words over {Tl, Tr} of length <= n, sorted by (length, letters)."""
    out: list = []
    for k in range(n + 1):
        out.extend(sorted(enumerate_words(k)))
    return out
