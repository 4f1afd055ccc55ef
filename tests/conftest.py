import random

import pytest

from crvar.battery import battery
from crvar.words import Inv, Var, prod


@pytest.fixture(scope="session")
def tables():
    return battery()


def random_term(rng: random.Random, depth: int, letters="pqrstuxyz"):
    """A random term of nesting depth at most ``depth``."""
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice(letters))
    if rng.random() < 0.4:
        return Inv(random_term(rng, depth - 1, letters))
    k = rng.randint(2, 3)
    return prod(random_term(rng, depth - 1, letters) for _ in range(k))


def random_terms(count: int, depth: int, seed: int = 0):
    rng = random.Random(seed)
    return [random_term(rng, depth) for _ in range(count)]


def brute_nonassociative_triple(S):
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc), by a
    plain triple loop: the oracle for ``first_nonassociative_triple``."""
    op, n = S.op, S.order
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if op[op[a][b]][c] != op[a][op[b][c]]:
                    return (a, b, c)
    return None
