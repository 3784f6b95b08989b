"""The forbidden-pattern rule shared by conserved sequences and ground states.

A neighbourhood is a tuple of word positions ``(center, *arms)``.  It is
*forbidden* when every arm differs from the center.  Over either two-letter
alphabet, ``{0, 1}`` for occupations or ``{-1, +1}`` for sequences, this is
exactly the alternating triple ("0,1,0" / "1,0,1") of an even-centered
triple and, on tori, a cross whose center is opposite all four arms.  A word
is *permitted* when none of its neighbourhoods is forbidden.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter

import numpy as np

__all__ = ["forbidden", "permitted", "permitted_words", "pair_transfer_matrix"]


def forbidden(center, arms):
    """The rule: every arm differs from the center.

    Works letter by letter on scalars and elementwise on numpy arrays.
    """
    out = True
    for a in arms:
        out = out & (a != center)
    return out


def permitted(word, hoods) -> bool:
    """No neighbourhood of ``word`` is forbidden."""
    return not any(forbidden(word[c], [word[p] for p in arms]) for c, *arms in hoods)


@lru_cache(maxsize=None)
def _forbidden_letters(size: int, alphabet: tuple) -> frozenset:
    return frozenset(
        w for w in itertools.product(alphabet, repeat=size) if forbidden(w[0], w[1:])
    )


def permitted_words(n: int, hoods, alphabet: tuple, ties=()) -> list:
    """Every permitted word of length ``n``, in lexicographic order.

    ``alphabet`` lists the letters in ascending order.  Each neighbourhood is
    checked once, when its last position is assigned.  A tie ``(p, q)`` with
    ``p < q`` forces ``w[q] == w[p]`` (the boundary-pair condition).
    """
    checks = [[] for _ in range(n)]
    for hood in hoods:
        checks[max(hood)].append(
            (itemgetter(*hood), _forbidden_letters(len(hood), tuple(alphabet)))
        )
    pinned = [None] * n
    for p, q in ties:
        if not p < q:
            raise ValueError(f"tie {(p, q)} must point backwards")
        pinned[q] = p
    out = []
    w = [None] * n

    def extend(q):
        if q == n:
            out.append(tuple(w))
            return
        p = pinned[q]
        for v in alphabet if p is None else (w[p],):
            w[q] = v
            for letters, bad in checks[q]:
                if letters(w) in bad:
                    break
            else:
                extend(q + 1)

    extend(0)
    return out


def pair_transfer_matrix() -> np.ndarray:
    """4x4 transfer matrix over adjacent (even, odd) letter pairs.

    Index ``2*a + b`` encodes the pair with letter indices ``a, b`` in
    ``{0, 1}``; the step from ``(x, y)`` to ``(u, v)`` is allowed unless the
    triple ``y, u, v`` centered at the even position is forbidden.
    """
    t = np.zeros((4, 4), dtype=np.int64)
    for x, y, u, v in itertools.product(range(2), repeat=4):
        if not forbidden(u, (y, v)):
            t[2 * x + y, 2 * u + v] = 1
    return t
