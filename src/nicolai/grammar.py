"""The forbidden-pattern rule shared by conserved sequences and ground states.

A neighbourhood is a tuple of word positions ``(center, *arms)``.  It is
*forbidden* when every arm differs from the center.  Over either two-letter
alphabet, ``{0, 1}`` for occupations or ``{-1, +1}`` for sequences, this is
exactly the alternating triple ("0,1,0" / "1,0,1") of an even-centered
triple and, on tori, a cross whose center is opposite all four arms.  A word
is *permitted* when none of its neighbourhoods is forbidden.

:func:`permitted_words` is the one enumerator.  It works breadth-first on a
numpy array, one position per step, and returns the words as the rows of an
int8 array, so a caller that only needs the count reads the number of rows
and builds no per-word object (the ``charges --ring`` and ``groundstates``
listings do this).  Callers that return objects build them from
``words.tolist()``.
"""

from __future__ import annotations

import itertools

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


def permitted_words(n: int, hoods, alphabet: tuple, ties=()) -> np.ndarray:
    """Every permitted word of length ``n`` as the rows of an int8 array of
    shape ``(count, n)``, in lexicographic order.

    ``alphabet`` lists the letters in ascending order.  The words grow one
    position at a time: every row takes every letter (``np.repeat`` of the
    rows against ``np.tile`` of the letters keeps lexicographic order), then
    the rows that a neighbourhood closing at that position forbids are
    dropped.  A tie ``(p, q)`` with ``p < q`` forces ``w[q] == w[p]`` (the
    boundary-pair condition): position ``q`` copies column ``p`` instead of
    taking every letter, and a further tie onto the same ``q`` is checked as
    the two-position neighbourhood ``(q, p)``.
    """
    letters = np.asarray(alphabet, dtype=np.int8)
    copies = {}
    closing = [[] for _ in range(n)]
    for p, q in ties:
        if not p < q:
            raise ValueError(f"tie {(p, q)} must point backwards")
        if copies.setdefault(q, p) != p:
            closing[q].append((q, p))
    for hood in hoods:
        closing[max(hood)].append(hood)
    words = np.zeros((1, n), dtype=np.int8)
    for q in range(n):
        if q in copies:
            words[:, q] = words[:, copies[q]]
        else:
            rows = len(words)
            words = np.repeat(words, len(letters), axis=0)
            words[:, q] = np.tile(letters, rows)
        if closing[q]:
            bad = np.zeros(len(words), dtype=bool)
            for center, *arms in closing[q]:
                bad |= forbidden(words[:, center], [words[:, a] for a in arms])
            words = words[~bad]
    return words


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
