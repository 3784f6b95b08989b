"""The forbidden-pattern rule shared by conserved sequences and ground states.

A neighbourhood is a tuple of word positions ``(center, *arms)``.  It is
*forbidden* when every arm differs from the center.  Over either two-letter
alphabet, ``{0, 1}`` for occupations or ``{-1, +1}`` for sequences, this is
exactly the alternating triple ("0,1,0" / "1,0,1") of an even-centered
triple and, on tori, a cross whose center is opposite all four arms.  A word
is *permitted* when none of its neighbourhoods is forbidden.

:func:`hoods` is the geometry: centers at even sites in 1D and at even-even
sites in 2D, arms along each axis, wrapped on closed supports and kept off
the edge of open ones.  :func:`edge_ties` is the boundary-pair condition of
open supports, as ties ``w[p] == w[q]``.  :func:`permitted_codes` is the one
enumerator: it grows every word breadth-first as one unsigned integer, bit
``q`` the letter index at position ``q``, in lexicographic word order.  A
caller that only needs the count reads the number of codes (the ``charges
--ring`` and ``groundstates`` listings do this), and where word position
``q`` is site rank ``q``, as on rings, chains and tori, a ``0/1`` code is
its Fock state.
:func:`permitted_words` unpacks the codes (:func:`unpack`) into int8 rows for
the callers that read rows, and :func:`spell` writes rows as ``-+`` or
``01`` strings.
:func:`transfer_power` counts 1D words exactly, as a power of the 4x4 pair
transfer matrix in Python integers; its trace, :func:`ring_word_count`,
counts both the ring charges and the ring ground states.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "forbidden",
    "permitted",
    "hoods",
    "edge_ties",
    "permitted_codes",
    "unpack",
    "permitted_words",
    "spell",
    "pair_transfer_matrix",
    "transfer_power",
    "ring_word_count",
]


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


def hoods(sites, closed: bool, shape=None) -> list:
    """Neighbourhoods ``(center, *arms)`` of a support, as word positions.

    ``sites`` lists the support in word order, row-major over ``shape`` in
    2D.  Arms are ``(left, right)`` in 1D and ``(x-1, y-1, x+1, y+1)`` in 2D.
    """
    n = len(sites)
    if shape is None:
        return [
            (p, (p - 1) % n, (p + 1) % n)
            for p in range(n)
            if sites[p] % 2 == 0 and (closed or 0 < p < n - 1)
        ]
    nx, ny = shape

    def pos(i, j):
        return (i % nx) * ny + j % ny

    return [
        (pos(i, j), pos(i - 1, j), pos(i, j - 1), pos(i + 1, j), pos(i, j + 1))
        for i in range(nx)
        for j in range(ny)
        if not any(c % 2 for c in sites[pos(i, j)])
        and (closed or (0 < i < nx - 1 and 0 < j < ny - 1))
    ]


def edge_ties(n: int, shape=None) -> list:
    """Ties ``(p, q)`` that make both end pairs constant in 1D, and the first
    and last pair of every row and column of ``shape`` in 2D."""
    if shape is None:
        return [(0, 1), (n - 2, n - 1)]
    nx, ny = shape
    rows = [(i * ny + a, i * ny + a + 1) for i in range(nx) for a in (0, ny - 2)]
    cols = [(a * ny + j, (a + 1) * ny + j) for j in range(ny) for a in (0, nx - 2)]
    return rows + cols


def permitted_codes(n: int, hoods, ties=()) -> np.ndarray:
    """Every permitted word of length ``n`` packed into one unsigned integer,
    in lexicographic word order: bit ``q`` holds the letter index at
    position ``q`` (0 for the smaller letter).

    The dtype is uint32 up to 32 positions and uint64 up to 64; longer words
    raise ``ValueError``.  The words grow one position at a time: every code
    is followed by its copy with bit ``q`` set, which keeps lexicographic
    order, then the codes that a neighbourhood closing at that position
    forbids are dropped (:func:`_permits`).  A tie ``(p, q)`` with ``p < q``
    forces ``w[q] == w[p]`` (the boundary-pair condition): bit ``q`` copies
    bit ``p`` instead of taking both letters, and a further tie onto the
    same ``q`` is checked as the two-position neighbourhood ``(q, p)``.
    """
    if n > 64:
        raise ValueError(f"{n} positions do not fit a 64-bit word code")
    dtype = np.uint32 if n <= 32 else np.uint64
    copies = {}
    closing = [[] for _ in range(n)]
    for p, q in ties:
        if not p < q:
            raise ValueError(f"tie {(p, q)} must point backwards")
        if copies.setdefault(q, p) != p:
            closing[q].append((q, p))
    for hood in hoods:
        closing[max(hood)].append(hood)
    codes = np.zeros(1, dtype=dtype)
    for q in range(n):
        if q in copies:
            codes |= (codes >> copies[q] & 1) << q
        else:
            grown = np.empty(2 * len(codes), dtype=dtype)
            grown[0::2] = codes
            np.bitwise_or(codes, 1 << q, out=grown[1::2])
            codes = grown
        if closing[q]:
            codes = codes[_permits(codes, closing[q])]
    return codes


def _permits(codes: np.ndarray, hoods) -> np.ndarray:
    """Whether no neighbourhood of ``hoods`` is forbidden, per code: one
    masked copy per neighbourhood and one compare per pattern
    :func:`forbidden` rejects (:func:`_masked_patterns`)."""
    keep = np.ones(len(codes), dtype=bool)
    masked = np.empty_like(codes)
    for mask, patterns in map(_masked_patterns, hoods):
        np.bitwise_and(codes, mask, out=masked)
        for pattern in patterns:
            keep &= masked != pattern
    return keep


def _masked_patterns(hood) -> tuple:
    """The bit mask of a neighbourhood's positions and the masked codes
    :func:`forbidden` rejects: every letter-index assignment to its distinct
    positions, put through the rule."""
    center, *arms = hood
    positions = sorted(set(hood))
    patterns = []
    for bits in itertools.product((0, 1), repeat=len(positions)):
        letter = dict(zip(positions, bits))
        if forbidden(letter[center], [letter[a] for a in arms]):
            patterns.append(sum(b << p for p, b in zip(positions, bits)))
    return sum(1 << p for p in positions), patterns


def unpack(codes: np.ndarray, n: int, alphabet: tuple) -> np.ndarray:
    """Word codes (:func:`permitted_codes`) as the rows of an int8 array of
    shape ``(count, n)``: position ``q`` holds ``alphabet[bit q]``."""
    octets = codes.astype(f"<u{codes.itemsize}", copy=False).view(np.uint8).reshape(-1, codes.itemsize)
    bits = np.unpackbits(octets, axis=1, count=n, bitorder="little")
    return np.asarray(alphabet, dtype=np.int8)[bits]


def permitted_words(n: int, hoods, alphabet: tuple, ties=()) -> np.ndarray:
    """Every permitted word of length ``n`` as the rows of an int8 array of
    shape ``(count, n)``, in lexicographic order: :func:`permitted_codes`,
    unpacked.  ``alphabet`` lists the two letters in ascending order; an
    empty alphabet spells no word."""
    codes = permitted_codes(n, hoods, ties)
    if not alphabet:
        return np.empty((0, n), dtype=np.int8)
    return unpack(codes, n, alphabet)


def spell(words: np.ndarray, letters: str) -> list:
    """Each row as a string: ``letters[1]`` where a value is positive, else ``letters[0]``."""
    return np.where(words > 0, letters[1], letters[0]).view(f"U{words.shape[1]}").ravel().tolist()


def pair_transfer_matrix() -> np.ndarray:
    """4x4 transfer matrix over adjacent (even, odd) letter pairs.

    Index ``2*a + b`` encodes the pair with letter indices ``a, b`` in
    ``{0, 1}``; the step from ``(x, y)`` to ``(u, v)`` is allowed unless the
    triple ``y, u, v`` centered at the even position is forbidden.
    """
    y = (np.arange(4) % 2)[:, None]
    u, v = np.divmod(np.arange(4), 2)
    return (~forbidden(u, (y, v))).astype(np.int64)


def transfer_power(p: int) -> np.ndarray:
    """``pair_transfer_matrix() ** p`` with Python-integer (object) entries,
    exact at every size: the counts pass 2**63 from about 80 sites on."""
    return np.linalg.matrix_power(pair_transfer_matrix().astype(object), p)


def ring_word_count(n: int) -> int:
    """Transfer-matrix count of the permitted words on a ring of ``n`` (even) sites."""
    return int(np.trace(transfer_power(n // 2)))
