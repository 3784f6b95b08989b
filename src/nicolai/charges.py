"""Conserved-sequence grammar and the local fermionic constants of motion.

A sequence assigns ``-1`` or ``+1`` to each site of its support.  It is
*permitted* when no even-centered triple carries the alternating patterns
``(-1, +1, -1)`` or ``(+1, -1, +1)`` (on tori: no five-site cross carries
"center +1, arms -1" or "center -1, arms +1").  On an even-ended interval
``[2k, 2l]`` a permitted sequence whose two boundary pairs are each constant
encodes a conserved charge: mapping ``-1 -> a_i`` and ``+1 -> a_i*`` and
multiplying along the support in increasing order yields an odd, nilpotent
monomial that commutes with the Hamiltonian exactly.  The boundary-pair
constancy is what neutralizes the charge triples that straddle the edge of
the support; dropping it generically breaks the conservation.

The pattern rule and its enumerator live in :mod:`nicolai.grammar`.  The
interval sets grow like ``2 * 3**(l-k-1)``; an independent transfer-matrix
counter over adjacent (even, odd) value pairs cross-checks every enumeration.

Every lattice's catalogue is held as word rows, in blocks ``(supports,
words, shape)`` whose supports are even shifts of the first and share its
rows (:func:`_catalogue`), validated in one vectorized pass after the
support check the sequence objects share (:func:`_check_support`).  The
masks and labels of every member are read off the rows, with no Python
object per charge.  :func:`lattice_sweep`, the ergodicity report and,
grouped by support, :func:`conservation_sweep` feed the masks to
:func:`_catalogue_residual`, which checks one member per orbit under the
certified shifts by two (``ModelSpec.shifts``: x on rings, x and y on
tori, none on chains) with one int64 kernel, :func:`_mask_residuals`,
whose oracle is :func:`conservation_check` (two scipy products per
charge).  The kernel decodes the masks with
:func:`nicolai.fock._signed_images`, the decoder that also assembles every
operator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import grammar
from .fock import (
    ANNIHILATE,
    CREATE,
    FermionMonomial,
    FockBasis,
    _row_entries,
    _signed_images,
    _states_off,
    commutator,
    jordan_wigner_masks,
    monomial_to_sparse,
    span_dimension,
)
from .model import ModelSpec, OperatorSum, _permute_bits, _shift_group, charge_hoods

__all__ = [
    "ConservedSequence",
    "IndependenceReport",
    "is_permitted",
    "has_edge_conditions",
    "enumerate_hat_xi",
    "arc_sequences",
    "all_embeddable_sequences",
    "enumerate_ring_sequences",
    "lattice_sequences",
    "sequence_to_operator",
    "sign_sigma",
    "adjoint_identity_check",
    "anticommute_check",
    "overlap_allows_nonzero",
    "conservation_check",
    "conservation_sweep",
    "lattice_sweep",
    "vanishing_triple_products",
    "independence_probe",
    "transfer_count_hat_xi",
    "transfer_count_ring_sequences",
    "rectangle_sites",
    "rect_constant_sequence",
    "torus_constant_sequence",
    "enumerate_rectangle_sequences",
    "reference_interval_tables",
    "sample_edge_violating_sequences",
]


@dataclass(frozen=True)
class ConservedSequence:
    """A ``{-1, +1}`` assignment on an ordered support.

    ``sites`` lists the support in traversal order: ascending for intervals,
    ring order for arcs and full rings, row-major for rectangles.  ``closed``
    marks supports that wrap onto themselves (full ring, full torus), where
    pattern checks include the wrapped triples.  ``shape`` is set for 2D
    supports.
    """

    sites: tuple
    values: tuple
    closed: bool = False
    shape: tuple | None = None

    def __post_init__(self):
        if len(self.sites) != len(self.values):
            raise ValueError("support and values have different lengths")
        if self.values.count(-1) + self.values.count(1) != len(self.values):
            raise ValueError("sequence values must be -1 or +1")
        if self.shape is not None and self.shape[0] * self.shape[1] != len(self.sites):
            raise ValueError("shape does not match support size")

    def __neg__(self) -> "ConservedSequence":
        return ConservedSequence(
            self.sites, tuple(-v for v in self.values), self.closed, self.shape
        )

    def __len__(self):
        return len(self.sites)

    @property
    def pattern(self) -> str:
        return "".join("+" if v > 0 else "-" for v in self.values)

    def label(self) -> str:
        return f"{_support_label(self.sites, self.closed, self.shape)}:{self.pattern}"

    def to_json_obj(self) -> list:
        return [
            {"site": list(s) if isinstance(s, tuple) else s, "value": v}
            for s, v in zip(self.sites, self.values)
        ]


def _support_label(sites: tuple, closed: bool, shape) -> str:
    """The part of a sequence's label before the ``:`` of its pattern."""
    if shape is not None:
        return "torus" if closed else f"rect{shape[0]}x{shape[1]}@{sites[0]}"
    return "ring" if closed else f"[{sites[0]},{sites[-1]}]"


def is_permitted(f: ConservedSequence) -> bool:
    """No forbidden even-centered triple (1D) or forbidden cross (2D)."""
    return grammar.permitted(f.values, grammar.hoods(f.sites, f.closed, f.shape))


def has_edge_conditions(f: ConservedSequence) -> bool:
    """Constant boundary pairs: both ends in 1D, all four pair-lines in 2D."""
    if f.closed:
        raise ValueError("edge conditions apply to open supports only")
    v = f.values
    return all(v[p] == v[q] for p, q in grammar.edge_ties(len(f), f.shape))


def _interval_codes(n: int) -> np.ndarray:
    """Permitted words on ``n`` positions starting at an even site, with both
    boundary pairs constant, as :func:`~nicolai.grammar.permitted_codes`
    (bit ``q`` set where position ``q`` holds ``+1``)."""
    hoods = grammar.hoods(range(n), closed=False)
    return grammar.permitted_codes(n, hoods, ties=grammar.edge_ties(n))


def _interval_words(n: int) -> np.ndarray:
    """:func:`_interval_codes` as value rows; lexicographic with ``-1 < +1``."""
    return grammar.unpack(_interval_codes(n), n, (-1, 1))


def _sequences(sites: tuple, words: np.ndarray, closed: bool = False) -> list:
    return [ConservedSequence(sites, v, closed) for v in map(tuple, words.tolist())]


def enumerate_hat_xi(k: int, l: int) -> list:
    """All conserved sequences on the interval ``[2k, 2l]``.

    Permitted, with both boundary pairs constant; deterministic lexicographic
    order over ascending sites with ``-1 < +1``.
    """
    if k >= l:
        raise ValueError(f"need k < l, got k={k}, l={l}")
    sites = tuple(range(2 * k, 2 * l + 1))
    return _sequences(sites, _interval_words(len(sites)))


def _arc_sites(lattice, start: int, d: int) -> tuple:
    if lattice.dimension != 1 or not lattice.periodic:
        raise ValueError("arcs are defined on rings")
    if start % 2:
        raise ValueError("arcs start on even sites")
    if 2 * d + 1 >= lattice.nsites:
        raise ValueError("arc support must be a proper arc of the ring")
    return _run(lattice, start, 2 * d + 1, None)


def arc_sequences(lattice, start: int, d: int) -> list:
    """Interval sequences embedded on the ring arc of ``2d+1`` sites from
    the even site ``start``; the arc must be proper (shorter than the ring)."""
    sites = _arc_sites(lattice, start, d)
    return _sequences(sites, _interval_words(len(sites)))


def _arc_words(lattice) -> tuple:
    """The even starts of the proper arcs of a ring and, for ``d = 1, 2,
    ...``, the interval words of the ``2d+1``-site arcs, shared by every
    start."""
    starts = sorted(s for s in lattice.sites if s % 2 == 0)
    return starts, [_interval_words(n) for n in _arc_lengths(lattice)]


def _arc_lengths(lattice) -> range:
    """The site counts ``2d+1`` of the proper arcs of a ring, ``d = 1, 2, ...``."""
    return range(3, lattice.nsites, 2)


def _ring_counts(lattice) -> tuple:
    """The number of embeddable arc sequences (every even start) and of
    full-ring sequences, read off the word codes: no row is unpacked."""
    arcs = sum(len(_interval_codes(n)) for n in _arc_lengths(lattice))
    return lattice.nsites // 2 * arcs, len(_ring_codes(lattice))


def all_embeddable_sequences(lattice) -> list:
    """Every interval sequence that embeds in the ring as a proper arc."""
    starts, words = _arc_words(lattice)
    arcs = [(_arc_sites(lattice, s, d), w) for d, w in enumerate(words, 1) for s in starts]
    return [f for sites, w in arcs for f in _sequences(sites, w)]


def _ring_codes(lattice) -> np.ndarray:
    if lattice.dimension != 1 or not lattice.periodic:
        raise ValueError("full-ring sequences require a periodic 1D lattice")
    return grammar.permitted_codes(lattice.nsites, charge_hoods(lattice))


def _ring_words(lattice) -> np.ndarray:
    return grammar.unpack(_ring_codes(lattice), lattice.nsites, (-1, 1))


def enumerate_ring_sequences(lattice) -> list:
    """All permitted sequences on the whole ring, wrapped triples included.

    No boundary-pair condition applies: the ring has no edges.  Lexicographic
    order over the ring traversal.
    """
    return _sequences(lattice.sites, _ring_words(lattice), closed=True)


def lattice_sequences(lattice) -> list:
    """The conserved sequences the model on ``lattice`` carries: the members
    of :func:`_catalogue` as objects, block by block.  On a ring, every
    proper arc and then every full-ring sequence; on an open chain, the
    interval sequences of each length at every even start; on a torus, the
    two constant sequences on each even-origin ``(w-1) x (h-1)`` rectangle
    and then the two torus constants."""
    return [
        ConservedSequence(sites, v, _closed(lattice, sites), shape)
        for supports, words, shape in _catalogue(lattice)
        for sites in supports
        for v in map(tuple, words.tolist())
    ]


def sequence_to_operator(f: ConservedSequence) -> FermionMonomial:
    """Ordered product over the support: ``-1 -> a_i``, ``+1 -> a_i*``."""
    return FermionMonomial(
        1,
        tuple(
            (s, CREATE if v > 0 else ANNIHILATE) for s, v in zip(f.sites, f.values)
        ),
    )


def sign_sigma(k: int, l: int) -> int:
    """Adjoint-sign exponent ``(2(l-k)+1)(l-k)`` for interval supports."""
    if k >= l:
        raise ValueError(f"need k < l, got k={k}, l={l}")
    return (2 * (l - k) + 1) * (l - k)


def _largest_coefficient(lattice, *terms):
    """Largest magnitude in the merged normal form of the sum of ``terms``,
    0 exactly when the sum is the zero operator: the normal form is
    canonical, and the Fock representation faithful.  No matrix is built."""
    return max(map(abs, OperatorSum(terms).normal_form(lattice).values()), default=0)


def adjoint_identity_check(f: ConservedSequence, basis: FockBasis) -> bool:
    """The identity ``Q(f)* == (-1)**sigma * Q(-f)`` on interval supports,
    decided on normal forms over ``basis.lattice``."""
    if f.closed or f.shape is not None:
        raise ValueError("the adjoint sign identity is stated for intervals")
    d = (len(f) - 1) // 2
    sign = -1 if sign_sigma(0, d) % 2 else 1
    adj, neg = sequence_to_operator(f).adjoint(), sequence_to_operator(-f)
    return _largest_coefficient(basis.lattice, adj, neg.scaled(-sign)) == 0


def anticommute_check(f: ConservedSequence, g: ConservedSequence, basis: FockBasis):
    """Largest normal-form coefficient of ``{Q(f), Q(g)}`` over
    ``basis.lattice``, 0 exactly when it vanishes; zero unless the supports
    overlap with ``f == -g`` on the whole overlap."""
    a, b = sequence_to_operator(f), sequence_to_operator(g)
    return _largest_coefficient(basis.lattice, a * b, b * a)


def overlap_allows_nonzero(f: ConservedSequence, g: ConservedSequence) -> bool:
    """True when the supports intersect and ``f == -g`` on the intersection."""
    fv = dict(zip(f.sites, f.values))
    gv = dict(zip(g.sites, g.values))
    common = set(fv) & set(gv)
    if not common:
        return False
    return all(fv[s] == -gv[s] for s in common)


def _run(lattice, origin, n: int, shape) -> tuple:
    """The ``n`` sites from ``origin`` in word order: along the chain or
    ring in 1D, row-major over ``shape`` in 2D."""
    if shape is None:
        return tuple(lattice.wrap(origin + j) for j in range(n))
    (x0, y0), (nx, ny) = origin, shape
    return tuple(lattice.wrap((x0 + i, y0 + j)) for i in range(nx) for j in range(ny))


def _closed(lattice, sites: tuple) -> bool:
    """Whether a (checked) support covers a periodic lattice."""
    return lattice.periodic and len(sites) == lattice.nsites


def _check_support(lattice, sites: tuple, closed: bool, shape) -> None:
    """Reject (``ValueError``) a support that carries no conserved sequence
    of ``lattice``, e.g. one that repeats a site or is not the run of sites
    from its first site (:func:`_run`): the one support check of sequence
    objects and catalogue blocks."""
    for s in sites:
        if not lattice.contains(s):
            raise ValueError(f"support site {s!r} outside the lattice")
    if len(set(sites)) != len(sites):
        raise ValueError("support repeats a site")
    if (shape is None) != (lattice.dimension == 1):
        raise ValueError("2D supports, and only they, have a shape")
    if closed:
        if not _closed(lattice, sites) or shape not in (None, lattice.shape):
            raise ValueError("closed sequences must cover the whole of a periodic lattice")
    elif shape is None:
        if len(sites) < 3 or len(sites) % 2 == 0:
            raise ValueError("interval supports have odd length >= 3")
        if sites[0] % 2:
            raise ValueError("interval supports end on even sites")
        if lattice.periodic and len(sites) >= lattice.nsites:
            raise ValueError("arc support must be a proper arc of the ring")
    else:
        nx, ny = shape
        if nx % 2 == 0 or ny % 2 == 0 or nx < 3 or ny < 3:
            raise ValueError("rectangle supports have odd side lengths >= 3")
        if any(c % 2 for c in sites[0]):
            raise ValueError("rectangle supports start on even-even sites")
        w, h = lattice.shape
        if nx > w - 1 or ny > h - 1:
            raise ValueError("rectangle must be proper in both directions")
    if sites != _run(lattice, sites[0], len(sites), shape):
        raise ValueError("support is not the run of sites from its first site")


def conservation_check(spec: ModelSpec, f: ConservedSequence):
    """Max-abs entry of ``[H, Q(f)]`` on the full Fock space.

    Zero (exactly, in integer arithmetic) for every conserved sequence;
    generically nonzero when a boundary-pair condition is violated.  Two
    scipy products of H with the matrix of ``Q(f)``: the oracle of the
    batched kernel.
    """
    _check_support(spec.lattice, f.sites, f.closed, f.shape)
    qf = monomial_to_sparse(sequence_to_operator(f), spec.basis)
    return commutator(spec.h, qf).max_abs()


def conservation_sweep(spec: ModelSpec, sequences: list):
    """Largest max-abs entry of ``[H, Q(f)]`` over a user-given list of
    sequences, grouped by support into catalogue blocks: each support passes
    :func:`_check_support`, and no grammar check applies, so a sequence that
    breaks the pattern rule or a boundary pair returns its residual."""
    groups = {}
    for f in sequences:
        groups.setdefault((f.sites, f.closed, f.shape), []).append(f.values)
    for support in groups:
        _check_support(spec.lattice, *support)
    blocks = [([sites], np.int8(rows), shape) for (sites, _, shape), rows in groups.items()]
    return _catalogue_residual(spec, _member_masks(spec.lattice, blocks))


def lattice_sweep(spec: ModelSpec) -> tuple:
    """Largest max-abs entry of ``[H, Q(f)]`` over every member of
    :func:`lattice_sequences`, and their number, from the word rows of
    :func:`_catalogue` on rings, chains and tori alike."""
    masks = _member_masks(spec.lattice, _catalogue(spec.lattice))
    return _catalogue_residual(spec, masks), len(masks)


def _catalogue(lattice) -> list:
    """The conserved sequences of ``lattice`` as validated blocks ``(supports,
    words, shape)``: per arc length on a ring and per interval length on a
    chain, the words at every even start that fits, then the full-ring rows;
    on a torus the constant rows on the even-origin ``(w-1) x (h-1)``
    rectangles, then on the whole torus."""
    if lattice.dimension == 2:
        if not lattice.periodic:
            raise ValueError("2D constants are defined on tori")
        w, h = lattice.shape
        origins = [(x, y) for x in range(0, w, 2) for y in range(0, h, 2)]
        rects = [rectangle_sites(lattice, x, y, w - 1, h - 1) for x, y in origins]
        constant = np.int8([[-1], [1]])
        blocks = [
            (rects, constant.repeat(len(rects[0]), 1), (w - 1, h - 1)),
            ([lattice.sites], constant.repeat(lattice.nsites, 1), lattice.shape),
        ]
    elif lattice.periodic:
        starts, arc_words = _arc_words(lattice)
        blocks = [
            ([_arc_sites(lattice, s, d) for s in starts], words, None)
            for d, words in enumerate(arc_words, 1)
        ] + [([lattice.sites], _ring_words(lattice), None)]
    else:
        lo, hi = lattice.sites[0], lattice.sites[-1]
        blocks = []
        for n in range(3, hi - lo + 2, 2):
            runs = [_run(lattice, s, n, None) for s in range(lo, hi - n + 2, 2)]
            blocks.append((runs, _interval_words(n), None))
    _validate_blocks(lattice, blocks)
    return blocks


def _member_count(blocks: list) -> int:
    return sum(len(supports) * len(words) for supports, words, _ in blocks)


def _validate_blocks(lattice, blocks: list) -> None:
    """Reject (``ValueError``) a catalogue in block form that is not made of
    conserved sequences: every support passes :func:`_check_support` and
    holds one value per site; the values are ``+-1``, with no forbidden
    neighbourhood (wrapped on closed supports) and constant boundary pairs
    (every pair-line in 2D).  A block's ties are checked once, its rows once
    per distinct neighbourhood geometry of its supports."""
    for supports, words, shape in blocks:
        for sites in supports:
            _check_support(lattice, sites, _closed(lattice, sites), shape)
            if words.shape[1:] != (len(sites),):
                raise ValueError(f"rows of {words.shape[1:]} values on {len(sites)} sites")
        if not np.isin(words, (-1, 1)).all():
            raise ValueError("sequence values must be -1 or +1")
        closed = _closed(lattice, supports[0])
        for hoods in {tuple(grammar.hoods(s, closed, shape)) for s in supports}:
            center, *arms = np.intp(hoods).reshape(-1, 3 if shape is None else 5).T
            if grammar.forbidden(words[:, center], [words[:, a] for a in arms]).any():
                raise ValueError("a catalogue row has a forbidden neighbourhood")
        ties = () if closed else grammar.edge_ties(len(supports[0]), shape)
        if any((words[:, p] != words[:, q]).any() for p, q in ties):
            raise ValueError("a catalogue row breaks a boundary-pair condition")


def _row_masks(lattice, sites: tuple, rows: np.ndarray) -> np.ndarray:
    """The masks ``(S, P, M, c, T)`` of ``Q(f)`` for each value row on the
    ordered support ``sites``, as an int64 array of shape ``(rows, 5)``.
    The sites are distinct, so ``T = S``; ``S``, ``M`` and ``c`` depend on
    the support alone, so one :func:`~nicolai.fock.jordan_wigner_masks`
    call on its all-annihilation monomial gives them; ``P`` collects the
    ranks that hold ``-1``."""
    mono = FermionMonomial(1, tuple((s, ANNIHILATE) for s in sites))
    support, _, string, crossings, _ = jordan_wigner_masks(mono, lattice)
    weights = 1 << np.array([lattice.rank(s) for s in sites], dtype=np.int64)
    masks = np.empty((len(rows), 5), dtype=np.int64)
    masks[:, 0], masks[:, 2], masks[:, 3], masks[:, 4] = support, string, crossings, support
    masks[:, 1] = (rows < 0) @ weights
    return masks


def _member_masks(lattice, blocks: list) -> np.ndarray:
    """The masks of every member of a catalogue in block form, support by
    support and row by row (:func:`lattice_sequences` order on a ring)."""
    masks = [_row_masks(lattice, sites, words) for sup, words, _ in blocks for sites in sup]
    return np.concatenate(masks) if masks else np.empty((0, 5), dtype=np.int64)


def _member_labels(lattice, blocks: list) -> list:
    """:meth:`ConservedSequence.label` of every member, in
    :func:`_member_masks` order."""
    labels = []
    for supports, words, shape in blocks:
        patterns = grammar.spell(words, "-+")
        for sites in supports:
            kind = _support_label(sites, _closed(lattice, sites), shape)
            labels += [f"{kind}:{p}" for p in patterns]
    return labels


def _pair_keys(support: np.ndarray, pattern: np.ndarray, n: int) -> np.ndarray:
    """The int64 key ``S << n | P`` of each pair of ``n``-bit masks;
    ``OverflowError`` where it does not fit."""
    if 2 * n > 63:
        raise OverflowError(f"packed keys of {n}-site masks do not fit in int64")
    return support << n | pattern


def _orbit_rows(spec: ModelSpec, masks: np.ndarray) -> np.ndarray:
    """The ascending indices of one row of ``masks`` per orbit of the pairs
    ``(S, P)`` under the group of ``spec.shifts``: the first row of each
    least key ``g(S) << n | g(P)`` over the group, which is the key with g
    applied to each of its two n-bit halves."""
    n = spec.lattice.nsites
    own = _pair_keys(masks[:, 0], masks[:, 1], n)
    key = own.copy()
    for g in _shift_group(spec.shifts, n)[1:]:
        np.minimum(key, _permute_bits(own, (*g, *(n + r for r in g))), out=key)
    return np.sort(np.unique(key, return_index=True)[1])


def _catalogue_residual(spec: ModelSpec, masks: np.ndarray):
    """Largest max-abs entry of ``[H, Q(f)]`` over the charges with the
    ``(S, P, M, c, T)`` rows ``masks``, from one row per orbit
    (:func:`_orbit_rows`).  The residual of a charge depends on ``(S, P)``
    alone (its factor order sets only its sign), and a certified shift maps
    ``[H, Q(f)]`` onto ``+-[H, Q(g f)]`` (:attr:`ModelSpec.shifts`), so
    every member of an orbit has the same residual, however the rows were
    built.  With no certified shift every distinct row is checked."""
    return _mask_residuals(spec, masks[_orbit_rows(spec, masks)]).max(initial=0)


# Gathered (sequence, row, column) entries per chunk of the batched
# commutator: at a handful of int64 arrays of this length (keys, values,
# gather positions, sort order) a chunk's temporaries stay at a few MB.  A
# sequence larger than this is a chunk of its own.
_CHUNK_ENTRIES = 1 << 17


def _max_chunk_sequences(dim: int) -> int:
    """Most sequences one chunk may hold: the packed key
    ``(local id * dim + row) * dim + col`` stays below ``k * dim**2``,
    which must fit in int64."""
    k = int(np.iinfo(np.int64).max) // (dim * dim)
    if k < 1:
        raise OverflowError(f"packed keys of dimension {dim} do not fit in int64")
    return k


def _chunks(sizes: list, dim: int):
    """Consecutive ``(start, stop)`` runs of sequences whose bounded entry
    counts sum to at most ``_CHUNK_ENTRIES`` (one sequence at least) and
    whose packed keys fit in int64."""
    most = _max_chunk_sequences(dim)
    start = total = 0
    for q, size in enumerate(sizes):
        if q > start and (total + size > _CHUNK_ENTRIES or q - start == most):
            yield start, q
            start, total = q, 0
        total += size
    if sizes:
        yield start, len(sizes)


def _mask_residuals(spec: ModelSpec, masks: np.ndarray) -> np.ndarray:
    """Max-abs entry of ``[H, Q(f)]`` for each ``Q(f)`` given by its masks
    (``(S, P, M, c, T)`` rows, decoded by :func:`nicolai.fock._signed_images`),
    exact in H's dtype, without building any ``Q(f)``: the one int64 kernel
    behind both sweeps.

    ``Q(f)`` is a signed partial permutation (:func:`jordan_wigner_masks`):
    column ``j`` survives iff ``j & T == P``, lands on row ``j ^ S`` with
    sign ``s(j) = (-1)**(popcount(j & M) + c)``.  Hence

        [H, Q](i, j) = s(j) H[i, j^S] [j alive] - s(i^S) H[i^S, j] [i^S alive]

    The first term reads column ``j ^ S`` of H, which is its row ``j ^ S``
    (``ModelSpec.h`` is ``{Q, Q^T}``, exactly symmetric in int64), the
    second row ``r = i ^ S`` of H, both for every alive state.  A chunk of
    rows gathers all these entries, packs (local row, row of H, column)
    into int64 keys, sums equal keys after one sort and takes the largest
    magnitude per row.
    """
    h = spec.h.matrix
    dim, n = h.shape[0], spec.lattice.nsites
    out = np.zeros(len(masks), dtype=h.dtype)
    widest = 2 * int(np.diff(h.indptr).max(initial=0))
    free = {t: _states_off(t, n) for t in np.unique(masks[:, 4]).tolist()}
    sizes = (widest << (n - np.bitwise_count(masks[:, 4]).astype(np.int64))).tolist()
    for start, stop in _chunks(sizes, dim):
        seq, alive, image, sign = _signed_images(masks[start:stop], free)
        # s(j) H[i, j^S]: row j^S of H holds column j^S of H
        own_a, pos_a = _row_entries(h, image)
        # -s(r) H[r, j] lands on row r^S
        own_b, pos_b = _row_entries(h, alive)
        keys = np.concatenate((
            (seq[own_a] * dim + h.indices[pos_a]) * dim + alive[own_a],
            (seq[own_b] * dim + image[own_b]) * dim + h.indices[pos_b],
        ))
        if not len(keys):
            continue
        values = np.concatenate((sign[own_a] * h.data[pos_a], -sign[own_b] * h.data[pos_b]))
        order = np.argsort(keys)
        keys = keys[order]
        first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        sums = np.add.reduceat(values[order], first)
        hit = sums != 0
        np.maximum.at(out, start + keys[first[hit]] // (dim * dim), np.abs(sums[hit]))
    return out


def vanishing_triple_products(spec: ModelSpec, f: ConservedSequence):
    """Largest normal-form coefficient over the products ``Q(f) m`` and
    ``m Q(f)``, each decided on its own, for ``m`` every elementary charge
    whose support meets the support of ``f`` and its adjoint; 0 exactly
    when every product is the zero operator.  No Fock space is built.

    This is the local mechanism behind conservation: each such product is the
    zero operator, while disjoint charges anticommute with ``Q(f)``.
    """
    _check_support(spec.lattice, f.sites, f.closed, f.shape)
    qf = sequence_to_operator(f)
    support = set(f.sites)
    meeting = [m for q in spec.q_sum.terms if q.support & support for m in (q, q.adjoint())]
    products = [p for m in meeting for p in (qf * m, m * qf)]
    return max((_largest_coefficient(spec.lattice, p) for p in products), default=0)


@dataclass
class IndependenceReport:
    """Linear (in)dependence among charge generators and their products."""

    generator_count: int
    generator_rank: int
    max_degree: int
    product_count: int
    product_rank: int

    @property
    def dependencies_found(self) -> bool:
        return self.product_rank < self.product_count


def independence_probe(
    operators: list, max_degree: int = 2
) -> IndependenceReport:
    """Rank of the span of all ordered products of the generators up to
    ``max_degree`` factors, as a proxy for algebraic independence.

    The products stay int64 sparse operators, and both ranks come from their
    exact integer Hilbert-Schmidt Gram matrix (:func:`span_dimension`).
    """
    if not operators:
        raise ValueError("need at least one generator")
    if operators[0].dim > 4096:
        raise ValueError("independence probe is restricted to small spaces")
    products = list(operators)
    level = list(operators)
    for _ in range(2, max_degree + 1):
        level = [prev @ m for prev in level for m in operators]
        products.extend(level)
    return IndependenceReport(
        generator_count=len(operators),
        generator_rank=span_dimension(operators),
        max_degree=max_degree,
        product_count=len(products),
        product_rank=span_dimension(products),
    )


def transfer_count_hat_xi(k: int, l: int) -> int:
    """Transfer-matrix count of the conserved sequences on ``[2k, 2l]``."""
    if k >= l:
        raise ValueError(f"need k < l, got k={k}, l={l}")
    # constant boundary pairs: start in (-,-) or (+,+); the final lone site
    # is pinned to its left neighbour, so it contributes no factor
    return int(grammar.transfer_power(l - k - 1)[[0, 3], :].sum())


def transfer_count_ring_sequences(lattice) -> int:
    """Transfer-matrix count of permitted sequences on the full ring."""
    if lattice.dimension != 1 or not lattice.periodic:
        raise ValueError("ring counting requires a periodic 1D lattice")
    return grammar.ring_word_count(lattice.nsites)


def rectangle_sites(lattice, x0: int, y0: int, nx: int, ny: int) -> tuple:
    """Row-major sites of an even-aligned (possibly wrapped) rectangle arc."""
    if lattice.dimension != 2:
        raise ValueError("rectangles live on 2D lattices")
    if x0 % 2 or y0 % 2:
        raise ValueError("rectangles start on even-even sites")
    sites = _run(lattice, (x0, y0), nx * ny, (nx, ny))
    if len(set(sites)) != len(sites):
        raise ValueError("rectangle wraps onto itself")
    return sites


def rect_constant_sequence(lattice, x0, y0, nx, ny, value: int) -> ConservedSequence:
    """The constant ``+-1`` sequence on an even-aligned rectangle."""
    sites = rectangle_sites(lattice, x0, y0, nx, ny)
    return ConservedSequence(sites, (value,) * len(sites), shape=(nx, ny))


def torus_constant_sequence(lattice, value: int) -> ConservedSequence:
    """The constant sequence covering the whole torus."""
    if lattice.dimension != 2 or not lattice.periodic:
        raise ValueError("needs a torus")
    return ConservedSequence(
        lattice.sites, (value,) * lattice.nsites, closed=True, shape=lattice.shape
    )


def enumerate_rectangle_sequences(lattice, x0, y0, nx, ny) -> list:
    """All permitted rectangle sequences with constant boundary pair-lines,
    in lexicographic row-major order with ``-1 < +1``."""
    sites = rectangle_sites(lattice, x0, y0, nx, ny)
    if nx * ny > 16:
        raise ValueError("exhaustive rectangle enumeration capped at 16 sites")
    shape = (nx, ny)
    hoods, ties = grammar.hoods(sites, False, shape), grammar.edge_ties(nx * ny, shape)
    words = grammar.permitted_words(nx * ny, hoods, (-1, 1), ties)
    return [ConservedSequence(sites, v, shape=shape) for v in map(tuple, words.tolist())]


def reference_interval_tables() -> dict:
    """The shipped golden tables for the three smallest interval sets,
    keyed by ``l`` (interval ``[0, 2l]``), rows in the published order."""
    tables = {}
    for l in (1, 2, 3):
        text = (
            resources.files("nicolai")
            .joinpath(f"tables/hat_xi_0{l}.json")
            .read_text()
        )
        data = json.loads(text)
        lo, hi = data["interval"]
        sites = tuple(range(lo, hi + 1))
        tables[l] = [
            ConservedSequence(sites, tuple(row)) for row in data["rows"]
        ]
    return tables


def sample_edge_violating_sequences(lattice, count: int, rng) -> list:
    """Random permitted arc sequences violating at least one boundary pair."""
    n = lattice.nsites
    ds = list(range(1, (n - 2) // 2 + 1))
    evens = sorted(s for s in lattice.sites if s % 2 == 0)
    out = []
    while len(out) < count:
        d = ds[rng.integers(len(ds))]
        start = evens[rng.integers(len(evens))]
        sites = _arc_sites(lattice, start, d)
        values = tuple(rng.choice((-1, 1)) for _ in sites)
        seq = ConservedSequence(sites, values)
        if is_permitted(seq) and not has_edge_conditions(seq):
            out.append(seq)
    return out
