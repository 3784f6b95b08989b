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

A ring's catalogue is held only as word rows: the even starts and, per arc
length, the interval words every start shares (:func:`_arc_words`), plus
the full-ring rows (:func:`_ring_words`), built and validated once by
:func:`_ring_catalogue`.  The masks and labels of every member are read off
the rows (:func:`_member_masks`, :func:`_member_labels`), with no Python
object per charge; the same rows at the lowest start and at the least
rotations give one member per shift-by-2 orbit, which is what
:func:`_catalogue_residual` certifies.  :func:`lattice_sweep` and the
ergodicity report take this path on every ring.  :func:`conservation_sweep`
certifies a list of sequence objects (chains, tori, user-given lists), one
:func:`~nicolai.fock.jordan_wigner_masks` call each.  Both feed the masks to
one int64 kernel, :func:`_mask_residuals`, and :func:`conservation_check`
(two scipy products per charge) is its oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import grammar
from .fock import (
    ANNIHILATE,
    CREATE,
    FermionMonomial,
    FockBasis,
    anticommutator,
    commutator,
    jordan_wigner_masks,
    monomial_to_sparse,
    span_dimension,
)
from .model import ModelSpec, charge_hoods

__all__ = [
    "ConservedSequence",
    "ChargeAlgebraReport",
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
    "shift2_representative",
    "conservation_sweep",
    "lattice_sweep",
    "vanishing_triple_products",
    "independence_probe",
    "charge_algebra_report",
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
        if self.shape is not None:
            kind = "torus" if self.closed else f"rect{self.shape[0]}x{self.shape[1]}@{self.sites[0]}"
            return f"{kind}:{self.pattern}"
        if self.closed:
            return f"ring:{self.pattern}"
        return f"[{self.sites[0]},{self.sites[-1]}]:{self.pattern}"

    def to_json_obj(self) -> list:
        return [
            {"site": list(s) if isinstance(s, tuple) else s, "value": v}
            for s, v in zip(self.sites, self.values)
        ]


def is_permitted(f: ConservedSequence) -> bool:
    """No forbidden even-centered triple (1D) or forbidden cross (2D)."""
    return grammar.permitted(f.values, grammar.hoods(f.sites, f.closed, f.shape))


def has_edge_conditions(f: ConservedSequence) -> bool:
    """Constant boundary pairs: both ends in 1D, all four pair-lines in 2D."""
    if f.closed:
        raise ValueError("edge conditions apply to open supports only")
    v = f.values
    return all(v[p] == v[q] for p, q in grammar.edge_ties(len(f), f.shape))


def _interval_words(n: int) -> np.ndarray:
    """Permitted value rows on ``n`` positions starting at an even site, with
    both boundary pairs constant; lexicographic with ``-1 < +1``."""
    hoods = grammar.hoods(range(n), closed=False)
    return grammar.permitted_words(n, hoods, (-1, 1), ties=grammar.edge_ties(n))


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
    length = 2 * d + 1
    if length >= lattice.nsites:
        raise ValueError("arc support must be a proper arc of the ring")
    return tuple(lattice.wrap(start + j) for j in range(length))


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
    words = [_interval_words(2 * d + 1) for d in range(1, (lattice.nsites - 2) // 2 + 1)]
    return starts, words


def all_embeddable_sequences(lattice) -> list:
    """Every interval sequence that embeds in the ring as a proper arc."""
    starts, words = _arc_words(lattice)
    arcs = [(_arc_sites(lattice, s, d), w) for d, w in enumerate(words, 1) for s in starts]
    return [f for sites, w in arcs for f in _sequences(sites, w)]


def _ring_words(lattice) -> np.ndarray:
    if lattice.dimension != 1 or not lattice.periodic:
        raise ValueError("full-ring sequences require a periodic 1D lattice")
    return grammar.permitted_words(lattice.nsites, charge_hoods(lattice), (-1, 1))


def enumerate_ring_sequences(lattice) -> list:
    """All permitted sequences on the whole ring, wrapped triples included.

    No boundary-pair condition applies: the ring has no edges.  Lexicographic
    order over the ring traversal.
    """
    return _sequences(lattice.sites, _ring_words(lattice), closed=True)


def lattice_sequences(lattice) -> list:
    """The conserved sequences the model on ``lattice`` carries.

    On a ring, every proper arc and then every full-ring sequence; on an open
    chain, every interval sequence inside it; on a torus, the two constant
    sequences on each even-origin ``(w-1) x (h-1)`` rectangle and then the two
    torus constants.
    """
    if lattice.dimension == 2:
        if not lattice.periodic:
            raise ValueError("2D constants are defined on tori")
        w, h = lattice.shape
        rects = [
            rect_constant_sequence(lattice, x0, y0, w - 1, h - 1, val)
            for x0 in range(0, w, 2)
            for y0 in range(0, h, 2)
            for val in (-1, 1)
        ]
        return rects + [torus_constant_sequence(lattice, val) for val in (-1, 1)]
    if lattice.periodic:
        return all_embeddable_sequences(lattice) + enumerate_ring_sequences(lattice)
    lo, hi = lattice.sites[0], lattice.sites[-1]
    return [
        f
        for k in range(lo // 2, hi // 2)
        for l in range(k + 1, hi // 2 + 1)
        for f in enumerate_hat_xi(k, l)
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


def adjoint_identity_check(f: ConservedSequence, basis: FockBasis) -> bool:
    """Matrix identity ``Q(f)* == (-1)**sigma * Q(-f)`` on interval supports."""
    if f.closed or f.shape is not None:
        raise ValueError("the adjoint sign identity is stated for intervals")
    d = (len(f) - 1) // 2
    sign = -1 if sign_sigma(0, d) % 2 else 1
    op = monomial_to_sparse(sequence_to_operator(f), basis)
    neg = monomial_to_sparse(sequence_to_operator(-f), basis)
    return (op.adjoint() - sign * neg).is_zero()


def anticommute_check(f: ConservedSequence, g: ConservedSequence, basis: FockBasis):
    """Max-abs entry of ``{Q(f), Q(g)}``; zero unless the supports overlap
    with ``f == -g`` on the whole overlap."""
    a = monomial_to_sparse(sequence_to_operator(f), basis)
    b = monomial_to_sparse(sequence_to_operator(g), basis)
    return anticommutator(a, b).max_abs()


def overlap_allows_nonzero(f: ConservedSequence, g: ConservedSequence) -> bool:
    """True when the supports intersect and ``f == -g`` on the intersection."""
    fv = dict(zip(f.sites, f.values))
    gv = dict(zip(g.sites, g.values))
    common = set(fv) & set(gv)
    if not common:
        return False
    return all(fv[s] == -gv[s] for s in common)


def _validate_support(f: ConservedSequence, lattice):
    for s in f.sites:
        if not lattice.contains(s):
            raise ValueError(f"support site {s!r} outside the lattice")
    if f.closed:
        if set(f.sites) != set(lattice.sites):
            raise ValueError("closed sequences must cover the whole lattice")
        return
    if f.shape is None:
        if len(f) < 3 or len(f) % 2 == 0:
            raise ValueError("interval supports have odd length >= 3")
        if f.sites[0] % 2 or f.sites[-1] % 2:
            raise ValueError("interval supports end on even sites")
        if lattice.periodic and len(f) >= lattice.nsites:
            raise ValueError("arc support must be a proper arc of the ring")
        for a, b in zip(f.sites, f.sites[1:]):
            if lattice.wrap(a + 1) != b:
                raise ValueError("interval support is not contiguous")
    else:
        nx, ny = f.shape
        if nx % 2 == 0 or ny % 2 == 0 or nx < 3 or ny < 3:
            raise ValueError("rectangle supports have odd side lengths >= 3")
        x0, y0 = f.sites[0]
        if x0 % 2 or y0 % 2:
            raise ValueError("rectangle supports start on even-even sites")
        w, h = lattice.shape
        if nx > w - 1 or ny > h - 1:
            raise ValueError("rectangle must be proper in both directions")


def conservation_check(spec: ModelSpec, f: ConservedSequence):
    """Max-abs entry of ``[H, Q(f)]`` on the full Fock space.

    Zero (exactly, in integer arithmetic) for every conserved sequence;
    generically nonzero when a boundary-pair condition is violated.  Two
    scipy products of H with the matrix of ``Q(f)``: the oracle of the
    batched kernel behind :func:`conservation_sweep`, and its fallback for a
    support that repeats a site.
    """
    _validate_support(f, spec.lattice)
    qf = monomial_to_sparse(sequence_to_operator(f), spec.basis)
    return commutator(spec.h, qf).max_abs()


def shift2_representative(f: ConservedSequence, lattice) -> ConservedSequence:
    """The member of the shift-by-2 orbit of ``f`` that stands for the orbit:
    an arc moved to the lowest even start of the ring, a closed sequence at
    the least of its value rotations by two.  ``f`` itself when it is
    neither an arc from an even site nor a closed sequence in ring order."""
    if f.closed:
        if f.sites != lattice.sites:
            return f
        v = f.values
        return ConservedSequence(
            f.sites, min(v[k:] + v[:k] for k in range(0, len(v), 2)), closed=True
        )
    lo = lattice.sites[lattice.sites[0] % 2]
    delta = f.sites[0] - lo
    if f.shape is not None or delta % 2 or delta == 0:
        return f
    return ConservedSequence(tuple(lattice.wrap(s - delta) for s in f.sites), f.values)


def conservation_sweep(spec: ModelSpec, sequences: list):
    """Largest max-abs entry of ``[H, Q(f)]`` over the list ``sequences``.

    The object path (chains, tori, user-given lists; the oracle of
    :func:`_catalogue_residual`): every sequence is validated and checked,
    with one :func:`jordan_wigner_masks` call each and the int64 kernel
    (:func:`_commutator_residuals`).
    """
    for f in sequences:
        _validate_support(f, spec.lattice)
    return _commutator_residuals(spec, sequences).max(initial=0)


def lattice_sweep(spec: ModelSpec) -> tuple:
    """Largest max-abs entry of ``[H, Q(f)]`` over every ``f`` of
    ``lattice_sequences(spec.lattice)``, and the number of those sequences.

    Rings take the word rows (:func:`_catalogue_residual`), chains and tori
    :func:`conservation_sweep` on the sequence objects.
    """
    lat = spec.lattice
    if lat.dimension != 1 or not lat.periodic:
        seqs = lattice_sequences(lat)
        return conservation_sweep(spec, seqs), len(seqs)
    starts, arc_words, ring_words = rows = _ring_catalogue(lat)
    count = len(starts) * sum(map(len, arc_words)) + len(ring_words)
    return _catalogue_residual(spec, *rows), count


def _ring_catalogue(lattice) -> tuple:
    """``(starts, arc_words, ring_words)`` of a ring, validated once."""
    rows = (*_arc_words(lattice), _ring_words(lattice))
    _validate_rows(lattice, *rows)
    return rows


def _validate_rows(lattice, starts: list, arc_words: list, ring_words: np.ndarray) -> None:
    """Reject (``ValueError``) a ring catalogue in array form that is not
    made of conserved sequences, with the checks of :func:`_validate_support`
    and of the grammar: even starts on the ring, arcs of ``2d+1 < n`` sites
    for ``d = 1, 2, ...``, values ``+-1``, no forbidden neighbourhood
    (wrapped on the full ring) and both boundary pairs of every arc
    constant.  Every start carries the same words and puts even sites at
    the same word positions, so the arc rows are checked once, on the arc
    from the lowest even start."""
    if not all(lattice.contains(s) and s % 2 == 0 for s in starts):
        raise ValueError("arcs start on even sites of the ring")
    supports = [
        (words, _arc_sites(lattice, min(starts), d), grammar.edge_ties(2 * d + 1))
        for d, words in enumerate(arc_words, 1)
    ]
    for words, sites, ties in supports + [(ring_words, lattice.sites, ())]:
        if words.shape[1:] != (len(sites),):
            raise ValueError(f"rows of {words.shape[1:]} values on {len(sites)} sites")
        if not np.isin(words, (-1, 1)).all():
            raise ValueError("sequence values must be -1 or +1")
        closed = len(sites) == lattice.nsites
        center, *arms = np.array(grammar.hoods(sites, closed), dtype=np.intp).reshape(-1, 3).T
        if grammar.forbidden(words[:, center], [words[:, a] for a in arms]).any():
            raise ValueError("a catalogue row has a forbidden triple")
        if any((words[:, p] != words[:, q]).any() for p, q in ties):
            raise ValueError("a catalogue arc breaks a boundary-pair condition")


def _least_rotations(words: np.ndarray) -> np.ndarray:
    """One row per class of the closed ``words`` under rotation by two: the
    least rotation (lexicographic, ``-1 < +1``), in ascending order.

    A row is the integer key with bit ``n-1-i`` set where position ``i``
    holds ``+1``, so key order is row order, and a rotation left by ``k``
    positions (``v[k:] + v[:k]``) is a rotation of the key's ``n`` bits."""
    n = words.shape[1]
    full = (1 << n) - 1
    key = np.where(words > 0, 1 << np.arange(n - 1, -1, -1, dtype=np.int64), 0).sum(axis=1)
    least = key.copy()
    for k in range(2, n, 2):
        np.minimum(least, (key << k) & full | key >> (n - k), out=least)
    bits = np.unique(least)[:, None] >> np.arange(n - 1, -1, -1) & 1
    return (2 * bits - 1).astype(np.int8)


def _row_masks(lattice, sites: tuple, rows: np.ndarray) -> np.ndarray:
    """The masks ``(S, P, M, c)`` of ``Q(f)`` for each value row on the
    ordered support ``sites``, as an int64 array of shape ``(rows, 4)``.
    ``S``, ``M`` and ``c`` depend on the support alone, so one
    :func:`~nicolai.fock.jordan_wigner_masks` call on its all-annihilation
    monomial gives them; ``P`` collects the ranks that hold ``-1``."""
    mono = FermionMonomial(1, tuple((s, ANNIHILATE) for s in sites))
    support, _, string, crossings = jordan_wigner_masks(mono, lattice)
    weights = 1 << np.array([lattice.rank(s) for s in sites], dtype=np.int64)
    masks = np.empty((len(rows), 4), dtype=np.int64)
    masks[:, 0], masks[:, 2], masks[:, 3] = support, string, crossings
    masks[:, 1] = np.where(rows < 0, weights, 0).sum(axis=1)
    return masks


def _member_masks(lattice, starts: list, arc_words: list, ring_words: np.ndarray) -> np.ndarray:
    """The masks of every member of a ring catalogue in array form, in
    :func:`lattice_sequences` order.  With ``[min(starts)]`` and
    :func:`_least_rotations` of the closed rows: one member per shift-by-2
    orbit, the set :func:`shift2_representative` picks."""
    arcs = [
        _row_masks(lattice, _arc_sites(lattice, s, d), words)
        for d, words in enumerate(arc_words, 1)
        for s in starts
    ]
    return np.concatenate(arcs + [_row_masks(lattice, lattice.sites, ring_words)])


def _patterns(words: np.ndarray) -> list:
    """The ``+``/``-`` pattern of each value row."""
    return np.where(words > 0, "+", "-").view(f"U{words.shape[1]}").ravel().tolist()


def _member_labels(lattice, starts: list, arc_words: list, ring_words: np.ndarray) -> list:
    """:meth:`ConservedSequence.label` of every member, in
    :func:`_member_masks` order."""
    labels = []
    for d, words in enumerate(arc_words, 1):
        patterns = _patterns(words)
        for s in starts:
            a, *_, b = _arc_sites(lattice, s, d)
            labels += [f"[{a},{b}]:{p}" for p in patterns]
    return labels + [f"ring:{p}" for p in _patterns(ring_words)]


def _catalogue_residual(spec: ModelSpec, starts: list, arc_words: list, ring_words: np.ndarray):
    """Largest max-abs entry of ``[H, Q(f)]`` over the members of a
    (validated) ring catalogue in array form.  When H passes the exact
    translation certificate (``spec.h_translation2_invariant``:
    ``{TQ, (TQ)*} == H`` for the shift T by two sites), one residual per
    shift-by-2 orbit certifies every member, so only the rows at the lowest
    even start and the least rotations of the closed rows are checked.  The
    shift is the CAR automorphism ``a_x -> a_(x+2)``, implemented by a
    unitary U that permutes the Fock basis up to signs; the certificate says
    ``U H U* == H``, and ``U Q(f) U* == Q(Tf)`` (for a closed sequence the
    two factors that wrap move past the other ``n - 2``, an even number of
    odd swaps), so ``[H, Q(Tf)] == U [H, Q(f)] U*`` has the same max-abs
    entry.  Without the certificate every member row is checked."""
    if spec.h_translation2_invariant:
        starts, ring_words = [min(starts)], _least_rotations(ring_words)
    masks = _member_masks(spec.lattice, starts, arc_words, ring_words)
    return _mask_residuals(spec, masks).max(initial=0)


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


def _chunks(sizes: list, dim: int, budget: int | None = None):
    """Consecutive ``(start, stop)`` runs of sequences whose bounded entry
    counts sum to at most ``budget`` (``_CHUNK_ENTRIES`` by default; one
    sequence at least) and whose packed keys fit in int64."""
    budget = _CHUNK_ENTRIES if budget is None else budget
    most = _max_chunk_sequences(dim)
    start = total = 0
    for q, size in enumerate(sizes):
        if q > start and (total + size > budget or q - start == most):
            yield start, q
            start, total = q, 0
        total += size
    yield start, len(sizes)


def _row_entries(m, rows: np.ndarray):
    """For the CSR rows ``rows`` of ``m``: the index into ``rows`` that owns
    each stored entry, and that entry's position in ``m.indices``/``m.data``."""
    first = m.indptr[rows]
    count = m.indptr[rows + 1] - first
    owner = np.repeat(np.arange(len(rows)), count)
    skip = np.repeat(first - (np.cumsum(count) - count), count)
    return owner, np.arange(len(owner)) + skip


def _states_off(mask: int, n: int) -> np.ndarray:
    """Every ``n``-bit state with no bit of ``mask`` set."""
    states = np.zeros(1, dtype=np.int64)
    for r in range(n):
        if not mask >> r & 1:
            states = np.concatenate((states, states | 1 << r))
    return states


def _signed_images(masks, free: dict):
    """Every surviving column of the ``Q(f)`` given by ``masks``, rows of
    :func:`jordan_wigner_masks` tuples ``(S, P, M, c)`` (a list of tuples or
    an int64 array of shape ``(k, 4)``): the index into ``masks`` that owns
    it, the alive state ``j``, its image ``j ^ S`` and the sign
    ``s(j) = (-1)**(popcount(j & M) + c)``.  ``free[S]`` holds the states
    with no bit of ``S`` set (:func:`_states_off`); each run of rows that
    share ``S`` takes its alive states in one broadcast."""
    support, annihilated, string, crossings = np.asarray(masks, dtype=np.int64).reshape(-1, 4).T
    cut = np.flatnonzero(np.diff(support)) + 1
    first, last = np.concatenate(([0], cut)), np.append(cut, len(support))
    blocks = [free[s] for s in support[first].tolist()]
    alive = np.concatenate(
        [(annihilated[a:b, None] | block).ravel() for a, b, block in zip(first, last, blocks)]
    )
    owner = np.repeat(np.arange(len(support)), np.repeat(list(map(len, blocks)), last - first))
    sign = 1 - 2 * ((np.bitwise_count(alive & string[owner]) + crossings[owner]) & 1)
    return owner, alive, alive ^ support[owner], sign


def _commutator_residuals(spec: ModelSpec, sequences: list) -> np.ndarray:
    """Max-abs entry of ``[H, Q(f)]`` for each of the (validated)
    ``sequences``: the object producer of :func:`_mask_residuals`, with one
    :func:`jordan_wigner_masks` call per sequence.  A support that repeats a
    site has no masks and falls back to :func:`conservation_check`."""
    lat = spec.lattice
    out = np.zeros(len(sequences), dtype=spec.h.matrix.dtype)
    batch, masks = [], []
    for q, f in enumerate(sequences):
        jw = jordan_wigner_masks(sequence_to_operator(f), lat)
        if jw is None:
            out[q] = conservation_check(spec, f)
        else:
            batch.append(q)
            masks.append(jw)
    if batch:
        out[batch] = _mask_residuals(spec, masks)
    return out


def _mask_residuals(spec: ModelSpec, masks) -> np.ndarray:
    """Max-abs entry of ``[H, Q(f)]`` for each ``Q(f)`` given by its masks
    (``(S, P, M, c)`` rows, see :func:`_signed_images`), exact in H's dtype,
    without building any ``Q(f)``: the one int64 kernel behind both sweeps.

    ``Q(f)`` is a signed partial permutation (:func:`jordan_wigner_masks`):
    column ``j`` survives iff ``j & S == P``, lands on row ``j ^ S`` with
    sign ``s(j) = (-1)**(popcount(j & M) + c)``.  Hence

        [H, Q](i, j) = s(j) H[i, j^S] [j alive] - s(i^S) H[i^S, j] [i^S alive]

    The first term reads column ``j ^ S`` of H (a row of its transpose,
    built once), the second row ``r = i ^ S`` of H, both for every alive
    state.  A chunk of rows gathers all these entries, packs (local row,
    row of H, column) into int64 keys, sums equal keys after one sort and
    takes the largest magnitude per row.
    """
    h = spec.h.matrix
    ht = h.T.tocsr()
    dim, n = h.shape[0], spec.lattice.nsites
    masks = np.asarray(masks, dtype=np.int64).reshape(-1, 4)
    out = np.zeros(len(masks), dtype=h.dtype)
    widest = int(np.diff(h.indptr).max(initial=0) + np.diff(ht.indptr).max(initial=0))
    free = {s: _states_off(s, n) for s in np.unique(masks[:, 0]).tolist()}
    sizes = (widest << (n - np.bitwise_count(masks[:, 0]).astype(np.int64))).tolist()
    for start, stop in _chunks(sizes, dim):
        seq, alive, image, sign = _signed_images(masks[start:stop], free)
        # s(j) H[i, j^S]: row j^S of H^T holds column j^S of H
        own_a, pos_a = _row_entries(ht, image)
        # -s(r) H[r, j] lands on row r^S
        own_b, pos_b = _row_entries(h, alive)
        keys = np.concatenate((
            (seq[own_a] * dim + ht.indices[pos_a]) * dim + alive[own_a],
            (seq[own_b] * dim + image[own_b]) * dim + h.indices[pos_b],
        ))
        if not len(keys):
            continue
        values = np.concatenate((sign[own_a] * ht.data[pos_a], -sign[own_b] * h.data[pos_b]))
        order = np.argsort(keys)
        keys = keys[order]
        first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        sums = np.add.reduceat(values[order], first)
        hit = sums != 0
        np.maximum.at(out, start + keys[first[hit]] // (dim * dim), np.abs(sums[hit]))
    return out


def vanishing_triple_products(spec: ModelSpec, f: ConservedSequence):
    """Max-abs entry over all products of ``Q(f)`` with the elementary charges
    whose support meets the support of ``f`` (both orders, charge and adjoint).

    This is the local mechanism behind conservation: each such product is the
    zero operator, while disjoint charges anticommute with ``Q(f)``.
    """
    _validate_support(f, spec.lattice)
    qf = monomial_to_sparse(sequence_to_operator(f), spec.basis)
    support = set(f.sites)
    worst = 0
    for q in spec.q_sum.terms:
        if not q.support & support:
            continue
        qm = monomial_to_sparse(q, spec.basis)
        for m in (qm, qm.adjoint()):
            worst = max(worst, (qf @ m).max_abs(), (m @ qf).max_abs())
    return worst


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


@dataclass
class ChargeAlgebraReport:
    """Generators, their pairwise anticommutators, and the commutant check."""

    generators: list = field(default_factory=list)  # (sequence, monomial)
    pairwise_anticommutators: dict = field(default_factory=dict)
    commutant_check: float = 0

    @property
    def all_conserved(self) -> bool:
        return self.commutant_check == 0


def charge_algebra_report(spec: ModelSpec, sequences: list) -> ChargeAlgebraReport:
    """Realize the given sequences as charges and verify their algebra."""
    report = ChargeAlgebraReport()
    mats = []
    worst = 0
    for f in sequences:
        mono = sequence_to_operator(f)
        report.generators.append((f, mono))
        qf = monomial_to_sparse(mono, spec.basis)
        mats.append(qf)
        worst = max(worst, commutator(spec.h, qf).max_abs())
    report.commutant_check = worst
    for i in range(len(mats)):
        for j in range(i, len(mats)):
            report.pairwise_anticommutators[(i, j)] = anticommutator(
                mats[i], mats[j]
            ).max_abs()
    return report


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
    return int(np.trace(grammar.transfer_power(lattice.nsites // 2)))


def rectangle_sites(lattice, x0: int, y0: int, nx: int, ny: int) -> tuple:
    """Row-major sites of an even-aligned (possibly wrapped) rectangle arc."""
    if lattice.dimension != 2:
        raise ValueError("rectangles live on 2D lattices")
    if x0 % 2 or y0 % 2:
        raise ValueError("rectangles start on even-even sites")
    sites = tuple(
        lattice.wrap((x0 + i, y0 + j)) for i in range(nx) for j in range(ny)
    )
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
