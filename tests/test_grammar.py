"""Every enumerator against an exhaustive filter with literal pattern tables.

The tables below are written out by hand; the brute force shares no code
with the enumerators, and each comparison is element for element, in order.
The word enumerator itself is checked on random neighbourhoods and ties
against a filter of every word through the scalar rule, and the
boundary-pair predicate against its literal definition on random words.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicolai import (
    ConservedSequence,
    Lattice,
    ModelSpec,
    all_embeddable_sequences,
    enumerate_ground_configs,
    enumerate_hat_xi,
    enumerate_ring_sequences,
    grammar,
)
from nicolai.charges import enumerate_rectangle_sequences, has_edge_conditions
from nicolai.groundstates import ground_config_mask
from nicolai.model import charge_hoods

SEQUENCE_TRIPLES = {(-1, 1, -1), (1, -1, 1)}  # (left, center, right)
OCCUPATION_TRIPLES = {(0, 1, 0), (1, 0, 1)}
OCCUPATION_CROSSES = {(1, (0, 0, 0, 0)), (0, (1, 1, 1, 1))}  # (center, arms)
SEQUENCE_CROSSES = {(1, (-1, -1, -1, -1)), (-1, (1, 1, 1, 1))}


def interval_words(n):
    """Words on positions 0..n-1 (position 0 an even site), constant boundary
    pairs, no forbidden triple centered at an interior even position."""
    return [
        w
        for w in itertools.product((-1, 1), repeat=n)
        if w[0] == w[1]
        and w[-2] == w[-1]
        and all(w[p - 1 : p + 2] not in SEQUENCE_TRIPLES for p in range(2, n - 1, 2))
    ]


def brute_hat_xi(l):
    return [(tuple(range(2 * l + 1)), w) for w in interval_words(2 * l + 1)]


def brute_arcs(lat):
    n = lat.nsites
    starts = sorted(s for s in lat.sites if s % 2 == 0)
    return [
        (tuple(lat.wrap(start + j) for j in range(length)), w)
        for length in range(3, n, 2)
        for start in starts
        for w in interval_words(length)
    ]


def triples_1d(lat):
    """Rank triples (left, center, right) at every even site whose
    neighbours exist, wrapped on rings."""
    n = lat.nsites
    out = []
    for p, c in enumerate(lat.sites):
        if c % 2:
            continue
        if lat.periodic:
            out.append(((p - 1) % n, p, (p + 1) % n))
        elif 0 < p < n - 1:
            out.append((p - 1, p, p + 1))
    return out


def brute_ring_sequences(lat):
    triples = triples_1d(lat)
    return [
        (lat.sites, w)
        for w in itertools.product((-1, 1), repeat=lat.nsites)
        if all((w[a], w[b], w[c]) not in SEQUENCE_TRIPLES for a, b, c in triples)
    ]


def brute_ground_configs(lat):
    words = itertools.product((0, 1), repeat=lat.nsites)
    if lat.dimension == 1:
        triples = triples_1d(lat)
        return [
            w for w in words
            if all((w[a], w[b], w[c]) not in OCCUPATION_TRIPLES for a, b, c in triples)
        ]
    width, height = lat.shape

    def rank(x, y):
        return lat.rank((x % width, y % height))

    crosses = [
        (rank(x, y), (rank(x - 1, y), rank(x, y - 1), rank(x + 1, y), rank(x, y + 1)))
        for x in range(0, width, 2)
        for y in range(0, height, 2)
    ]
    return [
        w for w in words
        if all((w[c], tuple(w[a] for a in arms)) not in OCCUPATION_CROSSES for c, arms in crosses)
    ]


def brute_rectangle(lat, x0, y0, nx, ny):
    """Row-major words on an even-aligned ``nx x ny`` rectangle with constant
    first and last pairs in every row and column and no forbidden cross at
    an interior even-even site."""
    sites = tuple(lat.wrap((x0 + i, y0 + j)) for i in range(nx) for j in range(ny))
    crosses = [
        (i * ny + j, ((i - 1) * ny + j, i * ny + j - 1, (i + 1) * ny + j, i * ny + j + 1))
        for i in range(2, nx - 1, 2)
        for j in range(2, ny - 1, 2)
    ]

    def grid(w):
        return [w[i * ny : (i + 1) * ny] for i in range(nx)]

    return [
        (sites, w)
        for w in itertools.product((-1, 1), repeat=nx * ny)
        if all(r[0] == r[1] and r[-2] == r[-1] for r in grid(w))
        and all(c[0] == c[1] and c[-2] == c[-1] for c in zip(*grid(w)))
        and all((w[c], tuple(w[a] for a in arms)) not in SEQUENCE_CROSSES for c, arms in crosses)
    ]


def sequences(seqs):
    return [(s.sites, s.values) for s in seqs]


ENUMERATORS = {
    "hat_xi": (lambda l: sequences(enumerate_hat_xi(0, l)), brute_hat_xi),
    "arcs": (lambda lat: sequences(all_embeddable_sequences(lat)), brute_arcs),
    "ring_sequences": (lambda lat: sequences(enumerate_ring_sequences(lat)), brute_ring_sequences),
    "rectangles": (
        lambda args: sequences(enumerate_rectangle_sequences(*args)),
        lambda args: brute_rectangle(*args),
    ),
    "ground_configs": (
        lambda lat: [g.values for g in enumerate_ground_configs(lat)],
        brute_ground_configs,
    ),
}
RINGS = [(f"ring{m}", Lattice.ring(m)) for m in range(1, 6)]
CHAINS = [
    (f"chain[{lo},{hi}]", Lattice.chain(lo, hi))
    for lo, hi in ((0, 2), (0, 10), (-4, 8), (1, 8))
]
CASES = (
    [("hat_xi", f"[0,{2 * l}]", l) for l in range(1, 6)]
    + [(kind, name, lat) for kind in ("arcs", "ring_sequences") for name, lat in RINGS]
    + [
        ("rectangles", f"{nx}x{ny}@{x0},{y0}", (Lattice.torus(6, 6), x0, y0, nx, ny))
        for nx, ny, x0, y0 in ((3, 3, 0, 0), (3, 5, 0, 2), (5, 3, 4, 0), (3, 3, 4, 4))
    ]
    + [
        ("ground_configs", name, lat)
        for name, lat in CHAINS + RINGS + [("torus4x4", Lattice.torus(4, 4))]
    ]
)


@pytest.mark.parametrize(
    "kind,arg", [(k, a) for k, _, a in CASES], ids=[f"{k}-{n}" for k, n, _ in CASES]
)
def test_enumerator_matches_brute_force(kind, arg):
    enumerate_, brute = ENUMERATORS[kind]
    expected = brute(arg)
    assert expected
    assert enumerate_(arg) == expected


@st.composite
def _grammars(draw):
    """Length, 3- and 5-position neighbourhoods, backward ties, alphabet."""
    n = draw(st.integers(0, 10))
    hoods, ties = [], []
    if n:
        position = st.integers(0, n - 1)
        hood = st.one_of(st.tuples(*[position] * 3), st.tuples(*[position] * 5))
        hoods = draw(st.lists(hood, max_size=8))
    if n > 1:
        tie = st.integers(1, n - 1).flatmap(
            lambda q: st.tuples(st.integers(0, q - 1), st.just(q))
        )
        ties = draw(st.lists(tie, max_size=4))
    return n, hoods, ties, draw(st.sampled_from(((0, 1), (-1, 1))))


@settings(derandomize=True, deadline=None)
@given(_grammars())
def test_permitted_words_match_a_filter_of_every_word(case):
    n, hoods, ties, alphabet = case
    expected = [
        w
        for w in itertools.product(alphabet, repeat=n)
        if grammar.permitted(w, hoods) and all(w[p] == w[q] for p, q in ties)
    ]
    words = grammar.permitted_words(n, hoods, alphabet, ties)
    assert words.dtype == np.int8
    assert words.shape == (len(expected), n)
    assert list(map(tuple, words.tolist())) == expected


def test_permitted_words_edge_shapes():
    # the empty word is the one word of length 0
    assert grammar.permitted_words(0, [], (0, 1)).shape == (1, 0)
    # only an empty alphabet leaves nothing: a constant word breaks no rule
    empty = grammar.permitted_words(3, [(1, 0, 2)], ())
    assert empty.shape == (0, 3) and empty.dtype == np.int8


@pytest.mark.parametrize("tie", [(1, 0), (2, 2)])
def test_permitted_words_refuses_a_forward_tie(tie):
    with pytest.raises(ValueError, match="must point backwards"):
        grammar.permitted_words(3, [], (-1, 1), ties=[tie])


def grow_rows(n, hoods, alphabet, ties=()):
    """The int8 row grower the packed enumerator replaced, kept as its slow
    oracle: every row takes every letter (``np.repeat`` of the rows against
    ``np.tile`` of the letters), a tie copies a column, and the rows a
    neighbourhood closing at the new position forbids are dropped."""
    letters = np.asarray(alphabet, dtype=np.int8)
    copies = {}
    closing = [[] for _ in range(n)]
    for p, q in ties:
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
        for center, *arms in closing[q]:
            words = words[~grammar.forbidden(words[:, center], [words[:, a] for a in arms])]
    return words


def pack(rows):
    """Rows over ``{0, 1}`` as Python-integer codes: bit ``q`` is column ``q``."""
    return [sum(int(v) << q for q, v in enumerate(row)) for row in rows]


@st.composite
def _code_grammars(draw):
    """Length 0 to 12, 3- and 5-position neighbourhoods, backward ties."""
    n = draw(st.integers(0, 12))
    hoods, ties = [], []
    if n:
        position = st.integers(0, n - 1)
        hood = st.one_of(st.tuples(*[position] * 3), st.tuples(*[position] * 5))
        hoods = draw(st.lists(hood, max_size=10))
    if n > 1:
        tie = st.integers(1, n - 1).flatmap(
            lambda q: st.tuples(st.integers(0, q - 1), st.just(q))
        )
        ties = draw(st.lists(tie, max_size=5))
    return n, hoods, ties


@settings(derandomize=True, deadline=None)
@given(_code_grammars())
def test_permitted_codes_are_the_oracle_rows_packed(case):
    n, hoods, ties = case
    codes = grammar.permitted_codes(n, hoods, ties)
    assert codes.dtype == np.uint32
    assert codes.tolist() == pack(grow_rows(n, hoods, (0, 1), ties))
    words = grammar.permitted_words(n, hoods, (-1, 1), ties)
    assert np.array_equal(words, 2 * grammar.unpack(codes, n, (0, 1)) - 1)


@pytest.mark.parametrize("n", [33, 40, 64])
def test_permitted_codes_widen_to_64_bits(n):
    # every position tied to the first: the two constant words, the second
    # with all n bits set (2**64 - 1 at n = 64)
    codes = grammar.permitted_codes(n, [(1, 0, 2)], ties=[(0, q) for q in range(1, n)])
    assert codes.dtype == np.uint64
    assert codes.tolist() == [0, 2**n - 1]
    assert grammar.unpack(codes, n, (-1, 1)).tolist() == [[-1] * n, [1] * n]


@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
def test_no_code_unpacks_and_spells_as_no_word(dtype):
    words = grammar.unpack(np.empty(0, dtype), 6, (0, 1))
    assert words.shape == (0, 6) and grammar.spell(words, "01") == []


def test_permitted_codes_refuse_words_past_64_positions_and_forward_ties():
    with pytest.raises(ValueError, match="64-bit"):
        grammar.permitted_codes(65, [])
    for tie in ((1, 0), (2, 2)):
        with pytest.raises(ValueError, match="must point backwards"):
            grammar.permitted_codes(3, [], ties=[tie])


@pytest.mark.parametrize(
    "lat",
    [Lattice.ring(m) for m in range(1, 9)] + [Lattice.chain(0, 12), Lattice.torus(4, 4)],
    ids=lambda lat: f"{lat.boundary}{lat.nsites}",
)
def test_ground_states_are_the_ground_codes(lat):
    states = ModelSpec(lat).ground_states
    assert states.dtype == np.int64
    # as a set, the bit-arithmetic mask over the whole Fock space
    assert np.array_equal(np.sort(states), np.flatnonzero(ground_config_mask(lat)))
    # in order, the rows-to-Fock formula on the oracle rows
    rows = grow_rows(lat.nsites, charge_hoods(lat), (0, 1))
    fock = sum(rows[:, r].astype(np.int64) << r for r in range(lat.nsites))
    assert states.tolist() == fock.tolist()


@st.composite
def _open_words(draw):
    """A ``{-1, +1}`` word on an open interval or rectangle support."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 12))
        values = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
        return ConservedSequence(tuple(range(n)), tuple(values))
    nx, ny = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    values = draw(st.lists(st.sampled_from((-1, 1)), min_size=nx * ny, max_size=nx * ny))
    sites = tuple((i, j) for i in range(nx) for j in range(ny))
    return ConservedSequence(sites, tuple(values), shape=(nx, ny))


@settings(derandomize=True, deadline=None)
@given(_open_words())
def test_edge_conditions_match_their_literal_definition(f):
    v = f.values
    if f.shape is None:
        expected = v[0] == v[1] and v[-2] == v[-1]
    else:
        nx, ny = f.shape
        rows = [v[i * ny : (i + 1) * ny] for i in range(nx)]
        expected = all(r[0] == r[1] and r[-2] == r[-1] for r in rows) and all(
            c[0] == c[1] and c[-2] == c[-1] for c in zip(*rows)
        )
    assert has_edge_conditions(f) == expected
