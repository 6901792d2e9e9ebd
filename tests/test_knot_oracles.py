"""Knot-level answers on random diagrams, against oracles that read only the diagram.

The orientation walk of analyze_pd is checked against the older
propagation-based analysis; s_c is checked against two closed forms, each
counting resolution circles with its own union-find: Rasmussen's
s_c = 1 + c - k on positive diagrams and s_0 = -sigma with Traczyk's
signature formula on reduced alternating diagrams.  A fixed-seed set of
11-12 crossing braids checks both forms on the tangle assembly.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from khconc import build_complex, parse_braid, rasmussen_s, reduce
from khconc.khovanov import analyze_pd

import support

CHARS = (0, 2, 3)


def _braid_text(strands, word):
    return f"BR[{strands}; {','.join(map(str, word))}]"


@st.composite
def crossing_lists(draw):
    """Braid closures (knots and links), shuffled and slot-mutated, or random PD codes."""
    if draw(st.booleans()):
        strands = draw(st.integers(1, 5))
        letters = st.integers(1, max(strands - 1, 1)).flatmap(lambda i: st.sampled_from([i, -i]))
        word = draw(st.lists(letters, max_size=10)) if strands > 1 else []
        crossings = [list(c) for c in draw(st.permutations(support.braid_closure_crossings(strands, word)))]
        for _ in range(draw(st.integers(0, 2)) if crossings else 0):
            ci = draw(st.integers(0, len(crossings) - 1))
            kind = draw(st.sampled_from(["swap", "rotate", "exchange"]))
            if kind == "swap":
                i, j = draw(st.permutations(range(4)))[:2]
                crossings[ci][i], crossings[ci][j] = crossings[ci][j], crossings[ci][i]
            elif kind == "rotate":
                k = draw(st.integers(1, 3))
                crossings[ci] = crossings[ci][k:] + crossings[ci][:k]
            else:
                cj, i, j = draw(st.integers(0, len(crossings) - 1)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
                crossings[ci][i], crossings[cj][j] = crossings[cj][j], crossings[ci][i]
    else:
        n = draw(st.integers(1, 4))
        labels = draw(st.permutations([a for a in range(1, 2 * n + 1) for _ in (0, 1)]))
        crossings = [labels[4 * i : 4 * i + 4] for i in range(n)]
    crossings = [tuple(c) for c in crossings]
    arcs = sorted({a for c in crossings for a in c})
    basepoint = draw(st.one_of(st.none(), st.sampled_from(arcs or [0]), st.just(99)))
    return crossings, basepoint


def _outcome(analyze, crossings, basepoint):
    try:
        return analyze(crossings, basepoint=basepoint)
    except ValueError:
        return ValueError


@settings(max_examples=400, deadline=None)
@given(case=crossing_lists())
def test_walk_matches_propagation(case):
    crossings, basepoint = case
    expected = _outcome(support.reference_analyze_pd, crossings, basepoint)
    assert _outcome(analyze_pd, crossings, basepoint) == expected


@st.composite
def positive_braid_knots(draw):
    strands = draw(st.integers(2, 4))
    word = draw(st.lists(st.integers(1, strands - 1), min_size=strands - 1, max_size=9))
    return strands, word


@settings(max_examples=40, deadline=None)
@given(knot=positive_braid_knots().filter(lambda k: support.braid_is_knot(*k)))
def test_positive_braid_closure_s(knot):
    strands, word = knot
    pd = parse_braid(_braid_text(strands, word))
    expected = support.positive_diagram_s(pd)
    # a braid closure has one Seifert circle per strand
    assert expected == len(word) - strands + 1
    c = reduce(build_complex(pd))
    assert [rasmussen_s(c, ch) for ch in CHARS] == [expected] * len(CHARS)


@st.composite
def alternating_braid_knots(draw):
    """Words with sigma_i positive for odd i, negative for even i, each at least twice."""
    strands = draw(st.integers(2, 4))
    letters = [
        i if i % 2 else -i for i in range(1, strands) for _ in range(draw(st.integers(2, 4)))
    ]
    return strands, draw(st.permutations(letters))


@settings(max_examples=40, deadline=None)
@given(
    knot=alternating_braid_knots().filter(lambda k: len(k[1]) <= 10 and support.braid_is_knot(*k))
)
def test_alternating_braid_closure_s0_is_minus_signature(knot):
    strands, word = knot
    pd = parse_braid(_braid_text(strands, word))
    c = reduce(build_complex(pd))
    assert rasmussen_s(c, 0) == support.alternating_diagram_s0(pd)


def _seeded_knots(seed, draw_word, count=4):
    """The first count distinct braid knots that draw_word makes from the seed,
    as pytest parameters named by their braid text."""
    rng = random.Random(seed)
    knots = []
    while len(knots) < count:
        strands, word = draw_word(rng)
        if support.braid_is_knot(strands, word) and (strands, word) not in knots:
            knots.append((strands, word))
    return [pytest.param(*knot, id=_braid_text(*knot)) for knot in knots]


def _positive_word(rng):
    strands = rng.randint(2, 4)
    return strands, [rng.randint(1, strands - 1) for _ in range(rng.randint(11, 12))]


def _alternating_word(rng):
    strands = rng.randint(2, 4)
    while True:
        counts = [rng.randint(2, 12) for _ in range(1, strands)]
        if sum(counts) in (11, 12):
            break
    letters = [i if i % 2 else -i for i, n in enumerate(counts, 1) for _ in range(n)]
    rng.shuffle(letters)
    return strands, letters


@pytest.mark.parametrize("strands, word", _seeded_knots(11, _positive_word))
def test_positive_braid_closure_s_11_12_crossings(strands, word):
    pd = parse_braid(_braid_text(strands, word))
    expected = support.positive_diagram_s(pd)
    assert expected == len(word) - strands + 1
    c = reduce(build_complex(pd))
    assert [rasmussen_s(c, ch) for ch in CHARS] == [expected] * len(CHARS)


@pytest.mark.parametrize("strands, word", _seeded_knots(12, _alternating_word))
def test_alternating_braid_closure_s0_11_12_crossings(strands, word):
    pd = parse_braid(_braid_text(strands, word))
    c = reduce(build_complex(pd))
    assert rasmussen_s(c, 0) == support.alternating_diagram_s0(pd)
