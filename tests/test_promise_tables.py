"""Every promise is one count table, and every reader of it agrees with the
rule written out here pair by pair: the pair stream, the problem
matrices, the word problems and the band of a margin."""

from fractions import Fraction

from hypothesis import given, strategies as st

from promisecc.automata import (
    WordProblem,
    disjointness_word,
    equality_word,
)
from promisecc.bits import (
    BitString,
    Margin,
    Promise,
    PromiseLabel,
    band,
)
from promisecc.bounds import PROBLEMS, UNDEFINED, problem_matrix

#: The four matrix problems of ``bounds`` and the two word problems.
KINDS = ("eq", "disj", "promise_eq", "promise_disj", "equality", "disjointness")
ENTRY = {"yes": 1, "no": 0, "outside": UNDEFINED}


@st.composite
def problems(draw):
    """(kind, n, lam) with n <= 7; lam is a margin with lam*n integral for
    promise_disj and None otherwise."""
    kind = draw(st.sampled_from(KINDS))
    if kind != "promise_disj":
        return kind, draw(st.integers(1, 7)), None
    n = draw(st.integers(4, 7))
    return kind, n, Fraction(draw(st.integers(1, n // 4)), n)


def _rule(kind, n, lam, x, y) -> str:
    """The label of the word values (x, y), from the problem's definition."""
    overlap, distance = (x & y).bit_count(), (x ^ y).bit_count()
    if kind == "eq":
        return "yes" if x == y else "no"
    if kind == "disj":
        return "yes" if overlap == 0 else "no"
    if kind in ("promise_eq", "equality"):
        return "yes" if x == y else "no" if 2 * distance == n else "outside"
    if kind == "disjointness":
        lam = Fraction(1, 4)
    if overlap == 0:
        return "yes"
    return "no" if lam * n <= overlap <= (1 - lam) * n else "outside"


def _promise(kind, n, lam):
    """The count table of a problem: a word problem's own, or one built from
    the ``bounds`` table; promise_disj takes its margin's table."""
    if kind in ("equality", "disjointness"):
        return WordProblem(n, kind).promise
    if kind == "promise_disj":
        return Margin(lam, n).promise
    return Promise.from_margin(n, *PROBLEMS[kind])


@given(problems())
def test_chunks_are_the_pairs_the_rule_keeps(problem):
    kind, n, lam = problem
    got = [
        (x, y, "yes" if is_yes else "no")
        for xs, ys, yes in _promise(kind, n, lam).chunks()
        for x, y, is_yes in zip(xs.tolist(), ys.tolist(), yes.tolist(), strict=True)
    ]
    want = [
        (x, y, label)
        for x in range(1 << n)
        for y in range(1 << n)
        if (label := _rule(kind, n, lam, x, y)) != "outside"
    ]
    assert got == want


@given(problems())
def test_matrix_entries_follow_the_rule(problem):
    kind, n, lam = problem
    if kind in ("equality", "disjointness") or (kind == "promise_eq" and n % 2):
        return
    margin = Margin(lam, n) if lam is not None else None
    entries = problem_matrix(kind, n, margin).entries
    assert entries == tuple(
        tuple(ENTRY[_rule(kind, n, lam, x, y)] for y in range(1 << n))
        for x in range(1 << n)
    )


@given(
    st.sampled_from([("equality", equality_word), ("disjointness", disjointness_word)]),
    st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)),
                 min_size=1, max_size=20),
    )),
)
def test_word_pair_rule_labels_the_built_word(kind, pairs):
    (name, word_of), (n, values) = kind, pairs
    problem = WordProblem(n, name)
    for xv, yv in values:
        x, y = BitString(xv, n), BitString(yv, n)
        label = problem.classify_pair(x, y)
        assert label is problem.classify(word_of(x, y))
        assert label.value == _rule(name, n, None, xv, yv)


@given(st.integers(1, 64), st.integers(1, 64))
def test_band_is_the_margin_band_and_the_word_band(n, q):
    assert band(Fraction(1, 4), n) == ((n + 3) // 4, 3 * n // 4)
    lam = Fraction(1, q)
    if lam <= Fraction(1, 4) and (lam * n).denominator == 1:
        no = [c for c, label in enumerate(Margin(lam, n).promise.labels)
              if label is PromiseLabel.NO]
        assert band(lam, n) == (no[0], no[-1])
        assert band(lam, n) == (n // q, n - n // q)
