import pytest

from snkron import closed_forms
from snkron.closed_forms import closed_form, theorem1_decomposition, theorem2_decomposition
from snkron.kronecker import tensor_decompose
from snkron.partitions import enumerate_partitions, hook_dimension

from oracles import partitions_of, theorem1_statement, theorem2_statement


def test_theorem1_decomposition_small_cases():
    assert theorem1_decomposition(0).entries == {(): 1}
    assert theorem1_decomposition(1).entries == {(2,): 1}
    assert theorem1_decomposition(2).entries == {(4,): 1, (2, 2): 1, (1, 1, 1, 1): 1}
    assert theorem1_decomposition(3).entries == {
        (6,): 1,
        (4, 2): 1,
        (2, 2, 2): 1,
        (3, 1, 1, 1): 1,
    }
    with pytest.raises(ValueError, match="rectangle width must be nonnegative"):
        theorem1_decomposition(-1)


def test_generators_equal_the_literal_statements():
    # Same entries, all of multiplicity one, in the same order, as the
    # paper's index sets enumerated, filtered and sorted.
    cases = [(theorem1_decomposition, theorem1_statement, 2, n) for n in range(61)]
    cases += [(theorem2_decomposition, theorem2_statement, 4, n) for n in [*range(61), 270]]
    for generate, statement, scale, n in cases:
        dec = generate(n)
        assert dec.n == scale * n
        assert list(dec.entries.items()) == [(nu, 1) for nu in statement(n)], (generate, n)


def test_theorem2_parity_clause_is_implied():
    # lam_2 + lam_3 - lam_1 = 2n - 2*lam_1, so only its sign is a condition.
    for n in range(61):
        for lam in partitions_of(2 * n, parts=3):
            l1, l2, l3 = (lam + (0, 0, 0))[:3]
            assert (l2 + l3 - l1) % 2 == 0, lam


def test_decomposition_entries_iterate_in_decreasing_order():
    # The CLI writes entries in the order they iterate, unsorted.
    decs = [theorem1_decomposition(n) for n in range(41)]
    decs += [theorem2_decomposition(n) for n in range(41)]
    for bound in (None, 3, 4):
        for m in range(21):
            decs.append(closed_form((m, m), (m, m), bound))
        for m in range(11):
            for pair in (((2 * m, 2 * m), (m,) * 4), ((m,) * 4, (2 * m, 2 * m))):
                decs.append(closed_form(*pair, bound))
    for n in range(8):
        parts = enumerate_partitions(n)
        for bound in (None, 1, 2, 3):
            decs += [tensor_decompose(lam, mu, bound) for lam in parts for mu in parts]
    for dec in decs:
        if dec is not None:
            assert list(dec.entries) == sorted(dec.entries, reverse=True), dec


def test_theorem2_decomposition_small_cases():
    assert theorem2_decomposition(0).entries == {(): 1}
    assert theorem2_decomposition(1).entries == {(2, 2): 1}
    assert theorem2_decomposition(2).entries == {(4, 4): 1, (4, 2, 2): 1}
    with pytest.raises(ValueError, match="rectangle width must be nonnegative"):
        theorem2_decomposition(-1)


def test_closed_shape_detection():
    assert closed_form((2, 2), (2, 2)).entries == {(4,): 1, (2, 2): 1, (1, 1, 1, 1): 1}
    assert closed_form((), ()).entries == {(): 1}
    assert closed_form((4, 4), (2, 2, 2, 2), 3).entries == {(4, 4): 1, (4, 2, 2): 1}
    assert closed_form((2, 2, 2, 2), (4, 4), 3) is not None
    assert closed_form((4, 4), (2, 2, 2, 2), 2).entries == {(4, 4): 1}
    assert closed_form((4, 4), (2, 2, 2, 2)) is None
    assert closed_form((3, 1), (3, 1)) is None
    assert closed_form((4,), (4,)) is None
    assert closed_form((2, 2), (2, 2), 2).entries == {(4,): 1, (2, 2): 1}


def test_closed_form_rejects_bad_input():
    with pytest.raises(ValueError):
        closed_form((2, 1), (2, 2))
    with pytest.raises(ValueError):
        closed_form((2, 2), (2, 2), 0)
    # Both routes report a bad partition or size before a bad bound.
    for decompose in (closed_form, tensor_decompose):
        with pytest.raises(ValueError, match="unequal sizes"):
            decompose((2, 1), (2, 2), 0)
        with pytest.raises(ValueError, match="weakly decreasing"):
            decompose((1, 2), (2, 1), 0)


def test_closed_forms_share_one_width_bound(monkeypatch):
    # Both theorems, and closed_form through them, admit width 270 and
    # reject width 271 before any partition is generated: the generators'
    # loops are the module's only calls of range.
    assert len(theorem1_decomposition(270).entries) == 285_706
    assert theorem2_decomposition(270).n == 1080
    assert closed_form((540, 540), (270,) * 4, 3) == theorem2_decomposition(270)

    def no_loops(*args):
        raise AssertionError("generated past the bound")

    monkeypatch.setattr(closed_forms, "range", no_loops, raising=False)
    for call in (
        lambda: theorem1_decomposition(271),
        lambda: theorem2_decomposition(271),
        lambda: closed_form((271, 271), (271, 271)),
        lambda: closed_form((271,) * 4, (542, 542), 3),
    ):
        with pytest.raises(ValueError, match="within the closed-form bound of 270, got 271"):
            call()


def _covered(lam, mu, bound):
    # Equal-size inputs: theorem 1 is a two-row rectangle squared, theorem 2
    # a two-row by four-row rectangle pair under a bound of at most 3.
    rectangles = len(set(lam)) <= 1 and len(set(mu)) <= 1
    if lam == mu:
        return rectangles and len(lam) in (0, 2)
    pair = sorted((len(lam), len(mu))) == [2, 4]
    return rectangles and pair and bound is not None and bound <= 3


def test_closed_form_covers_exactly_the_two_families():
    for n in range(13):
        parts = enumerate_partitions(n)
        for lam in parts:
            for mu in parts:
                for bound in (None, 1, 2, 3, 4, 5):
                    got = closed_form(lam, mu, bound) is not None
                    assert got == _covered(lam, mu, bound), (lam, mu, bound)


def test_dimension_sums_of_both_theorems():
    # The closed round's sums, most of them column-wise, against one hook
    # dimension per constituent.
    for n in range(41):
        for dec in (theorem1_decomposition(n), theorem2_decomposition(n)):
            want = sum(m * hook_dimension(nu) for nu, m in dec.entries.items())
            assert dec.dimension_sum() == want, (dec.n, n)
