"""Planted faults: each must make an acceptance criterion fail.

The acceptance criteria compare independent routes, so a fault planted in
one route must be caught by the others.  Each test patches one function or
memo where the criteria read it and runs the criteria that should catch the
fault; at least one of them must raise.  A later change that made two routes
share code would show here as a fault that no longer fails.

Faults inside inline loops, such as the border-strip walk of ``_char``,
cannot be planted by patching a name and are not covered here.
"""

import pytest

import test_acceptance as acceptance
from snkron import characters, closed_forms, partitions, weights
from snkron.partitions import Decomposition


@pytest.fixture
def plant(cold_memo, monkeypatch):
    """A monkeypatch whose patches are undone before the memos are cleared,
    so no value computed under a fault outlives the test."""
    yield monkeypatch
    monkeypatch.undo()


def failing(*criteria):
    failed = []
    for criterion in criteria:
        try:
            criterion()
        except Exception:
            failed.append(criterion.__name__)
    return failed


def test_theorem1_drops_its_last_entry(plant):
    original = closed_forms.theorem1_decomposition

    def planted(n):
        entries = dict(original(n).entries)
        entries.popitem()
        return Decomposition(2 * n, entries)

    plant.setattr(closed_forms, "theorem1_decomposition", planted)
    plant.setattr(acceptance, "theorem1_decomposition", planted)
    assert failing(
        acceptance.test_criterion_1_theorem1_exactness,
        acceptance.test_criterion_3_semigroup_equivalence,
        acceptance.test_criterion_4_dimension_identities,
    )


def test_theorem2_adds_a_three_row_constituent(plant):
    original = closed_forms.theorem2_decomposition

    def planted(n):
        dec = original(n)
        return Decomposition(4 * n, {**dec.entries, (4 * n - 2, 1, 1): 1} if n else dec.entries)

    plant.setattr(closed_forms, "theorem2_decomposition", planted)
    plant.setattr(acceptance, "theorem2_decomposition", planted)
    assert failing(
        acceptance.test_criterion_2_theorem2_exactness,
        acceptance.test_criterion_3_semigroup_equivalence,
    )


def test_theorem2_weight_with_a_wrong_w(plant):
    # T2_W_GENERATORS is bound at import, so the membership solver keeps the
    # right generators; g((4,4), (2,2,2,2), (4,3,1)) = 0 is the catch.
    original = weights.theorem2_weights

    def planted():
        first, *rest = original()
        return (first._replace(w_weight=(4, 3, 1)), *rest)

    plant.setattr(weights, "theorem2_weights", planted)
    plant.setattr(acceptance, "theorem2_weights", planted)
    assert failing(
        acceptance.test_criterion_3_semigroup_equivalence,
        acceptance.test_criterion_6_weight_positivity,
    )


def test_wrong_row_in_the_memo(plant):
    # A wrong value of (2) on the class (1,1), planted after the row of (2,1)
    # is read, as test_cli::test_oracle_consistency_failure_exits_1 does.
    characters.character_row((2, 1))
    characters._rows[characters._beads((2,))] = (2,)
    assert failing(acceptance.test_criterion_5_character_engine_integrity)


def test_class_size_off_by_one(plant):
    # Only the sizes change, so the row widths that _char reads stay right.
    original = characters._classes

    def planted(m):
        widths, sizes = original(m)
        return widths, (sizes[0] + 1, *sizes[1:])

    plant.setattr(characters, "_classes", planted)
    assert failing(acceptance.test_criterion_5_character_engine_integrity)


def test_hook_product_off_by_one(plant):
    # Criterion 4 reaches it through the lone key (2n,), which takes the
    # hook path of dimension_sum.
    original = partitions._hook_product
    plant.setattr(partitions, "_hook_product", lambda lam: original(lam) + 1)
    assert failing(
        acceptance.test_criterion_4_dimension_identities,
        acceptance.test_criterion_7_schur_weyl_identity,
    )
