import math

import numpy as np
import pytest

from plane_reference import dual, pairing
from veesys import (
    CovectorConfiguration,
    canonical_form,
    catalogue,
)
from veesys.core import pairing_matrix
from veesys.errors import SingularForm


A3_GRAM = np.array([[3.0, -1.0, -1.0], [-1.0, 3.0, -1.0], [-1.0, -1.0, 3.0]])


def test_a3_gram_oracle():
    config = catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1})
    form = canonical_form(config)
    assert np.allclose(form.gram, A3_GRAM, atol=1e-12)


def test_h3_gram_oracle():
    config = catalogue.construct("H3", {})
    expected = 10.0 * (3.0 + math.sqrt(5.0)) * np.eye(3)
    assert np.allclose(canonical_form(config).gram, expected, atol=1e-10)


def test_f3_dual_oracle():
    config = catalogue.construct("F3", {"t": 1})
    form = canonical_form(config)
    index = config.labels.index("1")
    assert np.allclose(config.covector(index), [math.sqrt(6), 0, 0], atol=1e-12)
    assert np.allclose(
        dual(config, form, index), [math.sqrt(6) / 18, 0, 0], atol=1e-12
    )


def test_reproducing_property():
    config = catalogue.construct("B3", {"c1": 1, "c2": 2, "c3": 3, "gamma": 0.5})
    form = canonical_form(config)
    for i in range(config.n):
        # G(alpha_i_dual, .) must reproduce alpha_i as a functional
        reproduced = form.gram @ dual(config, form, i)
        assert np.allclose(reproduced, config.covector(i), atol=1e-10)


def test_pairing_matrix_matches_pairing():
    config = catalogue.construct("H3", {})
    form = canonical_form(config)
    P = pairing_matrix(config, form)
    for i in (0, 3, 7):
        for j in (1, 5, 14):
            assert P[i, j] == pytest.approx(pairing(config, form, i, j), abs=1e-14)


def test_rejects_zero_covector():
    with pytest.raises(ValueError, match="zero covector"):
        CovectorConfiguration(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_rejects_proportional_pair():
    matrix = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 1.0]])
    with pytest.raises(ValueError, match="proportional"):
        CovectorConfiguration(matrix)


def test_rejects_nonspanning():
    matrix = np.array([[1.0, 1.0, 2.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    # rank 2 in a 3-dim space
    with pytest.raises(ValueError, match="span"):
        CovectorConfiguration(matrix)


def test_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="distinct"):
        CovectorConfiguration(np.eye(2), labels=("a", "a"))


def test_default_labels_are_one_based():
    config = CovectorConfiguration(np.eye(3))
    assert config.labels == ("1", "2", "3")


def test_take_and_transform():
    config = catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1})
    sub = config.take([0, 1, 2, 3])
    assert sub.labels == ("1", "2", "3", "4")
    mapped = config.transformed(2.0 * np.eye(3))
    assert np.allclose(mapped.matrix, 2.0 * config.matrix)


def test_singular_form_reports_rank():
    config = CovectorConfiguration(np.eye(3))
    squashed = CovectorConfiguration.__new__(CovectorConfiguration)
    object.__setattr__(squashed, "matrix", np.array(
        [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    ))
    object.__setattr__(squashed, "labels", ("1", "2", "3"))
    with pytest.raises(SingularForm) as info:
        canonical_form(squashed)
    assert info.value.rank == 1
    assert canonical_form(config).condition_number == pytest.approx(1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_rejected(value):
    matrix = np.eye(3)
    matrix[1, 2] = value
    with pytest.raises(ValueError, match="finite"):
        CovectorConfiguration(matrix)
