import math
import warnings

import numpy as np
import pytest

from plane_reference import dual, pairing
from veesys import (
    CovectorConfiguration,
    canonical_form,
    catalogue,
    deform,
    matroid,
    oracles,
    projective,
    verify,
)
from veesys.tolerances import DEFAULT_RTOL, SINGULAR_FORM_RTOL


A3_GRAM = np.array([[3.0, -1.0, -1.0], [-1.0, 3.0, -1.0], [-1.0, -1.0, 3.0]])


def _gram(config):
    """G = A A^T, formed as the Gram oracle forms it."""
    return config.matrix @ config.matrix.T


def test_a3_gram_oracle():
    config = catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1})
    assert np.allclose(_gram(config), A3_GRAM, atol=1e-12)


def test_h3_gram_oracle():
    config = catalogue.construct("H3", {})
    expected = 10.0 * (3.0 + math.sqrt(5.0)) * np.eye(3)
    assert np.allclose(_gram(config), expected, atol=1e-10)


def test_f3_dual_oracle():
    config = catalogue.construct("F3", {"t": 1})
    index = config.labels.index("1")
    assert np.allclose(config.covector(index), [math.sqrt(6), 0, 0], atol=1e-12)
    assert np.allclose(
        dual(config, index), [math.sqrt(6) / 18, 0, 0], atol=1e-12
    )


def test_reproducing_property():
    config = catalogue.construct("B3", {"c1": 1, "c2": 2, "c3": 3, "gamma": 0.5})
    gram = _gram(config)
    for i in range(config.n):
        # G(alpha_i_dual, .) must reproduce alpha_i as a functional
        reproduced = gram @ dual(config, i)
        assert np.allclose(reproduced, config.covector(i), atol=1e-10)


def test_pairing_matrix_matches_pairing():
    config = catalogue.construct("H3", {})
    P = config.analysis.pairings
    for i in (0, 3, 7):
        for j in (1, 5, 14):
            assert P[i, j] == pytest.approx(pairing(config, i, j), abs=1e-14)


def test_rejects_zero_covector():
    with pytest.raises(ValueError, match="zero covector"):
        CovectorConfiguration(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_rejects_proportional_pair():
    matrix = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 1.0]])
    with pytest.raises(ValueError, match="proportional"):
        CovectorConfiguration(matrix)


@pytest.mark.parametrize("factor, accepted", [(0.5, False), (2.0, True)])
def test_proportional_pair_cut_is_default_rtol_on_both_sides(factor, accepted):
    """Covectors 1 and 4 are the closest pair; their largest unit 2x2 minor is
    ``factor`` times DEFAULT_RTOL, the construction cut."""
    minor = factor * DEFAULT_RTOL
    matrix = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, minor], [0.0, 0.0, 1.0, 0.0]])
    if accepted:
        assert CovectorConfiguration(matrix).n == 4
    else:
        with pytest.raises(ValueError, match="covectors 1 and 4 are proportional"):
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
    squashed = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="numerical rank 1 < dimension 3"):
        CovectorConfiguration(squashed)
    assert canonical_form(config).condition_number == pytest.approx(1.0)


@pytest.mark.parametrize("factor, rank", [(0.5, 2), (2.0, 3)])
def test_singular_form_cut(factor, rank):
    """G = diag(1, 1, s^2) is singular when s^2 is at most SINGULAR_FORM_RTOL
    times its largest eigenvalue 1: construction rejects it, naming the rank."""
    matrix = np.diag([1.0, 1.0, math.sqrt(factor * SINGULAR_FORM_RTOL)])
    if rank < 3:
        with pytest.raises(ValueError, match=f"do not span the ambient space: "
                                             f"numerical rank {rank} < dimension 3"):
            CovectorConfiguration(matrix)
    else:
        form = canonical_form(CovectorConfiguration(matrix))
        assert form.condition_number == pytest.approx(1 / (factor * SINGULAR_FORM_RTOL))


B3_ROOTS = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 0],
                     [1, 0, 1], [1, 0, -1], [0, 1, 1], [0, 1, -1]], dtype=float).T


def test_span_decision_at_the_top_of_the_double_range():
    """The nine B3 roots times 1e308: the singular values of A overflow, so
    construction takes the SVD of A scaled by a power of two.  cond(G) is
    finite and that of the unscaled roots, with no numpy warning, and so is
    every other attribute of the canonical form; at a power-of-two scale
    V^T and cond(G) are bitwise those of the roots."""
    roots = CovectorConfiguration(B3_ROOTS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = CovectorConfiguration(B3_ROOTS * 1e308)
        exact = CovectorConfiguration(B3_ROOTS * 2.0 ** 1023)
        assert all(verify.check_vee(c).is_vee_system for c in (huge, exact))
        for name, value in vars(canonical_form(huge)).items():
            assert np.isfinite(value).all(), name
    assert math.isfinite(huge.form.condition_number)
    assert huge.form.condition_number == pytest.approx(roots.form.condition_number, rel=1e-12)
    assert exact.form.condition_number == roots.form.condition_number
    assert np.array_equal(exact.form.basis, roots.form.basis)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_rejected(value):
    matrix = np.eye(3)
    matrix[1, 2] = value
    with pytest.raises(ValueError, match="finite"):
        CovectorConfiguration(matrix)


def _records():
    """One record of each kind the library returns, built afresh on each call
    apart from the catalogue's own records, which it loads once."""
    config = catalogue.construct("B3", {"c1": 1, "c2": 1, "c3": 1, "gamma": 1})
    decomp = config.decomposition
    script = projective.load_script(catalogue.script_path("h3"))
    return [
        config, config.form, config.analysis, decomp, decomp.flats[-1],
        matroid.fingerprint(decomp), verify.check_vee(config), verify.solve_weights(config),
        verify.check_harmonic(config)[0],
        verify.check_extension(config, config, range(config.n)),
        deform.build_system(config), catalogue.entry("B3"), catalogue.relations()[0],
        catalogue._load().auxiliary["B3-roots"], oracles.CheckReport(),
        script, script.items[0], script.branch_step,
    ]


def test_records_compare_and_hash_without_raising():
    """Records holding arrays or dicts compare and hash by identity; the flat
    structure (decompositions, flats, fingerprints) compares by value."""
    by_value = (matroid.FlatDecomposition, matroid.Flat, matroid.MatroidFingerprint)
    first, second = _records(), _records()
    assert len({type(record) for record in first}) == len(first)
    for a, b in zip(first, second):
        assert a == a and not a != a, type(a)
        assert (a == b) == (a is b or isinstance(a, by_value)), type(a)
        assert (a != b) == (not a == b), type(a)
        assert hash(a) == hash(a) and isinstance(hash(b), int), type(a)
        if isinstance(a, by_value):
            assert hash(a) == hash(b), type(a)
    config, twin = first[0], second[0]
    keyed = {config: "first", twin: "second"}
    assert keyed[config] == "first" and keyed[twin] == "second"
