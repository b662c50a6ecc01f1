"""Randomized invariance and consistency properties.

Each loop runs many independent trials with a fixed seed so the suite is
deterministic.  The invariances tested here (change of basis, uniform
scaling) are exact mathematical statements, so the tolerances are tight.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veesys import (
    CovectorConfiguration,
    catalogue,
    check_harmonic,
    check_vee,
    decompose,
    deform,
    solve_weights,
)

TRIALS = 200

GL_FAMILIES = [
    ("A3", {"c1": 1, "c2": 2, "c3": 0.5}),
    ("B3", {"c1": 1, "c2": 1, "c3": 1, "gamma": 0.25}),
    ("G3", {"t": 1.25}),
    ("H3", {}),
]


def _random_gl3(rng):
    """Random invertible 3x3 map with condition number below 100."""
    while True:
        C = rng.standard_normal((3, 3))
        if np.linalg.cond(C) < 100:
            return C


def test_gl_invariance_of_verification():
    rng = np.random.default_rng(2024)
    originals = {
        ident: check_vee(catalogue.construct(ident, params))
        for ident, params in GL_FAMILIES
    }
    for trial in range(TRIALS):
        ident, params = GL_FAMILIES[trial % len(GL_FAMILIES)]
        base = originals[ident]
        config = catalogue.construct(ident, params).transformed(_random_gl3(rng))
        report = check_vee(config)
        assert report.is_vee_system, (ident, trial, report.max_residual)
        for labels, nu in base.nu_function.items():
            assert report.nu_function[labels] == pytest.approx(nu, rel=1e-7), (
                ident,
                trial,
                labels,
            )


def test_gl_invariance_of_weights_and_harmonic():
    rng = np.random.default_rng(99)
    for trial in range(TRIALS // 4):
        C = _random_gl3(rng)

        a3 = catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1}).transformed(C)
        solution = solve_weights(a3)
        assert solution.status == "feasible"
        assert solution.universal_value == pytest.approx(1.5, rel=1e-7)

        d3 = catalogue.construct("D3", {"t": 1, "s": 1}).transformed(C)
        assert solve_weights(d3).status == "infeasible"

        b3 = catalogue.construct(
            "B3", {"c1": 1, "c2": 2, "c3": 3, "gamma": 0}
        ).transformed(C)
        records = check_harmonic(b3)
        assert records and all(r.verdict for r in records), trial


def _conditioned_gl3(rng, cond):
    """A random invertible 3x3 map whose condition number is ``cond``."""
    q1, q2 = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
    return q1 @ np.diag([1.0, cond ** -0.5, 1.0 / cond]) @ q2


def _verdicts(config):
    """The flats, nu-function and free-nu corank of a vee system."""
    report = check_vee(config)
    assert report.is_vee_system, report.max_residual
    flats = [f.members for f in report.decomposition.flats]
    return flats, report.nu_function, deform.build_system(config, deform.FREE_NU).corank


def test_ill_conditioned_and_rescaled_images_keep_the_verdicts():
    """The plane conditions are invariant under A -> L A: each grid point's
    images under two seeded maps L per cond(L) in 1e2 ... 1e5, and under the
    global scales 1e100, 1e+-150, 1e155, 1e300, 1e-170 and 1e-300, where the
    squared entries over- or underflow, stay vee systems with the same
    flats, nu-function (to 1e-7, as in C11) and free-nu corank, with no
    warning.  Past cond(L) 1e5 the coplanarity decisions of flat
    enumeration contradict each other."""
    rng = np.random.default_rng(28)
    images = 0
    for ident in catalogue.ids():
        for params in catalogue.entry(ident).default_grid:
            base = catalogue.construct(ident, params)
            flats, nus, corank = _verdicts(base)
            named = [(f"cond {cond:.0e}", base.transformed(_conditioned_gl3(rng, cond)))
                     for cond in (1e2, 1e3, 1e4, 1e5) for _ in range(2)]
            named += [(f"scale {scale:.0e}", base.scaled(scale))
                      for scale in (1e100, 1e150, 1e-150, 1e155, 1e300, 1e-170, 1e-300)]
            for name, image in named:
                where = (ident, params, name)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got_flats, got_nus, got_corank = _verdicts(image)
                assert got_flats == flats and got_corank == corank, where
                assert got_nus.keys() == nus.keys(), where
                for labels, nu in nus.items():
                    assert got_nus[labels] == pytest.approx(nu, rel=1e-7), (where, labels)
                images += 1
    assert images == 37 * 15


def test_uniform_scaling_invariance_of_nu():
    rng = np.random.default_rng(7)
    base = check_vee(catalogue.construct("F3", {"t": 1}))
    for _ in range(TRIALS):
        scale = float(10.0 ** rng.uniform(-3, 3))
        scaled = catalogue.construct("F3", {"t": 1}).scaled(scale)
        report = check_vee(scaled)
        assert report.is_vee_system
        for labels, nu in base.nu_function.items():
            assert report.nu_function[labels] == pytest.approx(nu, rel=1e-9)


def test_pair_coverage_identity_random_configs():
    # every covector pair lies in exactly one rank-2 flat, so the flat
    # sizes always satisfy sum C(size, 2) = C(n, 2)
    rng = np.random.default_rng(11)
    for trial in range(TRIALS):
        n = int(rng.integers(4, 12))
        A = rng.standard_normal((3, n))
        if np.linalg.matrix_rank(A) < 3:
            continue
        decomp = decompose(CovectorConfiguration(A))
        covered = sum(math.comb(f.size, 2) for f in decomp.flats)
        assert covered == math.comb(n, 2), trial


def _brute_force_vee(config, tol=1e-9):
    """Direct check: on every rank-2 flat the dual covectors must satisfy
    sum_beta <beta, member> beta-dual proportional to member-dual."""
    from plane_reference import gram_inverse, pairing

    duals = gram_inverse(config) @ config.matrix
    decomp = decompose(config)
    for f in decomp.flats:
        for m in f.members:
            acc = np.zeros(3)
            for k in f.members:
                acc += pairing(config, k, m) * duals[:, k]
            target = duals[:, m]
            cross = np.outer(acc, target) - np.outer(target, acc)
            scale = max(np.linalg.norm(acc) * np.linalg.norm(target), 1e-30)
            if np.abs(cross).max() / scale > tol * 100:
                return False
    return True


def test_brute_force_matches_check_vee_on_random_quads():
    rng = np.random.default_rng(5)
    agreements = 0
    for trial in range(TRIALS):
        A = rng.standard_normal((3, 4))
        if np.linalg.matrix_rank(A) < 3:
            continue
        config = CovectorConfiguration(A)
        assert check_vee(config).is_vee_system == _brute_force_vee(config), trial
        agreements += 1
    assert agreements > TRIALS // 2


def test_brute_force_accepts_known_direct_sum():
    # e1, e2, e1+e2, e3 is A2 + A1: a genuine system with one triple flat
    config = CovectorConfiguration(
        np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    )
    assert _brute_force_vee(config)
    report = check_vee(config)
    assert report.is_vee_system
    sizes = sorted(f.size for f in report.decomposition.flats)
    assert sizes == [2, 2, 2, 3]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_relabelling_preserves_fingerprint(seed):
    from veesys import fingerprint, same_matroid
    from veesys.matroid import YES

    rng = np.random.default_rng(seed)
    config = catalogue.construct("B3", {"c1": 1, "c2": 2, "c3": 3, "gamma": 0.5})
    perm = rng.permutation(config.n)
    shuffled = CovectorConfiguration(config.matrix[:, perm],
                                     tuple(str(i + 1) for i in range(config.n)))
    d1, d2 = decompose(config), decompose(shuffled)
    assert fingerprint(d1).digest == fingerprint(d2).digest
    assert same_matroid(d1, d2) == YES


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.2, max_value=5.0),
)
def test_a3_family_always_verifies(c1, c2, c3):
    report = check_vee(catalogue.construct("A3", {"c1": c1, "c2": c2, "c3": c3}))
    assert report.is_vee_system
    # the four nu values always sum to 3 across the whole family
    assert sum(report.nu_function.values()) == pytest.approx(3.0, rel=1e-9)
