import itertools
import math

import numpy as np
import pytest

from veesys import CovectorConfiguration, catalogue, decompose, fingerprint, same_matroid
from veesys import matroid
from veesys.errors import RankTooHigh
from veesys.tolerances import COPLANAR_TOL


def _grid_points():
    """(id, configuration) for every default-grid point of every family."""
    for ident in catalogue.ids():
        for params in catalogue.entry(ident).default_grid:
            yield f"{ident}{params}", catalogue.construct(ident, params)


def _triple_dets(config):
    """|det| of every unit-covector triple i < j < k, one LU determinant each."""
    unit = config.matrix / np.linalg.norm(config.matrix, axis=0)
    triples = list(itertools.combinations(range(config.n), 3))
    dets = np.abs(np.linalg.det(unit[:, triples].transpose(1, 0, 2)))
    return dict(zip(triples, dets.tolist()))


def _reference_flats(config):
    """Loop reference for decompose: union-find over pairs, joined per triple."""
    parent = {pair: pair for pair in itertools.combinations(range(config.n), 2)}

    def find(pair):
        while parent[pair] != pair:
            pair = parent[pair]
        return pair

    for (i, j, k), det in _triple_dets(config).items():
        if det < COPLANAR_TOL:
            for other in ((i, k), (j, k)):
                parent[find(other)] = find((i, j))
    groups = {}
    for pair in parent:
        groups.setdefault(find(pair), set()).update(pair)
    return tuple(sorted((tuple(sorted(m)) for m in groups.values()),
                        key=lambda m: (len(m), m)))


def _assert_matches_reference(name, config):
    flats = tuple(f.members for f in decompose(config).flats)
    assert flats == _reference_flats(config), name
    covered = sum(math.comb(len(m), 2) for m in flats)
    assert covered == math.comb(config.n, 2), name
    return flats


def _planted_lines(rng, sizes, generic):
    """Covectors on random planes (collinear points), plus generic ones, each
    scaled by 1e-10 to 1e6: flats must not depend on the scale."""
    columns, planted = [], []
    for size in sizes:
        basis = rng.standard_normal((3, 2))
        planted.append(tuple(range(len(columns), len(columns) + size)))
        columns.extend((basis @ rng.standard_normal(2)) for _ in range(size))
    columns.extend(rng.standard_normal(3) for _ in range(generic))
    scales = 10.0 ** rng.uniform(-10, 6, len(columns))
    return CovectorConfiguration(np.array(columns).T * scales), planted


def _label_sets(config, decomp):
    return {frozenset(config.sublabels(f.members)) for f in decomp.flats}


def test_a3_flats():
    config = catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1})
    expected = {
        frozenset(s)
        for s in [
            ("1", "6"), ("2", "5"), ("3", "4"),
            ("1", "2", "4"), ("1", "3", "5"), ("2", "3", "6"), ("4", "5", "6"),
        ]
    }
    assert _label_sets(config, decompose(config)) == expected


def test_pair_coverage_catalogue_wide():
    for ident in catalogue.ids():
        ent = catalogue.entry(ident)
        params = ent.default_grid[0] if ent.default_grid else {}
        config = catalogue.construct(ident, params)
        decomp = decompose(config)
        covered = sum(math.comb(f.size, 2) for f in decomp.flats)
        assert covered == math.comb(config.n, 2), ident


def test_every_pair_in_exactly_one_flat():
    config = catalogue.construct("H3", {})
    decomp = decompose(config)
    seen = set()
    for f in decomp.flats:
        for pair in itertools.combinations(f.members, 2):
            assert pair not in seen
            seen.add(pair)
    assert len(seen) == math.comb(config.n, 2)


def test_fingerprint_is_relabelling_invariant():
    config = catalogue.construct("B3", {"c1": 1, "c2": 2, "c3": 3, "gamma": 0.5})
    rng = np.random.default_rng(3)
    perm = rng.permutation(config.n)
    shuffled = config.take(list(perm))
    assert fingerprint(decompose(config)).digest == fingerprint(
        decompose(shuffled)
    ).digest


def _reference_point_profile(decomp):
    """Per covector, the sorted sizes of the flats through it: one scan of
    all flats per covector."""
    return tuple(
        tuple(sorted(f.size for f in decomp.flats if i in f.members))
        for i in range(decomp.n)
    )


def test_fingerprint_matches_per_covector_definition():
    rng = np.random.default_rng(11)
    configs = [config for _, config in _grid_points()]
    configs += [CovectorConfiguration(rng.standard_normal((3, n)))
                for n in (4, 9, 17, 30, 48)]
    configs += [_planted_lines(rng, sizes, generic)[0]
                for sizes, generic in [((3,), 3), ((5, 4, 3), 6), ((6, 6), 10)]]
    assert len(configs) == 37 + 5 + 3
    for config in configs:
        decomp = decompose(config)
        profile = _reference_point_profile(decomp)
        fp = fingerprint(decomp)
        assert fp.point_profile == profile
        assert fp.canonical_profile == tuple(sorted(profile))
        assert fp.flat_size_multiset == tuple(sorted(f.size for f in decomp.flats))


def test_same_matroid_yes_on_permutation():
    config = catalogue.construct("F3", {"t": 1})
    perm = list(reversed(range(config.n)))
    assert same_matroid(decompose(config), decompose(config.take(perm))) == matroid.YES


def test_same_matroid_no_on_different_systems():
    a3 = catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1})
    rng = np.random.default_rng(11)
    generic = CovectorConfiguration(rng.standard_normal((3, a3.n)))
    assert same_matroid(decompose(a3), decompose(generic)) == matroid.NO


def test_same_matroid_rejects_size_mismatch():
    a3 = catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1})
    d3 = catalogue.construct("D3", {"t": 1, "s": 1})
    with pytest.raises(ValueError, match="ground-set"):
        same_matroid(decompose(a3), decompose(d3))


def test_same_matroid_unknown_on_tiny_budget():
    config = catalogue.construct("H4A1", {})
    d = decompose(config)
    d2 = decompose(config.take(list(reversed(range(config.n)))))
    assert same_matroid(d, d2, node_budget=3) == matroid.UNKNOWN
    assert same_matroid(d, d2) == matroid.YES


def _decomposition_from_flats(member_sets, n):
    """A FlatDecomposition from explicit member-index sets, no geometry:
    the flats sorted by (size, members), as decompose orders them."""
    flats = sorted((tuple(sorted(m)) for m in member_sets), key=lambda m: (len(m), m))
    pairs = [m for m in flats if len(m) == 2]
    return matroid.FlatDecomposition(
        tuple(map(matroid.Flat, flats)), tuple(range(len(pairs))),
        tuple(range(len(pairs), len(flats))), n, np.array(pairs, dtype=int).reshape(-1, 2))


def test_decomposition_from_flats_matches_decompose():
    config = catalogue.construct("H3", {})
    decomp = decompose(config)
    rebuilt = _decomposition_from_flats(
        [set(f.members) for f in decomp.flats], config.n
    )
    assert fingerprint(rebuilt).digest == fingerprint(decomp).digest
    assert rebuilt == decomp
    assert np.array_equal(rebuilt.pair_members, decomp.pair_members)


def test_rank_restriction():
    matrix = np.vstack([np.eye(4), np.ones((1, 4))]).T  # 4 x 5, rank 4
    config = CovectorConfiguration(matrix)
    with pytest.raises(RankTooHigh):
        decompose(config)


def test_rank_two_configuration_is_one_flat():
    """All covectors of a rank-2 configuration lie in one flat, a pair flat
    when there are two of them."""
    pair = decompose(CovectorConfiguration(np.eye(2)))
    assert [f.members for f in pair.flats] == [(0, 1)]
    assert (pair.pair_flats, pair.multi_flats) == ((0,), ())
    assert pair.pair_members.tolist() == [[0, 1]]
    angles = np.linspace(0, np.pi, 5)[:-1]
    line = decompose(CovectorConfiguration(np.array([np.cos(angles), np.sin(angles)])))
    assert [f.members for f in line.flats] == [(0, 1, 2, 3)]
    assert (line.pair_flats, line.multi_flats, line.pair_members.shape) == ((), (0,), (0, 2))


def test_tiny_covector_flag():
    base = catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1})
    factors = np.ones(base.n)
    factors[0] = 5e-8  # below the tiny-norm threshold
    squeezed = base.scaled(factors)
    assert decompose(squeezed).tiny_covectors == (0,)


def test_decompose_matches_reference_on_catalogue_grids():
    points = list(_grid_points())
    assert len(points) == 37
    for name, config in points:
        _assert_matches_reference(name, config)


def test_decompose_matches_reference_on_random_configs():
    rng = np.random.default_rng(2024)
    for n in range(4, 49):
        config = CovectorConfiguration(rng.standard_normal((3, n)))
        _assert_matches_reference(f"random n={n}", config)


def test_decompose_matches_reference_on_planted_lines():
    rng = np.random.default_rng(7)
    for sizes, generic in [((3,), 3), ((4, 3), 5), ((5, 4, 3), 6), ((6, 6), 10),
                           ((3, 3, 3, 3, 3), 4)]:
        config, planted = _planted_lines(rng, sizes, generic)
        flats = _assert_matches_reference(f"planted {sizes}+{generic}", config)
        assert set(planted) <= set(flats)


def test_coplanar_decision_margins_on_catalogue_grids():
    """Both sides of COPLANAR_TOL stay far from it on every shipped grid point."""
    accepted, rejected = [], []
    for _, config in _grid_points():
        for det in _triple_dets(config).values():
            (accepted if det < COPLANAR_TOL else rejected).append(det)
    assert max(accepted) <= 1e-13
    assert min(rejected) >= 1e-3
