import dataclasses
import itertools
import math
import re
import sys
import threading
import time

import numpy as np
import pytest

from veesys import (CovectorConfiguration, catalogue, decompose, fingerprint, same_matroid,
                    solve_weights)
from veesys import matroid
from veesys.errors import AmbiguousFlats, RankTooHigh
from veesys.tolerances import COPLANAR_TOL, WEIGHT_TOL


def _grid_points():
    """(id, configuration) for every default-grid point of every family."""
    for ident in catalogue.ids():
        for params in catalogue.entry(ident).default_grid:
            yield f"{ident}{params}", catalogue.construct(ident, params)


def _degeneration_survivors():
    """(id, survivors) of every degeneration row at eps = 1e-3 and 1e-4, and
    at eps = 0 where the row reaches its exact limit."""
    for rel in catalogue.relations("degeneration"):
        keep = [i for i in range(catalogue.entry(rel.source).n)
                if str(i + 1) not in rel.covectors]
        for eps in (1e-3, 1e-4) + ((0.0,) if rel.exact_limit else ()):
            matrix = catalogue._source_at(rel, eps)[:, keep]
            yield (f"{rel.description} eps={eps}",
                   CovectorConfiguration(matrix, tuple(str(i + 1) for i in keep)))


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


def _incidence_of(flats, n):
    """The n x flats incidence, column by column from the member tuples."""
    incidence = np.zeros((n, len(flats)), dtype=bool)
    for col, members in enumerate(flats):
        incidence[list(members), col] = True
    return incidence


def _assert_matches_reference(name, config):
    decomp = decompose(config)
    assert "flats" not in vars(decomp), name  # built on each read only
    flats = tuple(f.members for f in decomp.flats)
    assert flats == _reference_flats(config), name
    assert decomp.flats == decomp.flats and decomp.flats is not decomp.flats, name
    assert "flats" not in vars(decomp), name  # a shared decomposition keeps none
    assert decomp.multi == tuple(m for m in flats if len(m) > 2), name
    pairs = tuple(map(tuple, decomp.pair_members.tolist()))
    assert flats[:len(pairs)] == pairs, name
    covered = sum(math.comb(len(m), 2) for m in flats)
    assert covered == math.comb(config.n, 2), name
    incidence = decomp.incidence
    assert incidence.dtype == bool, name
    assert incidence.flags.c_contiguous and not incidence.flags.writeable, name
    assert np.array_equal(incidence, _incidence_of(flats, config.n)), name
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


def test_fingerprints_compare_up_to_relabelling():
    config = catalogue.construct("F3", {"t": 1})
    f1 = fingerprint(decompose(config))
    f2 = fingerprint(decompose(config.take(list(reversed(range(config.n))))))
    assert f1.point_profile != f2.point_profile
    assert f1 == f2 and hash(f1) == hash(f2)
    assert f1 != fingerprint(decompose(catalogue.construct("G3", {"t": 1})))


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


def test_same_matroid_unknown_on_tiny_budget(monkeypatch):
    config = catalogue.construct("H4A1", {})
    d = decompose(config)
    d2 = decompose(config.take(list(reversed(range(config.n)))))
    monkeypatch.setattr(matroid, "NODE_BUDGET", 3)
    assert same_matroid(d, d2) == matroid.UNKNOWN
    monkeypatch.undo()  # the default budget
    assert same_matroid(d, d2) == matroid.YES


def test_same_matroid_budget_is_an_exact_node_count(monkeypatch):
    """The search for this relabelling of H4A1 visits 481 candidate images,
    so a budget of 480 gives Unknown and one of 481 finds the bijection."""
    config = catalogue.construct("H4A1", {})
    perm = [1, 26, 20, 8, 13, 15, 7, 10, 0, 11, 18, 23, 9, 28, 29, 16, 5, 24, 17, 25,
            2, 6, 19, 30, 22, 4, 3, 12, 21, 27, 14]
    d, d2 = decompose(config), decompose(config.take(perm))
    monkeypatch.setattr(matroid, "NODE_BUDGET", 480)
    assert same_matroid(d, d2) == matroid.UNKNOWN
    monkeypatch.setattr(matroid, "NODE_BUDGET", 481)
    assert same_matroid(d, d2) == matroid.YES


def _decomposition_from_flats(member_sets, n):
    """A FlatDecomposition from explicit member-index sets, no geometry:
    the flats sorted by (size, members), as decompose orders them."""
    flats = sorted((tuple(sorted(m)) for m in member_sets), key=lambda m: (len(m), m))
    pairs = [m for m in flats if len(m) == 2]
    return matroid.FlatDecomposition(
        n, tuple(m for m in flats if len(m) > 2), np.array(pairs, dtype=int).reshape(-1, 2),
        _incidence_of(flats, n))


def test_decomposition_from_flats_matches_decompose():
    config = catalogue.construct("H3", {})
    decomp = decompose(config)
    assert decompose(config) is config.analysis.decomposition is decomp
    rebuilt = _decomposition_from_flats(
        [set(f.members) for f in decomp.flats], config.n
    )
    assert fingerprint(rebuilt).digest == fingerprint(decomp).digest
    assert rebuilt == decomp
    assert rebuilt.flats == decomp.flats
    assert np.array_equal(rebuilt.pair_members, decomp.pair_members)
    assert np.array_equal(rebuilt.incidence, decomp.incidence)


def test_decomposition_equality_reads_n_and_multi():
    """In rank 3 the multi flats fix the pair flats, so equality compares
    (n, multi) alone and ignores the arrays."""
    decomp = decompose(catalogue.construct("H3", {}))
    assert decomp == matroid.FlatDecomposition(decomp.n, decomp.multi, None, None)
    assert hash(decomp) == hash(matroid.FlatDecomposition(decomp.n, decomp.multi, None, None))
    assert decomp != matroid.FlatDecomposition(decomp.n + 1, decomp.multi, None, None)
    assert decomp != matroid.FlatDecomposition(decomp.n, decomp.multi[1:], None, None)


def test_replacing_flats_rebuilds_the_arrays():
    """dataclasses.replace(d, flats=...) reads every other field off the
    given Flat objects, in any order, as a decomposition with those flats."""
    decomp = decompose(catalogue.construct("H3", {}))
    same = dataclasses.replace(decomp, flats=decomp.flats)
    assert same == decomp and same.flats == decomp.flats
    assert np.array_equal(same.pair_members, decomp.pair_members)
    assert np.array_equal(same.incidence, decomp.incidence)
    kept = [f for f in decomp.flats if f.members != decomp.multi[-1]]
    lost = dataclasses.replace(decomp, flats=tuple(reversed(kept)))
    expected = _decomposition_from_flats([f.members for f in kept], decomp.n)
    assert lost == expected and lost.flats == expected.flats
    assert np.array_equal(lost.pair_members, expected.pair_members)
    assert np.array_equal(lost.incidence, expected.incidence)
    assert not lost.incidence.flags.writeable


def test_multi_views_follow_the_flat_order():
    decomp = decompose(catalogue.construct("H3", {}))
    p = len(decomp.pair_members)
    assert np.array_equal(decomp.multi_incidence, decomp.incidence[:, p:])
    assert decomp.multi_leads.tolist() == [list(m[:2]) for m in decomp.multi]
    assert not decomp.multi_leads.flags.writeable
    assert "flats" not in vars(decomp)


def test_rank_restriction():
    matrix = np.vstack([np.eye(4), np.ones((1, 4))]).T  # 4 x 5, rank 4
    config = CovectorConfiguration(matrix)
    for _ in range(2):  # a failed enumeration is not kept
        with pytest.raises(RankTooHigh):
            decompose(config)


def test_rank_two_configuration_is_one_flat():
    """All covectors of a rank-2 configuration lie in one flat, a pair flat
    when there are two of them."""
    pair = decompose(CovectorConfiguration(np.eye(2)))
    assert [f.members for f in pair.flats] == [(0, 1)]
    assert (len(pair.pair_members), len(pair.multi), pair.multi) == (1, 0, ())
    assert pair.pair_members.tolist() == [[0, 1]]
    assert pair.multi_incidence.shape == (2, 0) and pair.multi_leads.shape == (0, 2)
    angles = np.linspace(0, np.pi, 5)[:-1]
    line = decompose(CovectorConfiguration(np.array([np.cos(angles), np.sin(angles)])))
    assert [f.members for f in line.flats] == [(0, 1, 2, 3)]
    assert (len(line.pair_members), len(line.multi), line.multi) == (0, 1, ((0, 1, 2, 3),))
    assert line.pair_members.shape == (0, 2)
    assert line.multi_leads.tolist() == [[0, 1]]


def test_decompose_matches_reference_on_catalogue_grids():
    points = list(_grid_points()) + list(_degeneration_survivors())
    assert len(points) == 37 + 30
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
    """Both sides of COPLANAR_TOL stay far from it on every shipped grid point
    and on the survivors of every degeneration path."""
    accepted, rejected = [], []
    for _, config in [*_grid_points(), *_degeneration_survivors()]:
        for det in _triple_dets(config).values():
            (accepted if det < COPLANAR_TOL else rejected).append(det)
    assert max(accepted) <= 1e-13
    assert min(rejected) >= 1e-3


def _five_covectors(delta):
    """(1,0,0), (0,1,0), (1,1,delta), (1,-1,delta), (0,0,1): the unit |det| of
    the triples (a,b,c) and (a,b,d) is delta/sqrt(2), that of (a,c,d) is delta,
    and (b,c,d) is exactly coplanar."""
    columns = [[1, 0, 0], [0, 1, 0], [1, 1, delta], [1, -1, delta], [0, 0, 1]]
    return CovectorConfiguration(np.array(columns, dtype=float).T, tuple("abcde"))


def test_coplanarity_contradiction_raises_between_consistent_sides():
    below = _assert_matches_reference("delta=5e-10", _five_covectors(5e-10))
    assert below == ((0, 4), (1, 4), (2, 4), (3, 4), (0, 1, 2, 3))
    above = _assert_matches_reference("delta=2e-9", _five_covectors(2e-9))
    assert above == ((0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4), (1, 2, 3))

    # (a,b,c) and (a,b,d) are accepted, (a,c,d) is rejected: the union-find
    # oracle chains them into one flat whose triples are not all coplanar
    contradictory = _five_covectors(1.2e-9)
    assert _reference_flats(contradictory)[-1] == (0, 1, 2, 3)
    for _ in range(2):  # a failed enumeration is not kept
        with pytest.raises(AmbiguousFlats, match=r"row of covectors [a-e] and [a-e] reads"):
            decompose(contradictory)


def test_rows_that_split_a_flat_raise():
    """Rows (0,1) and (0,2) read the flat (0,1,2) but row (1,2) reads a pair.
    Each row marks the set of its leading row, so only the pair count sees
    that a pair of the flat reads otherwise; rounding can make the three rows
    of one triple disagree this way when its |det| is within rounding of
    COPLANAR_TOL."""
    ends = np.argwhere(np.less.outer(range(4), range(4)))
    hits = np.zeros((len(ends), 4), dtype=bool)
    hits[np.arange(len(ends))[:, None], ends] = True
    hits[0, 2] = hits[1, 1] = True
    flat = r"row of covectors a and b reads the flat \('a', 'b', 'c'\)"
    with pytest.raises(AmbiguousFlats, match=flat):
        matroid._read_rows(hits, ends, tuple("abcd"))
    hits[3, 0] = True  # row (1,2) joins them: one flat (0,1,2) and three pairs
    pairs, multi, incidence = matroid._read_rows(hits, ends, tuple("abcd"))
    assert (pairs.tolist(), multi) == ([[0, 3], [1, 3], [2, 3]], ((0, 1, 2),))
    assert incidence.tolist() == _incidence_of([(0, 3), (1, 3), (2, 3), (0, 1, 2)], 4).tolist()


def _gl3(rng):
    while True:
        C = rng.standard_normal((3, 3))
        if np.linalg.cond(C) < 100:
            return C


@pytest.fixture
def shared(monkeypatch):
    """An empty table of shared decompositions for the test, and the
    coplanarity patterns ``_read_rows`` reads."""
    monkeypatch.setattr(matroid, "_shared", {})
    patterns = []
    read = matroid._read_rows

    def recorded(hits, ends, labels):
        patterns.append(hits)
        return read(hits, ends, labels)

    monkeypatch.setattr(matroid, "_read_rows", recorded)
    return patterns


def test_one_decomposition_per_coplanarity_pattern(shared):
    """Two GL(3) images of H4A1, and two jittered F3 points, share one
    decomposition, read once; it equals, bit for bit, the flats read by
    ``_read_rows`` and the weights solved by ``lstsq`` from scratch on the
    second configuration, and so do its connectivity and fingerprint."""
    rng = np.random.default_rng(30)
    h4a1 = catalogue.construct("H4A1", {})
    pairs = [(h4a1.transformed(_gl3(rng)), h4a1.transformed(_gl3(rng))),
             (catalogue.construct("F3", {"t": 0.9}), catalogue.construct("F3", {"t": 1.2}))]
    for first, second in pairs:
        shared.clear()
        decomp = decompose(first)
        assert decompose(second) is decomp and len(shared) == 1
        assert "flats" not in vars(decomp)

        # from scratch: the second configuration's own pattern, read directly
        matroid._shared.clear()
        assert matroid._enumerate_flats(second) is not decomp
        hits = shared[-1]
        pair_members, multi, incidence = matroid._read_rows(
            hits, matroid._pair_ends(second.n), second.labels)
        assert decomp.multi == multi
        for mine, theirs in ((decomp.pair_members, pair_members), (decomp.incidence, incidence)):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        assert [f.members for f in decomp.flats] == [*map(tuple, pair_members.tolist()), *multi]
        M = np.asfortranarray(incidence[:, len(pair_members):], dtype=float)
        x, _, _, svals = np.linalg.lstsq(M, np.ones(second.n), rcond=None)
        residual = float(np.abs(M @ x - 1).max())
        solution = solve_weights(second)
        assert list(solution.weights.values()) == x.tolist()
        assert solution.residual == residual < WEIGHT_TOL
        assert solution.universal_value == float(x @ second.analysis.multi_nus)
        rank = np.count_nonzero(svals > WEIGHT_TOL)
        assert solution.status == ("underdetermined" if rank < len(multi) else "feasible")
        fresh = matroid.FlatDecomposition(second.n, multi, pair_members, incidence)
        assert decomp.connected is fresh.connected is True
        # a decomposition made with no configuration decides the same weight system
        status, weights, fresh_residual = fresh.weight_system
        assert (status, weights.tolist(), fresh_residual) == (solution.status, x.tolist(), residual)
        mine, theirs = fingerprint(decomp), fresh.fingerprint
        assert mine is decomp.fingerprint
        assert mine.flat_size_multiset == theirs.flat_size_multiset
        assert mine.point_profile == theirs.point_profile
        assert mine.digest == theirs.digest


def test_contradictory_patterns_are_not_shared(shared):
    """Two configurations with one contradictory pattern and different labels
    each raise AmbiguousFlats naming their own labels, on every call, and the
    table keeps nothing of them."""
    first = _five_covectors(1.2e-9)
    second = CovectorConfiguration(first.matrix, tuple("vwxyz"))
    messages = []
    for config in (first, second, first, second):
        with pytest.raises(AmbiguousFlats) as info:
            decompose(config)
        messages.append(str(info.value))
    assert len(shared) == 4 and not matroid._shared
    assert messages[0] == messages[2] and messages[1] == messages[3]
    relabelled = re.sub(r"\b[a-e]\b", lambda m: "vwxyz"["abcde".index(m[0])], messages[0])
    assert messages[1] == relabelled != messages[0]


def _table_bytes():
    with matroid._shared_lock:
        return sum(itertools.starmap(matroid._held, matroid._shared.items()))


def _generic(rng, n):
    """A configuration of n covectors in general position, whose pattern,
    no three coplanar, is the same for every such configuration of n."""
    return CovectorConfiguration(rng.standard_normal((3, n)))


def _one_line(rng, n, k):
    """n covectors in general position but for covector k, put on the
    plane of the first two: one pattern for each k, its flat (0, 1, k)."""
    A = rng.standard_normal((3, n))
    A[:, k] = A[:, :2] @ rng.standard_normal(2)
    return CovectorConfiguration(A)


def _key_bytes(n):
    return -(-n * (n - 1) // 2 * n // 8)  # C(n, 2) x n pattern bits, packed


def test_shared_table_keeps_its_bound(shared):
    """The keys and arrays the table keeps never take more than
    _SHARED_BYTES, the least recently read pattern dropped first; a
    pattern taking more than an eighth of that is read but not kept."""
    bound = matroid._SHARED_BYTES
    rng = np.random.default_rng(64)
    recent = decompose(_generic(rng, 3))
    oldest = decompose(_one_line(rng, 20, 2))
    assert matroid._held((20, bytes(_key_bytes(20))), oldest) <= bound // 8
    for k in range(3, 20):
        decompose(_one_line(rng, 20, k))
        assert decompose(_generic(rng, 3)) is recent  # read again: the most recent
        assert _table_bytes() <= bound
    assert len(shared) == 19  # each pattern read once
    lines = sorted(d.multi[0][2] for d in matroid._shared.values() if d.multi)
    assert 1 < len(lines) < 17 and lines == list(range(20 - len(lines), 20))

    before = list(matroid._shared.items())
    large = decompose(_generic(rng, 21))
    assert matroid._held((21, bytes(_key_bytes(21))), large) > bound // 8
    assert [(key, id(d)) for key, d in matroid._shared.items()] == [
        (key, id(d)) for key, d in before]  # not kept, and nothing dropped for it
    assert decompose(_generic(rng, 21)) is not large and len(shared) == 21
    again = decompose(_one_line(rng, 20, 2))
    assert again == oldest and again is not oldest and len(shared) == 22


def test_shared_table_under_threads(shared, monkeypatch):
    """Threads decomposing configurations of more patterns than the table
    holds, switching often: no error, the bound holds, and each
    configuration gets a decomposition of its own size."""
    rng = np.random.default_rng(5)
    lines = [_one_line(rng, 12, k) for k in range(2, 12)]
    size = matroid._held((12, bytes(_key_bytes(12))), decompose(lines[0]))
    bound = 8 * size  # eight of the ten patterns of ``lines`` fit, and n = 12
    monkeypatch.setattr(matroid, "_SHARED_BYTES", bound)  # in general position is not kept
    matrices = [c.matrix for c in lines] + [rng.standard_normal((3, n)) for n in (3, 4, 12)]
    matrices *= 12
    failures, sizes = [], []

    def work(offset):
        try:
            for matrix in matrices[offset:] + matrices[:offset]:
                config = CovectorConfiguration(matrix)  # its own, so the table is read
                assert decompose(config).n == config.n
                sizes.append(_table_bytes())
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures and len(sizes) == 6 * len(matrices)
    assert max(sizes) <= bound and 0 < len(matroid._shared) < len(lines)


def test_threads_read_a_kept_pattern_once(shared, monkeypatch):
    """Six threads that enumerate one kept pattern, H3's, at once: the
    pattern is read once, and every thread gets that one decomposition.
    The read is slowed, so the other threads look the pattern up while it
    runs.  The threads call ``_enumerate_flats``, as ``decompose`` would
    serialize them on Python 3.10 and 3.11, whose ``cached_property`` holds
    one lock per class."""
    read = matroid._read_rows

    def slow(hits, ends, labels):
        time.sleep(0.05)
        return read(hits, ends, labels)

    monkeypatch.setattr(matroid, "_read_rows", slow)
    configs = [catalogue.construct("H3", {}) for _ in range(6)]
    start = threading.Barrier(len(configs))
    results = [None] * len(configs)

    def work(k):
        start.wait()
        results[k] = matroid._enumerate_flats(configs[k])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(configs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert len(shared) == 1
    assert all(result is results[0] for result in results) and results[0].n == 15
