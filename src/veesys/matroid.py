"""Rank-2 flats of a covector configuration and matroid fingerprinting.

A 2-flat is a maximal set of covectors lying in a common plane of the dual
space.  In rank 3 every unordered pair of covectors belongs to exactly one
flat, so the flats partition the pair set; flats with exactly two members
are called pair flats, the rest multi flats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import RankTooHigh
from .tolerances import COPLANAR_TOL, TINY_NORM

YES = "Yes"
NO = "No"
UNKNOWN = "Unknown"

# Backtracking search for a flat-preserving relabelling gives up after this
# many visited nodes and reports Unknown.  Keeps worst cases (n = 31) bounded
# while letting structured mid-size instances (n ~ 15) finish exactly.
DEFAULT_NODE_BUDGET = 500_000


@dataclass(frozen=True)
class Flat:
    """A rank-2 flat: its sorted member indices."""

    members: tuple

    @property
    def size(self):
        return len(self.members)

    @property
    def is_pair(self):
        return len(self.members) == 2


@dataclass(frozen=True)
class FlatDecomposition:
    flats: tuple  # all flats, sorted by (size, members): pair flats first
    pair_flats: tuple  # indices into flats, range(len(pair_members))
    multi_flats: tuple  # indices into flats
    n: int
    pair_members: np.ndarray = field(compare=False, repr=False)  # read-only (p, 2)
    tiny_covectors: tuple = ()  # indices with norm < TINY_NORM (degeneracy flag)


@dataclass(frozen=True)
class MatroidFingerprint:
    flat_size_multiset: tuple
    point_profile: tuple  # per covector: sorted sizes of flats through it
    canonical_profile: tuple  # point_profile sorted lexicographically

    @property
    def digest(self):
        """Short relabelling-invariant hex digest of the fingerprint."""
        import hashlib

        payload = repr((self.flat_size_multiset, self.canonical_profile))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def decompose(config):
    """Enumerate the rank-2 flats of a configuration of rank at most 3.

    Covectors are normalized to unit length before the determinant test, so
    the decomposition is invariant under per-covector scaling.  Pairs (i,j),
    (i,k) and (j,k) merge into one flat when det(u_i, u_j, u_k) of the unit
    covectors vanishes within the fixed ``COPLANAR_TOL``, not the relative
    tolerance (``rtol``) used by the checks.

    Cost: one C(n,2) x n matrix of determinants, the cross products of all
    pairs i < j times the unit covectors.  A pair in no coplanar triple is a
    pair flat and stays a row of ``pair_members``; only the pairs of the
    coplanar triples go through the union and the grouping in Python.
    """
    r, n = config.matrix.shape
    if r > 3:
        raise RankTooHigh(f"flat enumeration supports rank <= 3, got {r}")

    norms = np.linalg.norm(config.matrix, axis=0)
    tiny = tuple(int(i) for i in np.flatnonzero(norms < TINY_NORM))
    unit = config.matrix / norms
    if r < 3:  # embedded in rank 3, where all its triples are coplanar
        unit = np.vstack([unit, np.zeros((3 - r, n))])

    # Row p of dets holds det(u_i, u_j, u_k) = (u_i x u_j) . u_k for the
    # p-th pair i < j and every k; each coplanar triple is taken once, at
    # its k > j entry.
    ends = np.transpose(np.triu_indices(n, 1))
    first, second = ends.T
    x, y = unit.T[:, [1, 2, 0]], unit.T[:, [2, 0, 1]]  # rolled coordinates
    dets = (x[first] * y[second] - y[first] * x[second]) @ unit
    np.abs(dets, out=dets)  # in place: the largest array of the call
    coplanar = (dets < COPLANAR_TOL) & (np.arange(n) > second[:, None])
    rows, third = np.divmod(np.flatnonzero(coplanar), n)
    i, j = first[rows], second[rows]
    in_triple = np.zeros((n, n), dtype=bool)
    in_triple[i, j] = in_triple[i, third] = in_triple[j, third] = True
    pair_members = ends[~in_triple[first, second]]
    pair_members.setflags(write=False)

    # Union-find over the pairs of coplanar triples; (i,j) has id i*n + j.
    uf = _UnionFind(n * n)
    for a, b, c in zip(i.tolist(), j.tolist(), third.tolist()):
        uf.union(a * n + b, a * n + c)
        uf.union(a * n + b, b * n + c)
    groups = {}
    for a, b in zip(*(side.tolist() for side in np.nonzero(in_triple))):
        groups.setdefault(uf.find(a * n + b), set()).update((a, b))
    multi = sorted((tuple(sorted(m)) for m in groups.values()),
                   key=lambda m: (len(m), m))

    p = len(pair_members)
    flats = tuple(map(Flat, map(tuple, pair_members.tolist()))) + tuple(map(Flat, multi))
    return FlatDecomposition(flats, tuple(range(p)), tuple(range(p, len(flats))),
                             n, pair_members, tiny)


def fingerprint(decomposition):
    """Relabelling-invariant summary of the flat structure.  Covector k lies
    in n - 1 - sum(size - 1) pair flats, the sum over the multi flats through k."""
    n = decomposition.n
    multi = [decomposition.flats[k] for k in decomposition.multi_flats]
    sizes = (2,) * len(decomposition.pair_flats) + tuple(sorted(f.size for f in multi))
    through = [[] for _ in range(n)]
    for f in multi:
        for i in f.members:
            through[i].append(f.size)
    profile = tuple((2,) * (n - 1 - sum(t) + len(t)) + tuple(sorted(t))
                    for t in through)
    return MatroidFingerprint(sizes, profile, tuple(sorted(profile)))


class _BudgetExceeded(Exception):
    pass


def _search_bijection(d1, d2, node_budget):
    """Backtracking search for a covector bijection mapping flats to flats.

    Returns the mapping (list, d1 index -> d2 index) or None; raises
    _BudgetExceeded when the node budget runs out.  Assumes fingerprints
    already agree.
    """
    n = d1.n
    f1, f2 = fingerprint(d1), fingerprint(d2)
    target_sets = set(f.members for f in d2.flats)

    def pair_sizes(d):
        ps = {}
        for f in d.flats:
            for a, b in itertools.combinations(f.members, 2):
                ps[(a, b)] = f.size
        return ps

    ps1, ps2 = pair_sizes(d1), pair_sizes(d2)

    candidates = [
        [j for j in range(n) if f2.point_profile[j] == f1.point_profile[i]]
        for i in range(n)
    ]
    order = sorted(range(n), key=lambda i: len(candidates[i]))
    mapping = [-1] * n
    used = [False] * n
    nodes = 0

    def extend(depth):
        nonlocal nodes
        if depth == n:
            for f in d1.flats:
                image = tuple(sorted(mapping[i] for i in f.members))
                if image not in target_sets:
                    return False
            return True
        i = order[depth]
        for j in candidates[i]:
            nodes += 1
            if nodes > node_budget:
                raise _BudgetExceeded
            if used[j]:
                continue
            ok = True
            for d_prev in range(depth):
                k = order[d_prev]
                a, b = min(i, k), max(i, k)
                u, v = min(j, mapping[k]), max(j, mapping[k])
                if ps1[(a, b)] != ps2[(u, v)]:
                    ok = False
                    break
            if not ok:
                continue
            mapping[i] = j
            used[j] = True
            if extend(depth + 1):
                return True
            mapping[i] = -1
            used[j] = False
        return False

    return list(mapping) if extend(0) else None


def same_matroid(d1, d2, node_budget=DEFAULT_NODE_BUDGET):
    """Decide whether two decompositions define the same labelled-set matroid.

    Returns "No" when the fingerprints differ or the exhaustive search rules
    a bijection out, "Yes" when a backtracking search finds a bijection of
    covectors mapping flats onto flats, and "Unknown" when the search
    exceeds its node budget.
    """
    if d1.n != d2.n:
        raise ValueError("decompositions must have equal ground-set size")
    f1, f2 = fingerprint(d1), fingerprint(d2)
    if (f1.flat_size_multiset != f2.flat_size_multiset
            or f1.canonical_profile != f2.canonical_profile):
        return NO
    try:
        mapping = _search_bijection(d1, d2, node_budget)
    except _BudgetExceeded:
        return UNKNOWN
    return YES if mapping is not None else NO
