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

from .errors import AmbiguousFlats, RankTooHigh
from .tolerances import COPLANAR_TOL

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
    incidence: np.ndarray = field(compare=False, repr=False)  # read-only bool n x flats


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


def decompose(config):
    """The rank-2 flats of a configuration of rank at most 3.

    Returns ``config.decomposition``, which the configuration enumerates
    once, on first use, and shares with its plane analysis; every call on
    one configuration returns that same FlatDecomposition.  Raises
    RankTooHigh or AmbiguousFlats on every call, as no decomposition is kept
    when the enumeration raises.
    """
    return config.decomposition


def _enumerate_flats(config):
    """Enumerate the rank-2 flats of a configuration of rank at most 3.

    Covectors are normalized to unit length before the determinant test, so
    the decomposition is invariant under per-covector scaling.  Covector k
    lies on the flat through covectors i and j when det(u_i, u_j, u_k) of the
    unit covectors vanishes within the fixed ``COPLANAR_TOL``, not the
    relative tolerance (``rtol``) used by the checks.

    Cost: one C(n,2) x n matrix of determinants, the cross products of all
    pairs i < j times the unit covectors.  Its rows below ``COPLANAR_TOL``
    are the flats, read by ``_read_rows``, which raises AmbiguousFlats when
    they contradict each other.
    """
    r, n = config.matrix.shape
    if r > 3:
        raise RankTooHigh(f"flat enumeration supports rank <= 3, got {r}")

    unit = config.matrix / np.linalg.norm(config.matrix, axis=0)
    if r < 3:  # embedded in rank 3, where all its triples are coplanar
        unit = np.vstack([unit, np.zeros((3 - r, n))])

    # Row p of dets holds det(u_i, u_j, u_k) = (u_i x u_j) . u_k for the
    # p-th pair i < j and every k, i and j included.
    k = np.arange(n)
    ends = np.argwhere(np.less.outer(k, k))  # np.triu_indices order, at a third of its cost
    first, second = ends.T
    x, y = unit.T[:, [1, 2, 0]], unit.T[:, [2, 0, 1]]  # rolled coordinates
    dets = (x[first] * y[second] - y[first] * x[second]) @ unit
    np.abs(dets, out=dets)  # in place: the largest array of the call
    pair_members, multi, incidence = _read_rows(dets < COPLANAR_TOL, ends, config.labels)
    p = len(pair_members)
    flats = tuple(map(Flat, map(tuple, pair_members.tolist()))) + tuple(map(Flat, multi))
    return FlatDecomposition(flats, tuple(range(p)), tuple(range(p, len(flats))),
                             n, pair_members, incidence)


def _read_rows(hits, ends, labels):
    """The pair flats, a read-only (p, 2) array, the sorted multi flats, and
    the read-only n x flats incidence of covectors and flats.

    Row p of ``hits`` marks the covectors coplanar with the pair ``ends[p]``,
    both ends included, pairs in np.triu_indices order.  A row with two hits
    is a pair flat; a multi flat is read from the row of its two smallest
    members.  The incidence is those rows, pair rows first, transposed to a
    C-contiguous boolean array with one column per flat in ``flats`` order.
    Raises AmbiguousFlats unless each row marks the set of that leading row
    and the flats hold the C(n, 2) pairs between them.
    """
    n = hits.shape[1]
    counts = np.count_nonzero(hits, axis=1)
    is_pair = counts == 2
    pair_members = ends[is_pair]
    pair_members.setflags(write=False)

    rows = np.flatnonzero(counts > 2)
    on_row = hits[rows]
    a = on_row.argmax(1)
    b = (on_row & (np.arange(n) > a[:, None])).argmax(1)
    lead = a * (2 * n - a - 1) // 2 + b - a - 1  # the row of pair (a, b)
    heads = rows[lead == rows]
    sizes = counts[heads]
    on_flats = sizes * (sizes - 1) // 2  # pairs on each multi flat
    clash = rows[(on_row != hits[lead]).any(1)]
    if len(clash) or len(pair_members) + on_flats.sum() != len(ends):
        # a row whose flat is not its leading row's, else a flat with a pair led elsewhere
        short = heads[np.bincount(lead, minlength=len(ends))[heads] < on_flats]
        row = np.concatenate([clash, short])[0]
        i, j = ends[row]
        raise AmbiguousFlats(
            f"coplanarity contradicts itself: the |det| row of covectors "
            f"{labels[i]} and {labels[j]} reads the flat "
            f"{tuple(labels[k] for k in np.flatnonzero(hits[row]))}, which the "
            f"rows of other pairs of it contradict (COPLANAR_TOL = {COPLANAR_TOL:g})")

    # Heads run in the order of their pairs (a, b), which no two flats share,
    # so sorting them by size alone gives the (size, members) order.
    order = np.argsort(sizes, kind="stable")
    heads, sizes = heads[order], sizes[order].tolist()
    incidence = hits[np.concatenate([np.flatnonzero(is_pair), heads])].T.copy()
    incidence.setflags(write=False)
    members = np.nonzero(incidence[:, len(pair_members):].T)[1].tolist()
    multi = [tuple(members[stop - size:stop])
             for stop, size in zip(itertools.accumulate(sizes), sizes)]
    return pair_members, multi, incidence


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
