"""Rank-2 flats of a covector configuration and matroid fingerprinting.

A 2-flat is a maximal set of covectors lying in a common plane of the dual
space.  In rank 3 every unordered pair of covectors belongs to exactly one
flat, so the flats partition the pair set; flats with exactly two members
are called pair flats, the rest multi flats.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import digests
from .errors import AmbiguousFlats, RankTooHigh
from .tolerances import COPLANAR_TOL, WEIGHT_TOL

YES = "Yes"
NO = "No"
UNKNOWN = "Unknown"

# Backtracking search for a flat-preserving relabelling gives up after this
# many visited nodes and reports Unknown.  Keeps worst cases (n = 31) bounded
# while letting structured mid-size instances (n ~ 15) finish exactly.
NODE_BUDGET = 500_000


class Flat:
    """A rank-2 flat: its sorted member indices.  Flats compare and hash by
    their members."""

    def __init__(self, members):
        self.members = members

    def __eq__(self, other):
        if isinstance(other, Flat):
            return self.members == other.members
        return NotImplemented

    def __hash__(self):
        return hash(self.members)

    @property
    def size(self):
        return len(self.members)

    @property
    def is_pair(self):
        return len(self.members) == 2


@dataclass(frozen=True)
class FlatDecomposition:
    """The rank-2 flats of n covectors, held as arrays.

    Flats are numbered pair flats first, in np.triu_indices order of their
    members, then the multi flats in (size, members) order, and column k
    of ``incidence`` marks the members of flat k.  ``multi_incidence`` (the
    multi-flat columns) and ``multi_leads`` (the two smallest members of
    each multi flat) are the views of that layout the checks read.
    Equality compares ``n`` and ``multi`` alone: in rank 3 the multi flats
    fix the pair flats, the pairs no multi flat covers.

    Flat enumeration shares one decomposition among the configurations
    with one coplanarity pattern, so a decomposition is read-only and every
    quantity that depends on the matroid alone is a cached property of it:
    ``multi_leads``, ``weight_system``, ``connected`` and ``fingerprint``,
    each computed on first read, once per matroid.

    ``flats`` is for display and builds one Flat per flat on each read,
    which the decomposition does not keep; the checks read the arrays.
    Passing ``flats=`` Flat objects to the constructor, as
    ``dataclasses.replace(d, flats=...)`` does, rebuilds the other fields
    from them instead.
    """

    n: int
    multi: tuple  # member tuples of the multi flats, sorted by (size, members)
    pair_members: np.ndarray = field(compare=False, repr=False)  # read-only (p, 2)
    incidence: np.ndarray = field(compare=False, repr=False)  # read-only bool n x flats
    flats: InitVar[tuple] = None  # Flat objects to rebuild the fields from

    def __post_init__(self, flats):
        if flats is None:
            return
        members = [f.members for f in flats]
        pairs = sorted(m for m in members if len(m) == 2)
        multi = tuple(sorted((m for m in members if len(m) > 2), key=lambda m: (len(m), m)))
        incidence = np.zeros((self.n, len(pairs) + len(multi)), dtype=bool)
        for k, m in enumerate(pairs + list(multi)):
            incidence[list(m), k] = True
        pair_members = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        for shared in (pair_members, incidence):
            shared.setflags(write=False)
        for name, value in (("multi", multi), ("pair_members", pair_members),
                            ("incidence", incidence)):
            object.__setattr__(self, name, value)

    @property
    def multi_incidence(self):
        """The read-only n x m incidence of covectors and multi flats, a view."""
        return self.incidence[:, len(self.pair_members):]

    @cached_property
    def multi_leads(self):
        """The two smallest members of each multi flat, a read-only (m, 2) array."""
        leads = np.array([members[:2] for members in self.multi], dtype=int).reshape(-1, 2)
        leads.setflags(write=False)
        return leads

    @cached_property
    def weight_system(self):
        """The weight system M w = 1, M the n x m multi incidence, decided:
        its status, its minimum-norm least-squares solution w, read-only,
        or None when infeasible, and the largest residual |M w - 1|.

        It is infeasible when the residual reaches WEIGHT_TOL, as when a
        covector lies in no multi flat (its row reads 0 = 1, so without a
        multi flat the residual is 1), and underdetermined when M has fewer
        singular values above WEIGHT_TOL than columns, else feasible.
        """
        if not self.multi:
            return "infeasible", None, 1.0
        # Fortran order, as lstsq's rounding depends on the layout
        M = np.asfortranarray(self.multi_incidence, dtype=float)
        ones = np.ones(self.n)
        # one SVD: lstsq's own singular values give the rank
        x, _, _, svals = np.linalg.lstsq(M, ones, rcond=None)
        residual = float(np.abs(M @ x - ones).max())
        if residual >= WEIGHT_TOL:
            return "infeasible", None, residual
        x.setflags(write=False)
        rank = np.count_nonzero(svals > WEIGHT_TOL)
        return "underdetermined" if rank < len(self.multi) else "feasible", x, residual

    @cached_property
    def connected(self):
        """Whether every covector is reached from the first through shared multi flats."""
        reached, grown = {0}, True
        while grown:
            grown = False
            for members in self.multi:
                if not reached.isdisjoint(members) and not reached.issuperset(members):
                    reached.update(members)
                    grown = True
        return len(reached) == self.n

    @cached_property
    def fingerprint(self):
        """The MatroidFingerprint.  Covector k lies in n - 1 - sum(size - 1)
        pair flats, the sum over the multi flats through k."""
        n, multi = self.n, self.multi
        sizes = (2,) * len(self.pair_members) + tuple(map(len, multi))  # multi in size order
        through = [[] for _ in range(n)]
        for members in multi:
            for i in members:
                through[i].append(len(members))
        profile = tuple((2,) * (n - 1 - sum(t) + len(t)) + tuple(sorted(t))
                        for t in through)
        return MatroidFingerprint(sizes, profile, tuple(sorted(profile)))


def _display_flats(decomposition):
    """Every flat as a Flat, in flat order (display only)."""
    pairs = map(tuple, decomposition.pair_members.tolist())
    return tuple(map(Flat, pairs)) + tuple(map(Flat, decomposition.multi))


# Set after the class is made: the class body binds ``flats`` to the default
# of the constructor argument of that name.  Built on each read, so a shared
# decomposition holds no display objects.
FlatDecomposition.flats = property(_display_flats)


class MatroidFingerprint:
    """Equality, like ``digest``, ignores the labelling: it compares the
    flat sizes and the canonical profile, not the per-covector profile."""

    def __init__(self, flat_size_multiset, point_profile, canonical_profile):
        self.flat_size_multiset = flat_size_multiset
        self.point_profile = point_profile  # per covector: sorted sizes of flats through it
        self.canonical_profile = canonical_profile  # point_profile sorted lexicographically

    def _key(self):
        return self.flat_size_multiset, self.canonical_profile

    def __eq__(self, other):
        if isinstance(other, MatroidFingerprint):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    @property
    def digest(self):
        """Short relabelling-invariant hex digest of the fingerprint."""
        return digests.sha256(repr(self._key()).encode()).hexdigest()[:16]


def decompose(config):
    """The rank-2 flats of a configuration of rank at most 3.

    Returns ``config.decomposition``, which the configuration enumerates
    once, on first use, and shares with its plane analysis; every call on
    one configuration returns that same FlatDecomposition, and so do the
    other configurations with the same coplanarity pattern while flat
    enumeration keeps it.  Raises RankTooHigh or AmbiguousFlats on every
    call, as no decomposition is kept when the enumeration raises.
    """
    return config.decomposition


# Flat enumeration keeps the decompositions of recent coplanarity patterns
# while their keys and arrays take at most this many bytes, the least
# recently read pattern dropped first.  A pattern is kept only if it takes
# at most an eighth of that, so no one large pattern empties the table.  A
# family scan meets one small pattern per family (about 1 KB at n = 16,
# 7 KB for H4A1), whose matroid-only quantities are then computed once; n
# covectors in general position take 7 KB at n = 20 and 24 KB at n = 31.
_SHARED_BYTES = 1 << 16
_shared = {}  # (n, packed |det| < COPLANAR_TOL rows) -> FlatDecomposition, least recent first
_shared_lock = threading.Lock()  # held to look up, read, evict and insert


def _held(key, decomposition):
    """The bytes the table counts for one pattern: its key and the arrays."""
    return len(key[1]) + decomposition.pair_members.nbytes + decomposition.incidence.nbytes


def _enumerate_flats(config):
    """Enumerate the rank-2 flats of a configuration of rank at most 3.

    The determinant test reads the configuration's unit covectors
    ``config.unit``, so the decomposition is invariant under per-covector
    scaling.  Covector k lies on the flat through covectors i and j when
    det(u_i, u_j, u_k) of the unit covectors vanishes within the fixed
    ``COPLANAR_TOL``, not the relative tolerance (``rtol``) used by the
    checks.

    Cost: one C(n,2) x n matrix of determinants, the cross products of all
    pairs i < j times the unit covectors.  Its rows below ``COPLANAR_TOL``
    are the coplanarity pattern.  A pattern the table keeps (see
    ``_SHARED_BYTES``) returns the decomposition read from it then, the
    same object; a new one is read by ``_read_rows``, which raises
    AmbiguousFlats, naming this configuration's labels, when the rows
    contradict each other, and is kept only when it reads and is small.
    The look-up, the read and the insertion hold the table's lock
    together, so threads that meet one new pattern read it once.
    """
    r, n = config.matrix.shape
    if r > 3:
        raise RankTooHigh(f"flat enumeration supports rank <= 3, got {r}")

    unit = config.unit
    if r < 3:  # embedded in rank 3, where all its triples are coplanar
        unit = np.vstack([unit, np.zeros((3 - r, n))])

    # Row p of dets holds det(u_i, u_j, u_k) = (u_i x u_j) . u_k for the
    # p-th pair i < j and every k, i and j included.
    ends = _pair_ends(n)
    first, second = ends.T
    x, y = unit.T[:, [1, 2, 0]], unit.T[:, [2, 0, 1]]  # rolled coordinates
    dets = (x[first] * y[second] - y[first] * x[second]) @ unit
    np.abs(dets, out=dets)  # in place: the largest array of the call
    hits = dets < COPLANAR_TOL
    key = n, np.packbits(hits).tobytes()
    with _shared_lock:
        decomposition = _shared.pop(key, None)
        if decomposition is None:
            pair_members, multi, incidence = _read_rows(hits, ends, config.labels)
            decomposition = FlatDecomposition(n, multi, pair_members, incidence)
            size = _held(key, decomposition)
            if size > _SHARED_BYTES // 8:
                return decomposition
            held = sum(itertools.starmap(_held, _shared.items()))
            while held + size > _SHARED_BYTES:
                oldest = next(iter(_shared))
                held -= _held(oldest, _shared.pop(oldest))
        _shared[key] = decomposition  # now the most recent
    return decomposition


@lru_cache(maxsize=64)
def _pair_ends(n):
    """The pairs i < j of n covectors, a read-only (C(n, 2), 2) array in
    np.triu_indices order, kept for the 64 most recent n."""
    k = np.arange(n)
    ends = np.argwhere(np.less.outer(k, k))  # triu_indices order, at a third of its cost
    ends.setflags(write=False)
    return ends


def _read_rows(hits, ends, labels):
    """The pair flats, a read-only (p, 2) array, the multi flats, a tuple of
    member tuples sorted by (size, members), and the read-only n x flats
    incidence of covectors and flats.

    Row p of ``hits`` marks the covectors coplanar with the pair ``ends[p]``,
    both ends included, pairs in np.triu_indices order.  A row with two hits
    is a pair flat; a multi flat is read from the row of its two smallest
    members.  The incidence is those rows, pair rows first, transposed to a
    C-contiguous boolean array with one column per flat, pair flats first,
    then the multi flats.
    Raises AmbiguousFlats unless each row marks the set of that leading row
    and the flats hold the C(n, 2) pairs between them.
    """
    n = hits.shape[1]
    counts = hits.sum(1)
    is_pair = counts == 2
    pair_members = ends[is_pair]
    pair_members.setflags(write=False)

    rows = (counts > 2).nonzero()[0]
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
    incidence = hits[np.concatenate([is_pair.nonzero()[0], heads])].T.copy()
    incidence.setflags(write=False)
    members = np.nonzero(incidence[:, len(pair_members):].T)[1].tolist()
    multi = tuple(tuple(members[stop - size:stop])
                  for stop, size in zip(itertools.accumulate(sizes), sizes))
    return pair_members, multi, incidence


def fingerprint(decomposition):
    """Relabelling-invariant summary of the flat structure, the
    decomposition's cached ``fingerprint``."""
    return decomposition.fingerprint


class _BudgetExceeded(Exception):
    pass


def _pair_sizes(decomposition):
    """The size of the flat through each pair of covectors, as an n x n
    nested list: 2 off the multi flats."""
    sizes = [[2] * decomposition.n for _ in range(decomposition.n)]
    for members in decomposition.multi:
        for a in members:
            row = sizes[a]
            for b in members:
                row[b] = len(members)
    return sizes


def _search_bijection(d1, d2):
    """Backtracking search for a covector bijection mapping flats to flats.

    Returns the mapping (list, d1 index -> d2 index) or None; raises
    _BudgetExceeded after NODE_BUDGET visited nodes.  Assumes the
    decompositions' fingerprints already agree.  Every placed covector
    keeps the size of the flat through each pair it forms, so at a full
    mapping the pair flats map onto pair flats and only the multi flats
    are checked.
    """
    n = d1.n
    target_multi = set(d2.multi)
    ps1, ps2 = _pair_sizes(d1), _pair_sizes(d2)
    p1, p2 = d1.fingerprint.point_profile, d2.fingerprint.point_profile

    candidates = [
        [j for j in range(n) if p2[j] == p1[i]]
        for i in range(n)
    ]
    order = sorted(range(n), key=lambda i: len(candidates[i]))
    mapping = [-1] * n
    used = [False] * n
    nodes = 0

    def extend(depth):
        nonlocal nodes
        if depth == n:
            return all(tuple(sorted(mapping[i] for i in members)) in target_multi
                       for members in d1.multi)
        i = order[depth]
        row1 = ps1[i]
        for j in candidates[i]:
            nodes += 1
            if nodes > NODE_BUDGET:
                raise _BudgetExceeded
            if used[j]:
                continue
            row2 = ps2[j]
            if any(row1[k] != row2[mapping[k]] for k in order[:depth]):
                continue
            mapping[i] = j
            used[j] = True
            if extend(depth + 1):
                return True
            mapping[i] = -1
            used[j] = False
        return False

    return list(mapping) if extend(0) else None


def same_matroid(d1, d2):
    """Decide whether two decompositions define the same labelled-set matroid.

    Returns "No" when the fingerprints differ or the exhaustive search rules
    a bijection out, "Yes" when a backtracking search finds a bijection of
    covectors mapping flats onto flats, and "Unknown" when the search
    visits more than NODE_BUDGET candidate images.  The search compares
    the sizes of the flats through each pair of covectors, read from the
    multi flats, and checks the multi flats of a full mapping.
    """
    if d1.n != d2.n:
        raise ValueError("decompositions must have equal ground-set size")
    if d1.fingerprint != d2.fingerprint:
        return NO
    try:
        mapping = _search_bijection(d1, d2)
    except _BudgetExceeded:
        return UNKNOWN
    return YES if mapping is not None else NO
