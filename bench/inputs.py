"""Seeded inputs and their independent expectations for the three workloads.

Every workload is a list of ``Item`` records.  An item carries what the
program receives (a document path, a family and its parameters, or a CLI
argument list) and what the benchmark expects back.  Expectations come from
sources the program under test does not compute: the catalogue's stored
oracles (flat lists and nu-formulas), the published free-nu corank table,
the universal weight value 3/2, and the geometry the generator planted.

The composition of each workload (which families, how many of each, which
document sizes) is fixed; the seed only moves the numbers (parameter jitter,
GL(3) matrices, perturbations, planted geometry), so runs with different
seeds cost about the same.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from veesys import catalogue, io
from veesys.core import CovectorConfiguration
from veesys.errors import InadmissibleParameters

# Free-nu coranks of the linearised deformation system per family, as
# published with the seventeen families (fixed-nu corank is 1 everywhere).
FREE_CORANK = {
    "A3": 4, "B3": 4, "D3": 3, "E6A3": 3, "E6A1cubed": 1, "F3": 2, "G3": 2,
    "AB4A1_1": 2, "AB4A1_2": 2, "E7A1sqA2": 1, "E8A2A3": 1, "E8A2sqA1": 1,
    "E8A1cubedA2": 1, "E8A1sqA3": 1, "E8A1A4": 1, "H4A1": 1, "H3": 1,
}
UNIVERSAL_WEIGHT = 1.5  # value of sum w(Pi) nu(Pi) whenever weights exist

ORACLE_NU_RTOL = 1e-8  # stored nu-formulas versus computed nu
GL3_NU_RTOL = 1e-7  # nu of a GL(3) image versus the oracle (invariance rule)
PERTURBATION = 1e-4  # relative entry noise of a perturbed image

SMALL_FAMILIES = ("A3", "D3", "B3", "E6A3", "E6A1cubed", "AB4A1_1",
                  "AB4A1_2", "G3", "F3")
POINTS_PER_FAMILY = 56  # 9 x 56 = 504 family-scan points

# docs-large: (family, GL(3) images, perturbed images); H4A1 weighted up.
LARGE_DOCS = (("H3", 5, 1), ("E8A1A4", 4, 1), ("E8A2A3", 4, 1),
              ("E8A1sqA3", 4, 1), ("E8A1cubedA2", 4, 1), ("E8A2sqA1", 4, 1),
              ("H4A1", 15, 2))
PLANTED_SIZES = tuple(32 + round(16 * i / 11) for i in range(12))  # 32..48
CLI_DOC_SIZE = 40
MAX_COND = 100.0


@dataclass
class Item:
    """One input of a workload and the answers expected for it."""

    kind: str  # group key: "vee:<family>", "perturbed", "planted", "cli:<cmd>"
    path: str = None  # document path (docs-large, CLI documents)
    family: str = None
    params: dict = None
    argv: tuple = ()  # CLI arguments after "python -m veesys.cli"
    expect: dict = field(default_factory=dict)


def _rng(seed, workload):
    tag = sum(ord(c) << (8 * i) for i, c in enumerate(workload))
    return np.random.default_rng([int(seed) % 2**63, tag])


def _oracle_flats(entry):
    return {tuple(sorted((str(m) for m in f["members"]), key=int))
            for f in entry.flats}


def weight_expectation(entry):
    """Feasibility of the weight system from the stored flat list alone."""
    multi = [f for f in _oracle_flats(entry) if len(f) >= 3]
    if not multi:
        return "infeasible"
    index = {str(i + 1): i for i in range(entry.n)}
    M = np.zeros((entry.n, len(multi)))
    for col, members in enumerate(multi):
        for m in members:
            M[index[m], col] = 1.0
    x, *_ = np.linalg.lstsq(M, np.ones(entry.n), rcond=None)
    if np.abs(M @ x - 1.0).max() >= 1e-9:
        return "infeasible"
    return "feasible" if np.linalg.matrix_rank(M) == len(multi) else "underdetermined"


def vee_expectation(family, params, nu_rtol):
    """What the analysis chain must report for a catalogue system."""
    entry = catalogue.entry(family)
    nu = {tuple(sorted(k, key=int)): v
          for k, v in entry.nu_by_members(params).items()}
    flats = _oracle_flats(entry)
    return {
        "vee": True,
        "n": entry.n,
        "flats": flats,
        "nu": nu,
        "nu_rtol": nu_rtol,
        "free_corank": FREE_CORANK[family],
        "weights": weight_expectation(entry),
        "quads": {f for f in flats if len(f) == 4},
    }


def _gl3(rng):
    while True:
        C = rng.standard_normal((3, 3))
        if np.linalg.cond(C) < MAX_COND:
            return C


def planted_configuration(rng, n):
    """n covectors, some on planted planes (lines of RP^2), the rest generic.

    Returns the configuration and the planted member-label sets.  Points on
    a planted line are unit combinations of an orthonormal basis of its
    plane; every covector is scaled by a random positive factor, which the
    flat decomposition must ignore.
    """
    lines = int(rng.integers(4, 7))
    sizes = [int(s) for s in rng.integers(3, 7, size=lines)]
    columns, planted = [], []
    for size in sizes:
        basis, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        angles = rng.uniform(0.0, math.pi, size=size)
        start = len(columns)
        columns += [basis @ (math.cos(a), math.sin(a)) for a in angles]
        planted.append(tuple(str(i + 1) for i in range(start, len(columns))))
    while len(columns) < n:
        columns.append(rng.standard_normal(3))
    matrix = np.column_stack(columns) * np.exp(rng.normal(0.0, 0.5, size=n))
    return CovectorConfiguration(matrix), planted


def _document(workdir, name, config):
    path = os.path.join(workdir, name)
    io.save_document(config, path)
    return path


def docs_large(seed, workdir):
    """About 60 documents: GL(3) images of the n >= 15 systems, perturbed
    images, and planted-line candidates with n = 32..48."""
    rng = _rng(seed, "docs-large")
    items = []
    for family, images, perturbed in LARGE_DOCS:
        base = catalogue.construct(family, {})
        expect = vee_expectation(family, {}, GL3_NU_RTOL)
        for k in range(images):
            path = _document(workdir, f"{family}-{k}.json",
                             base.transformed(_gl3(rng)))
            items.append(Item(f"vee:{family}", path, family, {}, expect=expect))
        for k in range(perturbed):
            image = base.transformed(_gl3(rng)).matrix
            noisy = image * (1.0 + PERTURBATION * rng.standard_normal(image.shape))
            path = _document(workdir, f"{family}-perturbed-{k}.json",
                             CovectorConfiguration(noisy))
            items.append(Item("perturbed", path, family,
                              expect={"vee": False, "n": base.n, "planted": []}))
    for k, n in enumerate(PLANTED_SIZES):
        config, planted = planted_configuration(rng, n)
        path = _document(workdir, f"planted-{k}.json", config)
        items.append(Item("planted", path,
                          expect={"vee": False, "n": n, "planted": planted}))
    return _interleave(items)


def _jittered_point(rng, entry, grid_point):
    """A grid point scaled per parameter, redrawn until construct accepts it."""
    for _ in range(1000):
        params = {k: float(v) * math.exp(rng.uniform(-0.2, 0.2))
                  for k, v in grid_point.items()}
        try:
            catalogue.construct(entry.id, params)
        except (InadmissibleParameters, ValueError):
            continue
        return params
    raise RuntimeError(f"no admissible jitter of {entry.id} {grid_point}")


def family_scan(seed, workdir=None):
    """504 admissible parameter points of the nine families with n = 6..13,
    each a default-grid point scaled by exp(U(-0.2, 0.2)) per parameter."""
    rng = _rng(seed, "family-scan")
    per_family = []
    for family in SMALL_FAMILIES:
        entry = catalogue.entry(family)
        grid = entry.default_grid or ({},)
        rows = []
        for k in range(POINTS_PER_FAMILY):
            params = _jittered_point(rng, entry, grid[k % len(grid)])
            rows.append(Item(f"vee:{family}", family=family, params=params,
                             expect=vee_expectation(family, params,
                                                    ORACLE_NU_RTOL)))
        per_family.append(rows)
    # round robin over families, so any prefix of the list has the full mix
    return [item for group in zip(*per_family) for item in group]


def _interleave(items):
    """Spread each kind evenly through the list (stable, deterministic)."""
    kinds = {}
    for item in items:
        kinds.setdefault(item.kind, []).append(item)
    keyed = []
    for group in kinds.values():
        for i, item in enumerate(group):
            keyed.append(((i + 0.5) / len(group), item.kind, i, item))
    keyed.sort(key=lambda k: k[:3])
    return [k[3] for k in keyed]


def _params_arg(params):
    return ",".join(f"{k}={v!r}" for k, v in sorted(params.items()))


# Light CLI calls: each command on fixed families (the seed picks the grid
# point), so every seed costs about the same.
CLI_LIGHT = (("verify", ("A3", "G3", "E8A2sqA1")), ("nu", ("B3", "F3", "H3")),
             ("weights", ("D3", "AB4A1_1", "E7A1sqA2")),
             ("harmonic", ("F3", "B3", "E8A1A4")), ("deform", ("D3", "G3")))


def cli(seed, workdir):
    """A fixed list of 20 ``python -m veesys.cli`` invocations: the three
    ROADMAP baselines, a reconstruction, matroid/verify on a generated
    n = 40 document, and single-family calls at seeded grid points."""
    rng = _rng(seed, "cli")
    config, planted = planted_configuration(rng, CLI_DOC_SIZE)
    doc = _document(workdir, "planted-40.json", config)
    b3 = catalogue.entry("B3")
    heavy = [
        Item("cli:catalogue-verify-all", argv=("catalogue", "verify-all"),
             expect={"exit": 0, "lines": ["failures: 0"]}),
        Item("cli:verify", family="H4A1", params={},
             argv=("verify", "--catalogue", "H4A1"),
             expect={"exit": 0, "lines": ["isVeeSystem: True"],
                     "nu": vee_expectation("H4A1", {}, ORACLE_NU_RTOL)["nu"]}),
        Item("cli:deform-grid", argv=("deform", "--catalogue", "B3", "--grid"),
             expect={"exit": 0, "grid_rows": len(b3.default_grid),
                     "lines": [f"freeNu={FREE_CORANK['B3']} fixedNu=1"]}),
        Item("cli:reconstruct", argv=("reconstruct", "h4a1", "--branch", "plus"),
             expect={"exit": 0, "lines": ["matchesReference: True"]}),
        Item("cli:matroid", path=doc, argv=("matroid", doc),
             expect={"exit": 0, "n": CLI_DOC_SIZE, "planted": planted}),
        Item("cli:verify", path=doc, argv=("verify", doc),
             expect={"exit": 1, "lines": ["isVeeSystem: False"]}),
    ]
    light = []
    for command, families in CLI_LIGHT:
        for k, family in enumerate(families):
            entry = catalogue.entry(family)
            grid = entry.default_grid or ({},)
            params = dict(grid[int(rng.integers(len(grid)))])
            argv = [command, "--catalogue", family]
            if params:
                argv += ["--params", _params_arg(params)]
            expect = vee_expectation(family, params, ORACLE_NU_RTOL)
            if command == "deform":
                mode = "free" if k % 2 == 0 else "fixed"
                argv += ["--mode", mode]
                expect = {"corank": expect["free_corank"] if mode == "free" else 1}
            elif command == "weights":
                expect = {"weights": expect["weights"]}
            elif command == "harmonic":
                expect = {"quads": expect["quads"]}
            else:
                expect = {"nu": expect["nu"]}
            expect["exit"] = 0
            if command == "weights" and expect["weights"] == "infeasible":
                expect["exit"] = 1
            if command == "verify":
                expect["lines"] = ["isVeeSystem: True"]
            light.append(Item(f"cli:{command}", family=family, params=params,
                              argv=tuple(argv), expect=expect))
    # one heavy call after every two light ones, so a partial pass keeps the mix
    ordered = []
    for k, item in enumerate(heavy):
        ordered.append(item)
        ordered.extend(light[k * len(light) // len(heavy):
                             (k + 1) * len(light) // len(heavy)])
    return ordered


GENERATORS = {"cli": cli, "docs-large": docs_large, "family-scan": family_scan}
