"""Projective-plane primitives and rigidity reconstruction scripts.

Points live in RP^2 as sign-normalized unit 3-vectors.  A reconstruction
script rebuilds a configuration projectively from four basis points by
repeated meets  target = line(l1, l2) ^ line(l3, l4),  optionally with one
branch step placing a point on a line via a prescribed cross-ratio that
satisfies a quadratic equation (two projectively inequivalent branches).

Script file grammar (one record per line, '#' comments allowed)::

    basis: L1 L2 L3 L4
    T = (A B) ^ (C D)
    branch: x^2-x-1 ; T on (P Q) at ratio (A B : T D)

Records execute in file order; every label on the right-hand side of a
record must already be defined when the record runs.  A script holds at
most one branch record; its ratio carries the target in the third slot,
and the ratio's other points lie on line (P Q); its quadratic has a real
root.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import (
    BranchRequired,
    CoincidentLines,
    NotCollinear,
    ScriptFormatError,
    StepDegenerate,
)
from .tolerances import (BASIS_TRIPLE_DET, DEGENERATE_RATIO_TOL, SIGN_COORDINATE_TOL,
                         collinear_tol, line_tol, resolve)


class ProjectivePoint:
    """A point of RP^2: nonzero 3-vector, unit norm, sign-normalized so the
    first coordinate of modulus above SIGN_COORDINATE_TOL is positive."""

    __slots__ = ("coordinates",)

    def __init__(self, coordinates):
        v = np.array(coordinates, dtype=float).reshape(3)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError("projective point needs a nonzero vector")
        v = v / norm
        for x in v:
            if abs(x) > SIGN_COORDINATE_TOL:
                if x < 0:
                    v = -v
                break
        v.setflags(write=False)
        self.coordinates = v

    def angular_error(self, other):
        """sin of the angle between the two lines (sign-insensitive).

        Computed as the cross-product norm: sqrt(1 - dot^2) bottoms out at
        sqrt(machine epsilon) for nearly equal directions, the cross product
        stays accurate down to zero.
        """
        return float(
            np.linalg.norm(np.cross(self.coordinates, other.coordinates))
        )

    def __repr__(self):
        return f"ProjectivePoint({np.array2string(self.coordinates, precision=6)})"


def to_projective(config):
    """Projectivize every covector of a configuration, keyed by label."""
    return {
        label: ProjectivePoint(config.covector(i))
        for i, label in enumerate(config.labels)
    }


def _line(p, q, cut):
    ell = np.cross(p.coordinates, q.coordinates)
    norm = np.linalg.norm(ell)
    if norm < cut:
        raise CoincidentLines("points defining a line are proportional")
    return ell / norm


def meet(p1, p2, q1, q2, rtol=None):
    """Intersection of line(p1, p2) with line(q1, q2)."""
    cut = line_tol(resolve(rtol))
    point = np.cross(_line(p1, p2, cut), _line(q1, q2, cut))
    if np.linalg.norm(point) < cut:
        raise CoincidentLines("the two lines coincide")
    return ProjectivePoint(point)


class Step:
    """Places ``target`` at the meet of the lines through ``left`` and ``right``."""

    def __init__(self, target, left, right):
        self.target = target
        self.left = left  # two labels
        self.right = right  # two labels

    def __str__(self):
        return (
            f"{self.target} = ({self.left[0]} {self.left[1]})"
            f" ^ ({self.right[0]} {self.right[1]})"
        )


class BranchStep:
    """Places ``target`` on line(line_pair) so that the cross-ratio of
    ``ratio_order`` (which contains target) equals a root of
    x^2 + p x + q = 0."""

    def __init__(self, target, line_pair, ratio_order, p, q):
        self.target = target
        self.line_pair = line_pair
        self.ratio_order = ratio_order  # four labels, target among them
        self.p = p
        self.q = q

    def roots(self):
        s = math.sqrt(self.p * self.p - 4.0 * self.q)  # parse_script saw a real root
        return ((-self.p + s) / 2.0, (-self.p - s) / 2.0)

    def __str__(self):
        return (
            f"branch {self.target} on ({self.line_pair[0]} {self.line_pair[1]})"
        )


class ReconstructionScript:
    """A parsed script: its four basis labels and its steps."""

    def __init__(self, basis_labels, items):
        self.basis_labels = basis_labels
        self.items = items  # Steps and at most one BranchStep, in execution order

    @property
    def branch_step(self):
        return next((s for s in self.items if isinstance(s, BranchStep)), None)


_STEP_RE = re.compile(
    r"^(\S+)\s*=\s*\(\s*(\S+)\s+(\S+)\s*\)\s*\^\s*\(\s*(\S+)\s+(\S+)\s*\)$"
)
_BRANCH_RE = re.compile(
    r"^branch:\s*(?P<eq>[^;]+);\s*(?P<target>\S+)\s+on\s+"
    r"\(\s*(?P<l1>\S+)\s+(?P<l2>\S+)\s*\)\s+at\s+ratio\s+"
    r"\(\s*(?P<a>\S+)\s+(?P<b>\S+)\s*:\s*(?P<c>\S+)\s+(?P<d>\S+)\s*\)$"
)
def _parse_quadratic(text):
    """Parse 'x^2 + p x + q' written like 'x^2-x-1'; returns (p, q)."""
    s = text.replace(" ", "")
    m = re.match(r"^x\^2(?:(?P<p>[+-](?:\d+(?:\.\d+)?)?)\*?x)?(?P<q>[+-]\d+(?:\.\d+)?)?$", s)
    if not m:
        raise ScriptFormatError(f"cannot parse quadratic '{text}'")
    p_txt = m.group("p")
    if p_txt is None:
        p = 0.0
    elif p_txt in ("+", "-"):
        p = float(p_txt + "1")
    else:
        p = float(p_txt)
    q = float(m.group("q") or 0.0)
    return p, q


def parse_script(text):
    """Parse the script grammar described in the module docstring."""
    basis = None
    items = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("basis:"):
            if basis is not None:
                raise ScriptFormatError(f"line {lineno}: duplicate basis record")
            basis = tuple(line[len("basis:"):].split())
            if len(basis) != 4:
                raise ScriptFormatError(f"line {lineno}: basis needs 4 labels")
            continue
        m = _BRANCH_RE.match(line)
        if m:
            if any(isinstance(item, BranchStep) for item in items):
                raise ScriptFormatError(f"line {lineno}: second branch record")
            equation = m.group("eq").strip()
            p, q = _parse_quadratic(equation)
            if p * p - 4.0 * q < 0:
                raise ScriptFormatError(
                    f"line {lineno}: branch equation '{equation}' has no real roots")
            items.append(
                BranchStep(
                    m.group("target"),
                    (m.group("l1"), m.group("l2")),
                    (m.group("a"), m.group("b"), m.group("c"), m.group("d")),
                    p,
                    q,
                )
            )
            continue
        m = _STEP_RE.match(line)
        if m:
            items.append(
                Step(m.group(1), (m.group(2), m.group(3)), (m.group(4), m.group(5)))
            )
            continue
        raise ScriptFormatError(f"line {lineno}: cannot parse '{raw.strip()}'")
    if basis is None:
        raise ScriptFormatError("script has no basis record")
    defined = set(basis)
    for item in items:
        if isinstance(item, Step):
            sources = (*item.left, *item.right)
        else:
            sources = (*item.line_pair,
                       *(l for l in item.ratio_order if l != item.target))
        for label in sources:
            if label not in defined:
                raise ScriptFormatError(f"step '{item}' uses undefined label {label}")
        if item.target in defined:
            raise ScriptFormatError(f"label {item.target} defined twice")
        if isinstance(item, BranchStep) and item.ratio_order[2] != item.target:
            raise ScriptFormatError(
                f"step '{item}': branch ratio must carry the target in its third slot")
        defined.add(item.target)
    return ReconstructionScript(basis, tuple(items))


def load_script(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_script(handle.read())


def _place_by_ratio(step, env, branch_root, tol):
    """Solve the branch step: point on line(P, Q) with prescribed ratio.

    Raises NotCollinear when a point of the ratio lies off line(P, Q) by
    more than ``collinear_tol``."""
    P = env[step.line_pair[0]]
    Q = env[step.line_pair[1]]
    basis = np.column_stack([P.coordinates, Q.coordinates])
    a, b, _, d = step.ratio_order
    line = _line(P, Q, line_tol(tol))
    for label in (a, b, d):
        off = abs(env[label].coordinates @ line)
        if off > collinear_tol(tol):
            raise NotCollinear(f"step '{step}': point {label} off the line by {off:.2e}")

    def coords(label):
        c, *_ = np.linalg.lstsq(basis, env[label].coordinates, rcond=None)
        return c

    xa, ya = coords(a)
    xb, yb = coords(b)
    xd, yd = coords(d)
    x = branch_root
    # the cross-ratio (a, b; target, d) = x with target = P + s*Q, i.e. (1, s):
    #   (xa*s - ya) * (xb*yd - xd*yb) = x * (xa*yd - xd*ya) * (xb*s - yb)
    k1 = xb * yd - xd * yb
    k2 = xa * yd - xd * ya
    denom = xa * k1 - x * k2 * xb
    if abs(denom) < DEGENERATE_RATIO_TOL:
        raise StepDegenerate(str(step), "ratio equation degenerate")
    s = (ya * k1 - x * k2 * yb) / denom
    return ProjectivePoint(P.coordinates + s * Q.coordinates)


def run_reconstruction(script, basis_points, branch=None, rtol=None):
    """Execute a reconstruction script from four basis points.

    ``basis_points`` are four ProjectivePoints.  ``branch`` selects the root
    of the branch equation when one is present: "plus" or "minus".  Returns a
    dict label -> ProjectivePoint covering basis and all reconstructed points.
    """
    if len(basis_points) != 4:
        raise ValueError("need exactly 4 basis points")
    if branch not in (None, "plus", "minus"):
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    for skip in range(4):
        triple = [p.coordinates for i, p in enumerate(basis_points) if i != skip]
        if abs(np.linalg.det(np.column_stack(triple))) < BASIS_TRIPLE_DET:
            raise ValueError("basis points contain a collinear triple")

    env = dict(zip(script.basis_labels, basis_points))
    for item in script.items:
        if isinstance(item, BranchStep) and branch is None:
            raise BranchRequired(
                f"script has branch equation x^2{item.p:+g}x{item.q:+g}; "
                "choose a branch"
            )
        try:  # a line through two coincident points fails either kind of step
            if isinstance(item, Step):
                env[item.target] = meet(env[item.left[0]], env[item.left[1]],
                                        env[item.right[0]], env[item.right[1]],
                                        rtol=rtol)
            else:
                plus, minus = item.roots()
                root = plus if branch == "plus" else minus
                env[item.target] = _place_by_ratio(item, env, root, resolve(rtol))
        except CoincidentLines as exc:
            raise StepDegenerate(str(item), str(exc)) from exc
    return env
