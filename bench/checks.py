"""Independent checks of every operation's output.

Each check returns a list of problems; an empty list means the output
matches its expectation (see ``inputs`` for where expectations come from).
"""

from __future__ import annotations

import math
import re

from inputs import UNIVERSAL_WEIGHT

WEIGHT_TOL = 1e-8
CROSS_RATIO_TOL = 1e-8


def _flat_key(labels):
    return tuple(sorted(labels, key=int))


def _nu_problems(got, expected, rtol):
    if set(got) != set(expected):
        return [f"nu flats {sorted(got)} != oracle {sorted(expected)}"]
    return [f"nu{key} = {got[key]!r}, oracle {value!r}"
            for key, value in expected.items()
            if not abs(got[key] - value) <= rtol * abs(value)]


def _partition_problems(n, flat_sizes, flats, planted):
    problems = []
    pairs = sum(math.comb(s, 2) for s in flat_sizes)
    if pairs != math.comb(n, 2):
        problems.append(f"flats cover {pairs} pairs, expected C({n},2)")
    missing = [line for line in planted if _flat_key(line) not in flats]
    if missing:
        problems.append(f"planted lines not recovered as flats: {missing}")
    return problems


def check_analysis(outcome, expect):
    """Check the in-process analysis chain of one configuration."""
    vee = outcome["vee"]
    labels = outcome["labels"]
    if vee.is_vee_system != expect["vee"]:
        return [f"verdict isVeeSystem={vee.is_vee_system}, expected {expect['vee']}"]
    if not expect["vee"]:
        decomp = outcome["decomposition"]
        flats = {_flat_key(labels[i] for i in f.members) for f in decomp.flats}
        sizes = [f.size for f in decomp.flats]
        problems = _partition_problems(expect["n"], sizes, flats,
                                       expect["planted"])
        if tuple(sorted(sizes)) != outcome["fingerprint"].flat_size_multiset:
            problems.append("fingerprint flat sizes differ from the flats")
        return problems

    problems = []
    flats = {_flat_key(labels[i] for i in f.members)
             for f in vee.decomposition.flats}
    if flats != expect["flats"]:
        problems.append("flat list differs from the oracle flat list")
    problems += _nu_problems(vee.nu_function, expect["nu"], expect["nu_rtol"])

    weights = outcome["weights"]
    if weights.status != expect["weights"]:
        problems.append(f"weights {weights.status}, expected {expect['weights']}")
    elif weights.status != "infeasible" and not (
            abs(weights.universal_value - UNIVERSAL_WEIGHT) <= WEIGHT_TOL):
        problems.append(f"universal weight value {weights.universal_value!r}")

    records = outcome["harmonic"]
    if {_flat_key(r.flat) for r in records} != expect["quads"]:
        problems.append("harmonic records do not cover the oracle 4-flats")
    if not all(r.verdict and abs(r.cross_ratio + 1.0) <= CROSS_RATIO_TOL
               for r in records):
        problems.append("a 4-flat is not a harmonic range")

    if outcome["free"].corank != expect["free_corank"]:
        problems.append(f"free-nu corank {outcome['free'].corank}, "
                        f"expected {expect['free_corank']}")
    rigidity = outcome["rigidity"]
    if rigidity["corank"] != 1 or not rigidity["scalingOnly"]:
        problems.append(f"fixed-nu corank {rigidity['corank']}, expected 1")
    return problems


_FLAT_LINE = re.compile(r"^  \(([0-9 ]+)\): (.*)$")


def _report_fields(stdout):
    fields, flats = {}, {}
    for line in stdout.splitlines():
        match = _FLAT_LINE.match(line)
        if match:
            flats[_flat_key(match.group(1).split())] = match.group(2)
        elif ": " in line and not line.startswith(" "):
            key, _, value = line.partition(": ")
            fields[key] = value
    return fields, flats


def check_cli(expect, exit_code, stdout):
    """Check one CLI invocation: exit code and the report's key lines."""
    problems = []
    if exit_code != expect["exit"]:
        problems.append(f"exit code {exit_code}, expected {expect['exit']}")
    lines = stdout.splitlines()
    for wanted in expect.get("lines", ()):
        hits = sum(line.strip() == wanted or line.endswith(" " + wanted)
                   for line in lines)
        if hits < expect.get("grid_rows", 1):
            problems.append(f"report lacks {wanted!r}")
    fields, flats = _report_fields(stdout)

    if "nu" in expect:
        got = {}
        for key, text in flats.items():
            value = text.rsplit("nu=", 1)[-1] if "nu=" in text else text
            if len(key) >= 3:
                got[key] = float(value)
        problems += _nu_problems(got, expect["nu"], 1e-8)
    if "weights" in expect:
        status = fields.get("status")
        if status != expect["weights"]:
            problems.append(f"weights status {status}, expected {expect['weights']}")
        elif status != "infeasible":
            value = float(fields.get("universalValue", "nan"))
            if not abs(value - UNIVERSAL_WEIGHT) <= WEIGHT_TOL:
                problems.append(f"universal weight value {value!r}")
    if "quads" in expect:
        if fields.get("allHarmonic") != "True":
            problems.append("report lacks 'allHarmonic: True'")
        if set(flats) != expect["quads"]:
            problems.append("harmonic records do not cover the oracle 4-flats")
    if "corank" in expect and fields.get("corank") != str(expect["corank"]):
        problems.append(f"corank {fields.get('corank')}, expected {expect['corank']}")
    if "planted" in expect:
        if fields.get("covectors") != str(expect["n"]):
            problems.append(f"covectors {fields.get('covectors')}, expected {expect['n']}")
        sizes = [int(text.partition("size=")[2]) for text in flats.values()]
        problems += _partition_problems(expect["n"], sizes, set(flats),
                                        expect["planted"])
    return problems
