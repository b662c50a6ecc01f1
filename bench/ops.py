"""Operations of the three workloads, and the span recorder that times them.

Every call into the program goes through ``Tracer.call``.  With tracing off
it is a plain call; with tracing on it keeps a span (name, start, end,
operation id) in memory.  The program itself is not instrumented: spans sit
at the boundary between this benchmark and the public functions of each
module, and the functions are called with the configuration only.
"""

from __future__ import annotations

import inspect
import resource
import subprocess
import sys
import time

from veesys import catalogue, deform, io, matroid, projective, verify
from veesys.core import CovectorConfiguration, canonical_form

CLI_TIMEOUT_S = 120


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []  # (name, start, end, operation id)
        self.op = None

    def call(self, name, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, time.perf_counter(), self.op))


def analyse(config, tracer):
    """The analysis chain: check_vee, then the ∨ path or the negative path."""
    call = tracer.call
    outcome = {"labels": config.labels,
               "vee": call("verify.check_vee", verify.check_vee, config)}
    if outcome["vee"].is_vee_system:
        outcome["weights"] = call("verify.solve_weights", verify.solve_weights, config)
        outcome["harmonic"] = call("verify.check_harmonic", verify.check_harmonic,
                                   config)
        outcome["free"] = call("deform.build_system_free", deform.build_system,
                               config, deform.FREE_NU)
        outcome["rigidity"] = call("deform.rigidity_test", deform.rigidity_test,
                                   config)
    else:
        outcome["decomposition"] = call("matroid.decompose", matroid.decompose,
                                        config)
        outcome["fingerprint"] = call("matroid.fingerprint", matroid.fingerprint,
                                      outcome["decomposition"])
    return outcome


def document_op(item, tracer):
    """docs-large: load the document, then run the analysis chain."""
    config = tracer.call("io.load_document", io.load_document, item.path)
    return config, analyse(config, tracer)


def family_op(item, tracer):
    """family-scan: construct the catalogue system, then run the chain."""
    config = tracer.call("catalogue.construct", catalogue.construct,
                         item.family, item.params)
    return config, analyse(config, tracer)


INPROCESS_OPS = {"docs-large": document_op, "family-scan": family_op}


def standalone(item, config, tracer):
    """Layer calls timed on their own, on the operation's input; returns the
    flat decomposition."""
    decomp = tracer.call("standalone.matroid.decompose", matroid.decompose,
                         config)
    tracer.call("standalone.core.canonical_form", canonical_form, config)
    if item.family is not None and item.path is None:
        entry = catalogue.entry(item.family)
        matrix = tracer.call("standalone.expressions.matrix_at", entry.matrix_at,
                             item.params)
        tracer.call("standalone.core.configuration", CovectorConfiguration, matrix)
    return decomp


def cli_op(item, python, env):
    """Run one ``python -m veesys.cli`` invocation; returns its exit code,
    its standard output and the CPU seconds the child used."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([python, "-m", "veesys.cli", *item.argv], env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return proc.returncode, proc.stdout, cpu


def replay_cli(item, tracer):
    """Repeat in-process the public calls a CLI invocation makes; returns
    the configuration of a single-configuration command, else None."""
    call = tracer.call
    command = item.argv[0]
    if command == "catalogue":
        for ident in catalogue.ids():
            for params in catalogue.entry(ident).default_grid or ({},):
                call("catalogue.verify_entry", catalogue.verify_entry, ident, params)
        for kind in ("extension", "degeneration"):
            for rel in catalogue.relations(kind):
                call("catalogue.verify_relation", catalogue.verify_relation, rel)
    elif command == "reconstruct":
        name, branch = item.argv[1], item.argv[3]
        config, basis = call("catalogue.script_reference",
                             catalogue.script_reference, name)
        script = call("projective.load_script", projective.load_script,
                      catalogue.script_path(name))
        reference = call("projective.to_projective", projective.to_projective,
                         config)
        call("projective.run_reconstruction",
             lambda: projective.run_reconstruction(
                 script, [reference[label] for label in basis], branch=branch))
    elif "--grid" in item.argv:
        call("deform.scan_family", deform.scan_family, item.argv[2])
    else:
        return _replay_single(item, call)
    return None


def _replay_single(item, call):
    command = item.argv[0]
    if item.path is not None:
        config = call("io.load_document", io.load_document, item.path)
    else:
        config = call("catalogue.construct", catalogue.construct,
                      item.family, item.params)
    if command == "matroid":
        decomp = call("matroid.decompose", matroid.decompose, config)
        call("matroid.fingerprint", matroid.fingerprint, decomp)
    elif command in ("verify", "nu"):
        call("verify.check_vee", verify.check_vee, config)
    elif command == "weights":
        call("verify.solve_weights", verify.solve_weights, config)
    elif command == "harmonic":
        call("verify.check_harmonic", verify.check_harmonic, config)
    elif command == "deform":
        if item.argv[-1] == "free":
            call("deform.build_system_free", deform.build_system, config,
                 deform.FREE_NU)
        else:
            call("deform.build_system_fixed", deform.build_system, config,
                 deform.FIXED_NU)
    return config


# Functions whose calls from inside the program are counted (not timed):
# the number of times one operation re-derives the canonical form and the
# flat decomposition.
COUNTED = {
    "matroid.decompose": matroid.decompose,
    "core.canonical_form": canonical_form,
    "verify.check_vee": verify.check_vee,
}


def count_calls(fn):
    """Run ``fn()`` and count the calls made to the ``COUNTED`` functions."""
    codes = {}
    for name, func in COUNTED.items():
        code = getattr(inspect.unwrap(func), "__code__", None)
        if code is not None:
            codes[code] = name
    counts = dict.fromkeys(COUNTED, 0)

    def hook(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    except Exception:  # the timed loop already recorded this input as failed
        pass
    finally:
        sys.setprofile(previous)
    return counts
