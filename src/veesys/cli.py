"""Command-line front end.

Every command returns one plain value: its verdict, its input line and its
report body, ordered ``(key, value)`` pairs.  One renderer, ``_write``,
writes every report as text, deterministic for a fixed input and tolerance:

- a header of ``tool``, ``command``, ``input`` and ``rtol`` lines;
- one ``key: value`` line per body pair, or for a section (a list of
  rows) a ``key:`` line followed by its rows, indented two spaces;
- a row is ``key: value``, or ``key: word word ...`` for a record (a dict),
  one ``field=value`` word per field: a ``kind`` field is written bare and
  a field that is None is left out;
- floats are written ``.3e`` for the fields named in ``SCIENTIFIC`` and
  ``.12g`` for all others, and a label tuple as ``(a b c)``;
- a trailing ``# elapsed: …s`` comment, the only line that varies.

Exit codes: 0 = pass, 1 = semantic failure (checks ran and failed), 2 =
usage, parse or admissibility error: argparse's ``usage:`` and ``error:``
lines on stderr, any VeesysError, which ``main`` writes as ``error: ...``
on stderr, or an ``--out`` file that cannot be written (``error: cannot
write ...``).  ``--rtol`` goes before the command and is passed to every
check the command calls; ``weights`` takes no ``rtol``, as the weight
system depends on the matroid alone.

Each command imports the library modules it runs in its own body, so a call
loads those alone, and numpy only when one of them needs it.

A process runs one command through ``run``, the entry of both the
``veesys`` script and ``python -m veesys.cli``; ``main`` is the same
command run in process, and leaves the garbage collector as it found it.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import re
import sys
import time

from . import __version__
from .errors import VeesysError
from .tolerances import RECONSTRUCTION_TOL, resolve

PASS, FAIL, USAGE = 0, 1, 2

# the fields whose floats are written .3e; every other float is written .12g
SCIENTIFIC = frozenset(
    {"rtol", "maxResidual", "conditionNumber", "residual", "spectralGap", "angularError",
     "maxAngularError"}
)

# the shipped reconstruction scripts, sorted(catalogue.SCRIPT_REFERENCES),
# written out so that building the parser loads no catalogue
SCRIPTS = ("a3", "b3", "h3", "h4a1")


class UsageError(Exception):
    """Command arguments that do not fit together; exit 2 with the usage."""


def _word(field, value):
    if isinstance(value, float):
        return format(value, ".3e" if field in SCIENTIFIC else ".12g")
    if isinstance(value, tuple):
        return "(" + " ".join(value) + ")"
    return str(value)


def _lines(pairs, indent=""):
    for key, value in pairs:
        if isinstance(value, list):
            yield f"{indent}{key}:"
            yield from _lines(value, indent + "  ")
            continue
        if isinstance(value, dict):
            value = " ".join(_word(f, v) if f == "kind" else f"{f}={_word(f, v)}"
                             for f, v in value.items() if v is not None)
        yield f"{indent}{_word(None, key)}: {_word(key, value)}"


def _write(command, source, rtol, body, elapsed, out):
    """Render one report as text to ``out``, or to stdout if it is None."""
    header = [("tool", f"veesys {__version__}"), ("command", command),
              ("input", source), ("rtol", resolve(rtol))]
    text = "\n".join(_lines(header + body)) + f"\n# elapsed: {elapsed:.3f}s\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc.strerror}", file=sys.stderr)
            sys.exit(USAGE)
    else:
        sys.stdout.write(text)


def _parse_params(text):
    params = {}
    if not text:
        return params
    for item in text.split(","):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise UsageError(f"--params entry {item!r} is not k=v")
        if key in params:
            raise UsageError(f"--params key {key!r} is given twice")
        try:
            number = float(value)
        except ValueError:
            raise UsageError(f"--params value {value!r} is not a number")
        if not math.isfinite(number):
            raise UsageError(f"--params value {value!r} is not finite")
        params[key] = number
    return params


def _spec(params):
    return ",".join(f"{k}={v!r}" for k, v in sorted(params.items()))


def _open(path, catalogue_id, params_text):
    """The input configuration of a command and its report's input line."""
    if (path is None) == (catalogue_id is None):
        raise UsageError("give exactly one of INPUT or --catalogue")
    if path is not None:
        from . import digests, io

        data = io.read_document(path)
        config = io.parse_document(data)
        return config, f"{path} sha256:{digests.sha256(data).hexdigest()[:16]}"
    from . import catalogue

    params = _parse_params(params_text)
    config = catalogue.construct(catalogue_id, params)
    return config, f"catalogue:{catalogue_id}({_spec(params)})"


def _data_source():
    from . import catalogue

    return f"data sha256:{catalogue.checksum()[:16]}"


# command title ("name" or "catalogue name") -> (fn, configuration, arguments)
COMMANDS = {}


def argument(*flags, **settings):
    """One ``add_argument`` call of a command, for ``report_command``."""
    return flags, settings


def report_command(title, *arguments, configuration=True):
    """Register ``fn(rtol, **options)`` as the command ``title``.

    ``fn`` returns ``(passed, input line, body)``; ``main`` writes the
    report to stdout or ``--out`` and exits 0 if it passed, else 1.  A
    configuration command takes INPUT, --catalogue and --params, then
    --out, before its own ``arguments``; any other command takes --out
    after them.
    """
    def decorate(fn):
        COMMANDS[title] = (fn, configuration, arguments)
        return fn

    return decorate


@functools.cache
def _parser():
    """The one parser of every command; built on first use, once per process."""
    parser = argparse.ArgumentParser(prog="veesys", description=main.__doc__,
                                     allow_abbrev=False)
    parser.add_argument("--rtol", type=float, help="relative tolerance")
    # argparse takes "-1e-3" or "-inf" for an option, not for the value of
    # --rtol; as negative numbers (Python 3.14's pattern, and -inf) they
    # reach the rtol check, which names them
    parser._negative_number_matcher = re.compile(r"-\.?\d|-inf$")
    parser.add_argument("--version", action="version", version=f"veesys {__version__}")
    top = parser.add_subparsers(metavar="COMMAND", required=True)
    doc = "Inspect and verify the shipped catalogue."
    catalogue = top.add_parser("catalogue", help=doc, description=doc, allow_abbrev=False)
    commands = {"": top,
                "catalogue": catalogue.add_subparsers(metavar="COMMAND", required=True)}
    out = argument("--out", metavar="FILE", help="write the report here")
    for title, (fn, configuration, own) in COMMANDS.items():
        group, _, name = title.rpartition(" ")
        command = commands[group].add_parser(name, help=fn.__doc__, description=fn.__doc__,
                                             allow_abbrev=False)
        arguments = [*own, out]
        if configuration:
            arguments = [
                argument("input", nargs="?", metavar="INPUT"),
                argument("--catalogue", dest="catalogue_id", metavar="ID",
                         help="catalogue family id"),
                argument("--params", dest="params_text", default="", metavar="K=V,...",
                         help="family parameters k=v[,k=v]"),
                out, *own,
            ]
        for flags, settings in arguments:
            command.add_argument(*flags, **settings)
        command.set_defaults(command=(title, fn, command))
    return parser


def main(argv=None):
    """Verification and deformation analysis of covector configurations."""
    parser = _parser()
    options = vars(parser.parse_args(argv))
    rtol, out = options.pop("rtol"), options.pop("out")
    title, fn, command = options.pop("command")
    if rtol is not None and not (rtol > 0 and math.isfinite(rtol)):
        parser.error(f"rtol must be positive and finite, got {rtol}")
    started = time.monotonic()
    try:
        passed, source, body = fn(rtol, **options)
    except UsageError as exc:
        command.error(str(exc))
    except VeesysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(USAGE)
    _write(title, source, rtol, body, time.monotonic() - started, out)
    sys.exit(PASS if passed else FAIL)


def run(argv=None):
    """Run one command as a whole process: ``main`` with the cyclic garbage
    collector off, and the heap frozen when it ends.

    Reference counting still frees what the command drops; only reference
    cycles wait for the exit, and one bounded command makes few of them.
    So a collection would free almost nothing: it would walk numpy's and
    the library's live objects, while they are imported and again at
    interpreter shutdown.  Freezing moves every object into the permanent
    generation, which the shutdown collections skip.  Shutdown itself is
    unchanged: atexit handlers run and streams flush.
    """
    gc.disable()
    try:
        main(argv)
    finally:
        gc.freeze()


@report_command("verify")
def cmd_verify(rtol, input, catalogue_id, params_text):
    """Check the orthogonality/proportionality conditions plane by plane."""
    from . import verify

    config, source = _open(input, catalogue_id, params_text)
    vee = verify.check_vee(config, rtol=rtol)
    residuals, nus = config.analysis.residuals.tolist(), config.analysis.nus.tolist()
    flats = [(config.sublabels(f.members),
              {"kind": "pair" if f.is_pair else "multi", "residual": residual,
               "nu": None if f.is_pair else nu})
             for f, residual, nu in zip(vee.decomposition.flats, residuals, nus)]
    return vee.is_vee_system, source, [
        ("covectors", config.n), ("dimension", config.dimension),
        ("isVeeSystem", vee.is_vee_system), ("maxResidual", vee.max_residual),
        ("conditionNumber", config.form.condition_number), ("flats", flats),
    ]


@report_command("matroid")
def cmd_matroid(rtol, input, catalogue_id, params_text):
    """Print the rank-2 flat decomposition and its fingerprint."""
    from . import matroid

    config, source = _open(input, catalogue_id, params_text)
    decomp = matroid.decompose(config)
    flats = [(config.sublabels(f.members), {"size": f.size}) for f in decomp.flats]
    return True, source, [
        ("covectors", decomp.n), ("pairFlats", len(decomp.pair_members)),
        ("multiFlats", len(decomp.multi)),
        ("fingerprint", matroid.fingerprint(decomp).digest), ("flats", flats),
    ]


@report_command("nu")
def cmd_nu(rtol, input, catalogue_id, params_text):
    """Print the nu-function on the multi flats."""
    from . import verify

    config, source = _open(input, catalogue_id, params_text)
    vee = verify.check_vee(config, rtol=rtol)
    nus = sorted(vee.nu_function.items())
    return vee.is_vee_system, source, [("isVeeSystem", vee.is_vee_system), ("nu", nus)]


@report_command("weights")
def cmd_weights(rtol, input, catalogue_id, params_text):
    """Solve the per-covector weight system and print the universal value."""
    from . import verify

    config, source = _open(input, catalogue_id, params_text)
    solution = verify.solve_weights(config)
    body = [("status", solution.status)]
    if solution.weights is not None:
        body += [("universalValue", solution.universal_value),
                 ("weights", sorted(solution.weights.items()))]
    return solution.status != "infeasible", source, body


@report_command("harmonic")
def cmd_harmonic(rtol, input, catalogue_id, params_text):
    """Cross-ratio check on all 4-member flats (expected value -1)."""
    from . import verify

    config, source = _open(input, catalogue_id, params_text)
    records = verify.check_harmonic(config, rtol=rtol)
    all_ok = all(r.verdict for r in records)
    rows = [(r.flat, {"crossRatio": "none" if r.cross_ratio is None else r.cross_ratio,
                      "orthogonalPair": r.orthogonal_pair or ("-",),
                      "ok": r.verdict, "note": r.note or None})
            for r in records]
    return all_ok, source, [
        ("fourFlats", len({r.flat for r in records})), ("allHarmonic", all_ok), ("records", rows),
    ]


@report_command(
    "deform",
    argument("--mode", choices=("free", "fixed"), default="free"),
    argument("--grid", dest="grid_flag", action="store_true",
             help="scan the family's default parameter grid"),
)
def cmd_deform(rtol, input, catalogue_id, params_text, mode, grid_flag):
    """Corank analysis of the linearised deformation system."""
    from . import deform

    if grid_flag:
        if catalogue_id is None or input is not None or params_text:
            raise UsageError("--grid takes --catalogue only, no INPUT or --params")
        rows = deform.scan_family(catalogue_id, rtol=rtol)
        grid = [(f"({_spec(row['parameters'])})", row.get("error") or {
                    "freeNu": row["freeNuCorank"], "fixedNu": row["fixedNuCorank"]})
                for row in rows]
        passed = all("error" not in row for row in rows)
        source = f"catalogue:{catalogue_id}(grid)"
        return passed, source, [("mode", "both"), ("grid", grid)]
    config, source = _open(input, catalogue_id, params_text)
    mode_name = deform.FREE_NU if mode == "free" else deform.FIXED_NU
    system = deform.build_system(config, mode_name, rtol=rtol)
    return True, source, [
        ("mode", system.mode), ("rank", system.rank), ("corank", system.corank),
        ("spectralGap", system.spectral_gap),
    ]


@report_command(
    "reconstruct",
    argument("name", choices=SCRIPTS, metavar="NAME", help="one of %(choices)s"),
    argument("--branch", choices=("plus", "minus")),
    configuration=False,
)
def cmd_reconstruct(rtol, name, branch):
    """Run a shipped reconstruction script against its reference system."""
    from . import catalogue
    from .projective import load_script, run_reconstruction, to_projective

    config, basis = catalogue.script_reference(name)
    script = load_script(catalogue.script_path(name))
    reference = to_projective(config)
    env = run_reconstruction(
        script, [reference[l] for l in basis], branch=branch, rtol=rtol
    )
    errors = {label: env[label].angular_error(reference[label])
              for label in sorted(reference, key=lambda l: (len(l), l))}
    worst = max([0.0, *errors.values()])
    ok = worst < RECONSTRUCTION_TOL
    return ok, f"script:{name}", [
        ("basis", " ".join(basis)), ("branch", branch or "-"),
        ("points", [(label, {"angularError": err}) for label, err in errors.items()]),
        ("maxAngularError", worst), ("matchesReference", ok),
    ]


@report_command("catalogue list", configuration=False)
def catalogue_list(rtol):
    """List the catalogue families and their parameter specs."""
    from . import catalogue

    entries = [(ent.id, {"name": repr(ent.name), "n": ent.n,
                         "parameters": ",".join(ent.parameters) or "-"})
               for ent in map(catalogue.entry, catalogue.ids())]
    return True, _data_source(), [("entries", entries)]


@report_command("catalogue relations", configuration=False)
def catalogue_relations(rtol):
    """List the shipped extension and degeneration records."""
    from . import catalogue

    body = []
    for kind in ("extension", "degeneration"):
        rows = catalogue.relations(kind)
        body += [(f"{kind}s", len(rows)), (kind, [
            (rel.description + (" [flagged]" if rel.flagged else ""),
             "{" + " ".join(rel.covectors) + "}") for rel in rows])]
    return True, _data_source(), body


def _status(check):
    if check is None:
        return "skipped (flagged, --strict)"
    return "pass" if check.passed else "FAIL " + "; ".join(check.failures)


@report_command(
    "catalogue verify-all",
    argument("--strict", action="store_true",
             help="exclude flagged relation rows from the run"),
    configuration=False,
)
def catalogue_verify_all(rtol, strict):
    """Verify every entry on its default grid and every relation row."""
    from . import catalogue, oracles

    entries = [(f"{ident}({_spec(params)})",
                oracles.verify_entry(ident, params, rtol=rtol))
               for ident in catalogue.ids()
               for params in catalogue.entry(ident).default_grid]
    relations = [(rel.description, None if strict and rel.flagged
                  else oracles.verify_relation(rel, rtol=rtol))
                 for kind in ("extension", "degeneration")
                 for rel in catalogue.relations(kind)]
    failures = sum(not (check is None or check.passed)
                   for _, check in entries + relations)
    return failures == 0, _data_source(), [
        ("entries", [(key, _status(check)) for key, check in entries]),
        ("relations", [(key, _status(check)) for key, check in relations]),
        ("failures", failures),
    ]


if __name__ == "__main__":
    run()
