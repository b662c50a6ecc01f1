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
usage, parse or admissibility error (any VeesysError, which the command
group turns into ``error: ...`` on stderr).  ``--rtol`` is kept in the
click context and passed to every check a command calls.
"""

from __future__ import annotations

import math
import sys
import time

import click

from . import __version__, catalogue, deform, digests, io, matroid, verify
from .errors import VeesysError
from .projective import load_script, run_reconstruction, to_projective
from .tolerances import RECONSTRUCTION_TOL, resolve

PASS, FAIL, USAGE = 0, 1, 2

# the fields whose floats are written .3e; every other float is written .12g
SCIENTIFIC = frozenset(
    {"rtol", "maxResidual", "residual", "spectralGap", "angularError", "maxAngularError"}
)


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
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)


def _parse_params(text):
    params = {}
    if not text:
        return params
    for item in text.split(","):
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise click.UsageError(f"--params entry {item!r} is not k=v")
        try:
            number = float(value)
        except ValueError:
            raise click.UsageError(f"--params value {value!r} is not a number")
        if not math.isfinite(number):
            raise click.UsageError(f"--params value {value!r} is not finite")
        params[key.strip()] = number
    return params


def _spec(params):
    return ",".join(f"{k}={v!r}" for k, v in sorted(params.items()))


def _open(path, catalogue_id, params_text):
    """The input configuration of a command and its report's input line."""
    if (path is None) == (catalogue_id is None):
        raise click.UsageError("give exactly one of INPUT or --catalogue")
    if path is not None:
        data = io.read_document(path)
        config = io.parse_document(data)
        return config, f"{path} sha256:{digests.sha256(data).hexdigest()[:16]}"
    params = _parse_params(params_text)
    config = catalogue.construct(catalogue_id, params)
    return config, f"catalogue:{catalogue_id}({_spec(params)})"


def _data_source():
    return f"data sha256:{catalogue.checksum()[:16]}"


class CommandGroup(click.Group):
    """Reports a VeesysError from any subcommand as ``error: ...``, exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except VeesysError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(USAGE)


@click.group(cls=CommandGroup)
@click.option("--rtol", type=float, default=None, help="relative tolerance")
@click.version_option(__version__)
@click.pass_context
def main(ctx, rtol):
    """Verification and deformation analysis of covector configurations."""
    if rtol is not None and not (rtol > 0 and math.isfinite(rtol)):
        raise click.UsageError(f"rtol must be positive and finite, got {rtol}")
    ctx.obj = rtol


def report_command(group, name, configuration=True):
    """Register ``fn(rtol, **options)`` as the command ``name`` of ``group``.

    ``fn`` returns ``(passed, input line, body)``; the command writes the
    report to stdout or ``--out`` and exits 0 if it passed, else 1.  A
    configuration command takes INPUT, --catalogue and --params, then
    --out, before its own parameters; any other command takes --out after
    them.
    """
    title = name if group is main else f"{group.name} {name}"

    def decorate(fn):
        @click.pass_obj
        def run(rtol, out, **options):
            started = time.monotonic()
            passed, source, body = fn(rtol, **options)
            _write(title, source, rtol, body, time.monotonic() - started, out)
            sys.exit(PASS if passed else FAIL)

        own = list(reversed(fn.__dict__.get("__click_params__", [])))
        out = click.Option(["--out"], help="write the report here")
        params = [*own, out]
        if configuration:
            params = [
                click.Argument(["input"], required=False, type=click.Path()),
                click.Option(["--catalogue", "catalogue_id"],
                             help="catalogue family id"),
                click.Option(["--params", "params_text"], default="",
                             help="family parameters k=v[,k=v]"),
                out, *own,
            ]
        return group.command(name, params=params, help=fn.__doc__)(run)

    return decorate


@report_command(main, "verify")
def cmd_verify(rtol, input, catalogue_id, params_text):
    """Check the orthogonality/proportionality conditions plane by plane."""
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
        ("flats", flats),
    ]


@report_command(main, "matroid")
def cmd_matroid(rtol, input, catalogue_id, params_text):
    """Print the rank-2 flat decomposition and its fingerprint."""
    config, source = _open(input, catalogue_id, params_text)
    decomp = matroid.decompose(config)
    flats = [(config.sublabels(f.members), {"size": f.size}) for f in decomp.flats]
    return True, source, [
        ("covectors", decomp.n), ("pairFlats", len(decomp.pair_members)),
        ("multiFlats", len(decomp.multi)),
        ("fingerprint", matroid.fingerprint(decomp).digest), ("flats", flats),
    ]


@report_command(main, "nu")
def cmd_nu(rtol, input, catalogue_id, params_text):
    """Print the nu-function on the multi flats."""
    config, source = _open(input, catalogue_id, params_text)
    vee = verify.check_vee(config, rtol=rtol)
    return vee.is_vee_system, source, [("nu", sorted(vee.nu_function.items()))]


@report_command(main, "weights")
def cmd_weights(rtol, input, catalogue_id, params_text):
    """Solve the per-covector weight system and print the universal value."""
    config, source = _open(input, catalogue_id, params_text)
    solution = verify.solve_weights(config, rtol=rtol)
    body = [("status", solution.status)]
    if solution.weights is not None:
        body += [("universalValue", solution.universal_value),
                 ("weights", sorted(solution.weights.items()))]
    return solution.status != "infeasible", source, body


@report_command(main, "harmonic")
def cmd_harmonic(rtol, input, catalogue_id, params_text):
    """Cross-ratio check on all 4-member flats (expected value -1)."""
    config, source = _open(input, catalogue_id, params_text)
    records = verify.check_harmonic(config, rtol=rtol)
    all_ok = all(r.verdict for r in records)
    rows = [(r.flat, {"crossRatio": "none" if r.cross_ratio is None else r.cross_ratio,
                      "orthogonalPair": r.orthogonal_pair or ("-",),
                      "ok": r.verdict, "note": r.note or None})
            for r in records]
    return all_ok, source, [
        ("fourFlats", len(records)), ("allHarmonic", all_ok), ("records", rows),
    ]


@report_command(main, "deform")
@click.option("--mode", type=click.Choice(["free", "fixed"]), default="free")
@click.option("--grid", "grid_flag", is_flag=True,
              help="scan the family's default parameter grid")
def cmd_deform(rtol, input, catalogue_id, params_text, mode, grid_flag):
    """Corank analysis of the linearised deformation system."""
    if grid_flag:
        if catalogue_id is None or input is not None or params_text:
            raise click.UsageError("--grid takes --catalogue only, no INPUT or --params")
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


@report_command(main, "reconstruct", configuration=False)
@click.argument("name", type=click.Choice(sorted(catalogue.SCRIPT_REFERENCES)))
@click.option("--branch", type=click.Choice(["plus", "minus"]), default=None)
def cmd_reconstruct(rtol, name, branch):
    """Run a shipped reconstruction script against its reference system."""
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


@main.group("catalogue")
def cmd_catalogue():
    """Inspect and verify the shipped catalogue."""


@report_command(cmd_catalogue, "list", configuration=False)
def catalogue_list(rtol):
    """List the catalogue families and their parameter specs."""
    entries = [(ent.id, {"name": repr(ent.name), "n": ent.n,
                         "parameters": ",".join(ent.parameters) or "-"})
               for ent in map(catalogue.entry, catalogue.ids())]
    return True, _data_source(), [("entries", entries)]


@report_command(cmd_catalogue, "relations", configuration=False)
def catalogue_relations(rtol):
    """List the shipped extension and degeneration records."""
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


@report_command(cmd_catalogue, "verify-all", configuration=False)
@click.option("--strict", is_flag=True,
              help="exclude flagged relation rows from the run")
def catalogue_verify_all(rtol, strict):
    """Verify every entry on its default grid and every relation row."""
    entries = [(f"{ident}({_spec(params)})",
                catalogue.verify_entry(ident, params, rtol=rtol))
               for ident in catalogue.ids()
               for params in catalogue.entry(ident).default_grid]
    relations = [(rel.description, None if strict and rel.flagged
                  else catalogue.verify_relation(rel, rtol=rtol))
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
    main()
