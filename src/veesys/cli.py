"""Command-line front end.

Report format: plain structured text, one ``key: value`` pair per line,
two-space indentation for nested records, deterministic for a fixed input
and tolerance (no timestamps inside the payload; timing is a trailing
comment line).  Exit codes: 0 = pass, 1 = semantic failure (checks ran and
failed), 2 = usage, parse or admissibility error (any VeesysError, which
the command group turns into ``error: ...`` on stderr).  ``--rtol`` is kept
in the click context and passed to every check a command calls.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time

import click

from . import __version__, catalogue, deform, io, matroid, verify
from .errors import VeesysError
from .projective import load_script, run_reconstruction, to_projective
from .tolerances import RECONSTRUCTION_TOL, resolve

PASS, FAIL, USAGE = 0, 1, 2


class Report:
    """Accumulates the structured-text report."""

    def __init__(self, command, digest):
        rtol = resolve(click.get_current_context().obj)
        self.lines = [
            f"tool: veesys {__version__}",
            f"command: {command}",
            f"input: {digest}",
            f"rtol: {rtol:.3e}",
        ]
        self.started = time.monotonic()

    def add(self, key, value, indent=0):
        self.lines.append("  " * indent + f"{key}: {value}")

    def section(self, name):
        self.lines.append(f"{name}:")

    def write(self, out):
        elapsed = time.monotonic() - self.started
        text = "\n".join(self.lines) + f"\n# elapsed: {elapsed:.3f}s\n"
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


def _open(command, path, catalogue_id, params_text):
    """The input configuration of a command and the report describing it."""
    if (path is None) == (catalogue_id is None):
        raise click.UsageError("give exactly one of INPUT or --catalogue")
    if path is not None:
        data = io.read_document(path)
        config = io.parse_document(data)
        digest = hashlib.sha256(data).hexdigest()[:16]
        return config, Report(command, f"{path} sha256:{digest}")
    params = _parse_params(params_text)
    config = catalogue.construct(catalogue_id, params)
    return config, Report(command, f"catalogue:{catalogue_id}({_spec(params)})")


out_option = click.option("--out", default=None, help="write the report here")


def configuration_options(command):
    """INPUT or --catalogue/--params, and --out, in that order."""
    for option in (
        out_option,
        click.option("--params", "params_text", default="",
                     help="family parameters k=v[,k=v]"),
        click.option("--catalogue", "catalogue_id", default=None,
                     help="catalogue family id"),
        click.argument("input", required=False, type=click.Path(), default=None),
    ):
        command = option(command)
    return command


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


def _flat_label(config, flat):
    return "(" + " ".join(config.sublabels(flat.members)) + ")"


@main.command("verify")
@configuration_options
@click.pass_obj
def cmd_verify(rtol, input, catalogue_id, params_text, out):
    """Check the orthogonality/proportionality conditions plane by plane."""
    config, report = _open("verify", input, catalogue_id, params_text)
    vee = verify.check_vee(config, rtol=rtol)
    report.add("covectors", config.n)
    report.add("dimension", config.dimension)
    report.add("isVeeSystem", vee.is_vee_system)
    report.add("maxResidual", f"{vee.max_residual:.3e}")
    report.section("flats")
    for v in vee.per_flat:
        detail = f"{v.kind} residual={v.residual:.3e}"
        if v.nu is not None:
            detail += f" nu={v.nu:.12g}"
        report.add("(" + " ".join(v.flat) + ")", detail, indent=1)
    report.write(out)
    sys.exit(PASS if vee.is_vee_system else FAIL)


@main.command("matroid")
@configuration_options
def cmd_matroid(input, catalogue_id, params_text, out):
    """Print the rank-2 flat decomposition and its fingerprint."""
    config, report = _open("matroid", input, catalogue_id, params_text)
    decomp = matroid.decompose(config)
    fp = matroid.fingerprint(decomp)
    report.add("covectors", decomp.n)
    report.add("pairFlats", len(decomp.pair_members))
    report.add("multiFlats", len(decomp.multi))
    report.add("fingerprint", fp.digest)
    report.section("flats")
    for f in decomp.flats:
        report.add(_flat_label(config, f), f"size={f.size}", indent=1)
    report.write(out)
    sys.exit(PASS)


@main.command("nu")
@configuration_options
@click.pass_obj
def cmd_nu(rtol, input, catalogue_id, params_text, out):
    """Print the nu-function on the multi flats."""
    config, report = _open("nu", input, catalogue_id, params_text)
    vee = verify.check_vee(config, rtol=rtol)
    report.section("nu")
    for labels, value in sorted(vee.nu_function.items()):
        report.add("(" + " ".join(labels) + ")", f"{value:.12g}", indent=1)
    report.write(out)
    sys.exit(PASS if vee.is_vee_system else FAIL)


@main.command("weights")
@configuration_options
@click.pass_obj
def cmd_weights(rtol, input, catalogue_id, params_text, out):
    """Solve the per-covector weight system and print the universal value."""
    config, report = _open("weights", input, catalogue_id, params_text)
    solution = verify.solve_weights(config, rtol=rtol)
    report.add("status", solution.status)
    if solution.weights is not None:
        report.add("universalValue", f"{solution.universal_value:.12g}")
        report.section("weights")
        for labels, value in sorted(solution.weights.items()):
            report.add("(" + " ".join(labels) + ")", f"{value:.12g}", indent=1)
    report.write(out)
    sys.exit(PASS if solution.status != "infeasible" else FAIL)


@main.command("harmonic")
@configuration_options
@click.pass_obj
def cmd_harmonic(rtol, input, catalogue_id, params_text, out):
    """Cross-ratio check on all 4-member flats (expected value -1)."""
    config, report = _open("harmonic", input, catalogue_id, params_text)
    records = verify.check_harmonic(config, rtol=rtol)
    all_ok = all(r.verdict for r in records) if records else True
    report.add("fourFlats", len(records))
    report.add("allHarmonic", all_ok)
    report.section("records")
    for r in records:
        value = "none" if r.cross_ratio is None else f"{r.cross_ratio:.12g}"
        pair = "-" if r.orthogonal_pair is None else " ".join(r.orthogonal_pair)
        note = f" note={r.note}" if r.note else ""
        report.add(
            "(" + " ".join(r.flat) + ")",
            f"crossRatio={value} orthogonalPair=({pair}) ok={r.verdict}{note}",
            indent=1,
        )
    report.write(out)
    sys.exit(PASS if all_ok else FAIL)


@main.command("deform")
@configuration_options
@click.option("--mode", type=click.Choice(["free", "fixed"]), default="free")
@click.option("--grid", "grid_flag", is_flag=True,
              help="scan the family's default parameter grid")
@click.pass_obj
def cmd_deform(rtol, input, catalogue_id, params_text, mode, grid_flag, out):
    """Corank analysis of the linearised deformation system."""
    if grid_flag:
        if catalogue_id is None or input is not None or params_text:
            raise click.UsageError("--grid takes --catalogue only, no INPUT or --params")
        report = Report("deform", f"catalogue:{catalogue_id}(grid)")
        rows = deform.scan_family(catalogue_id, rtol=rtol)
        report.add("mode", "both")
        report.section("grid")
        ok = True
        for row in rows:
            spec = _spec(row["parameters"])
            if "error" in row:
                report.add(f"({spec})", row["error"], indent=1)
                ok = False
            else:
                report.add(
                    f"({spec})",
                    f"freeNu={row['freeNuCorank']} fixedNu={row['fixedNuCorank']}",
                    indent=1,
                )
        report.write(out)
        sys.exit(PASS if ok else FAIL)
    config, report = _open("deform", input, catalogue_id, params_text)
    mode_name = deform.FREE_NU if mode == "free" else deform.FIXED_NU
    system = deform.build_system(config, mode_name, rtol=rtol)
    report.add("mode", system.mode)
    report.add("rank", system.rank)
    report.add("corank", system.corank)
    report.add("spectralGap", f"{system.spectral_gap:.3e}")
    report.write(out)
    sys.exit(PASS)


@main.command("reconstruct")
@click.argument("name", type=click.Choice(sorted(catalogue.SCRIPT_REFERENCES)))
@click.option("--branch", type=click.Choice(["plus", "minus"]), default=None)
@out_option
@click.pass_obj
def cmd_reconstruct(rtol, name, branch, out):
    """Run a shipped reconstruction script against its reference system."""
    report = Report("reconstruct", f"script:{name}")
    config, basis = catalogue.script_reference(name)
    script = load_script(catalogue.script_path(name))
    reference = to_projective(config)
    env = run_reconstruction(
        script, [reference[l] for l in basis], branch=branch, rtol=rtol
    )
    report.add("basis", " ".join(basis))
    report.add("branch", branch or "-")
    worst = 0.0
    report.section("points")
    for label in sorted(reference, key=lambda l: (len(l), l)):
        err = env[label].angular_error(reference[label])
        worst = max(worst, err)
        report.add(label, f"angularError={err:.3e}", indent=1)
    report.add("maxAngularError", f"{worst:.3e}")
    ok = worst < RECONSTRUCTION_TOL
    report.add("matchesReference", ok)
    report.write(out)
    sys.exit(PASS if ok else FAIL)


@main.group("catalogue")
def cmd_catalogue():
    """Inspect and verify the shipped catalogue."""


@cmd_catalogue.command("list")
@out_option
def catalogue_list(out):
    """List the catalogue families and their parameter specs."""
    report = Report("catalogue list", f"data sha256:{catalogue.checksum()[:16]}")
    report.section("entries")
    for ident in catalogue.ids():
        ent = catalogue.entry(ident)
        params = ",".join(ent.parameters) if ent.parameters else "-"
        report.add(
            ident,
            f"name={ent.name!r} n={ent.n} parameters={params}",
            indent=1,
        )
    report.write(out)
    sys.exit(PASS)


@cmd_catalogue.command("relations")
@out_option
def catalogue_relations(out):
    """List the shipped extension and degeneration records."""
    report = Report("catalogue relations", f"data sha256:{catalogue.checksum()[:16]}")
    for kind in ("extension", "degeneration"):
        rows = catalogue.relations(kind)
        report.add(f"{kind}s", len(rows))
        report.section(kind)
        for rel in rows:
            flag = " [flagged]" if rel.flagged else ""
            report.add(rel.description + flag,
                       "{" + " ".join(rel.covectors) + "}", indent=1)
    report.write(out)
    sys.exit(PASS)


@cmd_catalogue.command("verify-all")
@click.option("--strict", is_flag=True,
              help="exclude flagged relation rows from the run")
@out_option
@click.pass_obj
def catalogue_verify_all(rtol, strict, out):
    """Verify every entry on its default grid and every relation row."""
    report = Report("catalogue verify-all",
                    f"data sha256:{catalogue.checksum()[:16]}")
    failures = 0
    report.section("entries")
    for ident in catalogue.ids():
        for params in catalogue.entry(ident).default_grid:
            check = catalogue.verify_entry(ident, params, rtol=rtol)
            status = "pass" if check.passed else "FAIL " + "; ".join(check.failures)
            report.add(f"{ident}({_spec(params)})", status, indent=1)
            failures += 0 if check.passed else 1
    report.section("relations")
    for kind in ("extension", "degeneration"):
        for rel in catalogue.relations(kind):
            if strict and rel.flagged:
                report.add(rel.description, "skipped (flagged, --strict)", indent=1)
                continue
            check = catalogue.verify_relation(rel, rtol=rtol)
            status = "pass" if check.passed else "FAIL " + "; ".join(check.failures)
            report.add(rel.description, status, indent=1)
            failures += 0 if check.passed else 1
    report.add("failures", failures)
    report.write(out)
    sys.exit(PASS if failures == 0 else FAIL)


if __name__ == "__main__":
    main()
