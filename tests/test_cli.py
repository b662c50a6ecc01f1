import gc
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from types import SimpleNamespace

import numpy as np
import pytest

import veesys
from veesys import catalogue, cli, decompose, digests, io
from veesys.cli import main
from veesys.core import CovectorConfiguration
from veesys.tolerances import RECONSTRUCTION_TOL


def _invoke(main, args):
    """Run ``main(args)`` in this process.  The result has the exit code,
    the output (stdout and stderr as written, interleaved) and the exception
    that ended the run: None on exit 0, else the SystemExit or the error."""
    output = StringIO()
    with redirect_stdout(output), redirect_stderr(output):
        try:
            main(args)
        except SystemExit as exc:
            code = exc.code or 0
            return SimpleNamespace(exit_code=code, output=output.getvalue(),
                                   exception=exc if code else None)
        except Exception as exc:
            return SimpleNamespace(exit_code=1, output=output.getvalue(), exception=exc)
    return SimpleNamespace(exit_code=0, output=output.getvalue(), exception=None)


@pytest.fixture
def runner():
    return SimpleNamespace(invoke=_invoke)


@pytest.fixture
def h3_file(tmp_path):
    path = tmp_path / "h3.json"
    io.save_document(catalogue.construct("H3", {}), path)
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    config = catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1})
    rng = np.random.default_rng(7)
    noisy = CovectorConfiguration(
        config.matrix + 1e-2 * rng.standard_normal(config.matrix.shape),
        config.labels,
    )
    path = tmp_path / "noisy.json"
    io.save_document(noisy, path)
    return str(path)


def _body(output):
    return [line for line in output.splitlines() if not line.startswith("# elapsed")]


def test_verify_catalogue_pass(runner):
    result = runner.invoke(main, ["verify", "--catalogue", "H3"])
    assert result.exit_code == 0, result.output
    assert "isVeeSystem: True" in result.output


def test_verify_file_pass(runner, h3_file):
    result = runner.invoke(main, ["verify", h3_file])
    assert result.exit_code == 0, result.output


def test_verify_perturbed_fails(runner, broken_file):
    result = runner.invoke(main, ["verify", broken_file])
    assert result.exit_code == 1
    assert "isVeeSystem: False" in result.output


def test_garbage_input_is_usage_error(runner, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2


@pytest.mark.parametrize("text", [
    pytest.param('{"dimension": 1, "covectors": [[%s]]}' % ("9" * 400), id="integer-beyond-double"),
    pytest.param('{"dimension": 1, "covectors": [["1"]], "labels": 0}', id="labels-0"),
])
def test_bad_document_is_usage_error(runner, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_unknown_parameter_is_usage_error(runner):
    result = runner.invoke(main, ["verify", "--catalogue", "H3", "--params", "zz=5"])
    assert result.exit_code == 2
    assert "unknown parameters ['zz']" in result.output


def test_unknown_catalogue_id(runner):
    result = runner.invoke(main, ["verify", "--catalogue", "Z9"])
    assert result.exit_code == 2


def test_both_input_sources_rejected(runner, h3_file):
    result = runner.invoke(main, ["verify", h3_file, "--catalogue", "H3"])
    assert result.exit_code == 2


def test_inadmissible_params_usage_error(runner):
    result = runner.invoke(
        main, ["verify", "--catalogue", "D3", "--params", "t=5,s=1"]
    )
    assert result.exit_code == 2


def test_report_is_deterministic(runner):
    args = ["verify", "--catalogue", "G3", "--params", "t=1.25"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert _body(first.output) == _body(second.output)
    assert any(line.startswith("# elapsed:") for line in first.output.splitlines())


def test_out_writes_file(runner, tmp_path):
    target = tmp_path / "report.txt"
    result = runner.invoke(
        main, ["nu", "--catalogue", "H3", "--out", str(target)]
    )
    assert result.exit_code == 0
    assert "nu" in target.read_text()


@pytest.mark.parametrize("name, reason", [("missing/report.txt", "No such file or directory"),
                                          ("", "Is a directory")])
def test_unwritable_out_is_usage_error(runner, tmp_path, name, reason):
    target = tmp_path / name
    result = runner.invoke(main, ["verify", "--catalogue", "H3", "--out", str(target)])
    assert result.exit_code == 2
    assert result.output == f"error: cannot write {target}: {reason}\n"


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


def test_matroid_reports_fingerprint(runner):
    result = runner.invoke(main, ["matroid", "--catalogue", "A3",
                                  "--params", "c1=1,c2=1,c3=1"])
    assert result.exit_code == 0
    assert "fingerprint:" in result.output
    assert "pairFlats: 3" in result.output
    assert "multiFlats: 4" in result.output


def test_matroid_rank_four_is_usage_error(runner, tmp_path):
    path = tmp_path / "rank4.json"
    rng = np.random.default_rng(4)
    io.save_document(CovectorConfiguration(rng.standard_normal((4, 5))), path)
    for command in ("matroid", "verify"):
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2, (command, result.output)
        assert "error: flat enumeration supports rank <= 3" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


def test_weights_infeasible_exit(runner):
    result = runner.invoke(main, ["weights", "--catalogue", "D3",
                                  "--params", "t=1,s=1"])
    assert result.exit_code == 1
    assert "status: infeasible" in result.output


def test_weights_universal_value(runner):
    result = runner.invoke(main, ["weights", "--catalogue", "A3",
                                  "--params", "c1=1,c2=1,c3=1"])
    assert result.exit_code == 0
    assert "universalValue: 1.5" in result.output


def test_harmonic_b3(runner):
    result = runner.invoke(main, ["harmonic", "--catalogue", "B3",
                                  "--params", "c1=1,c2=1,c3=1,gamma=0"])
    assert result.exit_code == 0
    assert "allHarmonic: True" in result.output


def test_four_flats_counts_each_four_member_flat_once(runner):
    """A 4-flat with two orthogonal pairs has two records but is one flat."""
    for ident in catalogue.ids():
        for params in catalogue.entry(ident).default_grid:
            argv = ["harmonic", "--catalogue", ident]
            if params:
                argv += ["--params", ",".join(f"{k}={v!r}" for k, v in params.items())]
            result = runner.invoke(main, argv)
            assert result.exit_code == 0, (argv, result.output)
            multi = decompose(catalogue.construct(ident, params)).multi
            count = sum(len(members) == 4 for members in multi)
            assert f"\nfourFlats: {count}\n" in result.output, (argv, result.output)


def test_nu_failure_prints_its_verdict(runner, tmp_path):
    """H3 with every covector scaled by 1 + 1e-3 N(0, 1) is no ∨-system:
    exit 1, with the verdict line before the nu section."""
    h3 = catalogue.construct("H3", {})
    scales = 1 + 1e-3 * np.random.default_rng(1).standard_normal(h3.n)
    path = tmp_path / "h3-scaled.json"
    io.save_document(CovectorConfiguration(h3.matrix * scales, h3.labels), path)
    result = runner.invoke(main, ["nu", str(path)])
    assert result.exit_code == 1, result.output
    lines = result.output.splitlines()
    assert lines[lines.index("isVeeSystem: False") + 1] == "nu:"
    passed = runner.invoke(main, ["nu", "--catalogue", "H3"])
    assert passed.exit_code == 0 and "\nisVeeSystem: True\nnu:\n" in passed.output


def test_deform_single(runner):
    result = runner.invoke(main, ["deform", "--catalogue", "H3"])
    assert result.exit_code == 0
    assert "corank: 1" in result.output


def test_deform_fixed_mode(runner):
    result = runner.invoke(main, ["deform", "--catalogue", "A3",
                                  "--params", "c1=1,c2=1,c3=1",
                                  "--mode", "fixed"])
    assert result.exit_code == 0
    assert "corank: 1" in result.output


def test_deform_on_a_system_of_round_off_rows(tmp_path):
    """Every deformation equation of this reducible system is round-off, so
    the process reports rank 0 and corank 4 instead of ending in a traceback."""
    path = tmp_path / "reducible.json"
    path.write_text('{"dimension": 3, "covectors": '
                    '[["-2", "0", "1"], ["0", "-1", "0"], ["0", "0", "-1"], ["1", "0", "0"]]}')
    result = subprocess.run([sys.executable, "-m", "veesys.cli", "deform", str(path)],
                            env=_source_env(), capture_output=True, text=True)
    assert result.returncode == 0, result
    assert result.stderr == ""
    lines = result.stdout.splitlines()
    assert {"rank: 0", "corank: 4", "spectralGap: inf"} <= set(lines), result.stdout


def test_verify_at_the_top_of_the_double_range(tmp_path):
    """The nine B3 roots times 1e308, whose singular values overflow: the
    process passes them with a finite condition number and no warning."""
    path = tmp_path / "b3-1e308.json"
    roots = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 0],
             [1, 0, 1], [1, 0, -1], [0, 1, 1], [0, 1, -1]]
    path.write_text(json.dumps({"dimension": 3,
                                "covectors": [[f"{x}e308" for x in r] for r in roots]}))
    result = subprocess.run([sys.executable, "-m", "veesys.cli", "verify", str(path)],
                            env=_source_env(), capture_output=True, text=True)
    assert result.returncode == 0, result
    assert result.stderr == ""
    lines = result.stdout.splitlines()
    assert "isVeeSystem: True" in lines
    assert "conditionNumber: 1.000e+00" in lines, result.stdout


def test_harmonic_on_canonical_norms_that_underflow(tmp_path):
    """F3 at t = 1e-170 scaled by 1e100: four canonical norms underflow to 0,
    and the process names the first covector and exits 2, with no warning."""
    path = tmp_path / "f3-vanishing.json"
    matrix = np.array(catalogue.entry("F3").matrix_at({"t": 1e-170})) * 1e100
    io.save_document(CovectorConfiguration(matrix), path)
    result = subprocess.run([sys.executable, "-m", "veesys.cli", "harmonic", str(path)],
                            env=_source_env(), capture_output=True, text=True)
    assert result.returncode == 2, result
    assert result.stderr == "error: covector 10 has canonical norm 0\n"


def test_deform_grid(runner):
    result = runner.invoke(main, ["deform", "--catalogue", "B3", "--grid"])
    assert result.exit_code == 0
    assert "freeNu=4 fixedNu=1" in result.output


def test_deform_grid_requires_catalogue(runner):
    result = runner.invoke(main, ["deform", "--grid"])
    assert result.exit_code == 2


def test_reconstruct_without_branch(runner):
    result = runner.invoke(main, ["reconstruct", "h3"])
    assert result.exit_code == 2


def test_reconstruct_minus_branch(runner):
    result = runner.invoke(main, ["reconstruct", "h3", "--branch", "minus"])
    assert result.exit_code == 0
    assert "matchesReference: True" in result.output


def test_reconstruct_pure_meets(runner):
    result = runner.invoke(main, ["reconstruct", "a3"])
    assert result.exit_code == 0


def test_catalogue_list(runner):
    result = runner.invoke(main, ["catalogue", "list"])
    assert result.exit_code == 0
    assert "H4A1" in result.output


def test_catalogue_relations(runner):
    result = runner.invoke(main, ["catalogue", "relations"])
    assert result.exit_code == 0
    assert "extensions: 5" in result.output
    assert "degenerations: 11" in result.output


def test_catalogue_verify_all_strict(runner):
    result = runner.invoke(main, ["catalogue", "verify-all", "--strict"])
    assert result.exit_code == 0, result.output
    assert "failures: 0" in result.output
    assert result.output.count("skipped (flagged, --strict)") == 2


def test_catalogue_verify_all_reports_a_relation_check_error_as_a_row():
    """At --rtol 0.6 the plane checks of H4A1 and of the H3 inside (H4, A1)
    row raise DegeneratePlane: both are failed rows, the run prints all 53
    rows and exits 1 with nothing on stderr."""
    result = subprocess.run([sys.executable, "-m", "veesys.cli", "--rtol", "0.6",
                             "catalogue", "verify-all"],
                            env=_source_env(), capture_output=True, text=True)
    assert result.returncode == 1, result
    assert result.stderr == ""
    lines = result.stdout.splitlines()
    assert "failures: 2" in lines
    assert sum(line.endswith(": pass") for line in lines) == 51
    assert "  H3 inside (H4,A1): FAIL check failed: flat members 4, 8 are proportional" in lines


def test_catalogue_commands_hash_nothing_after_load(runner, monkeypatch):
    header = f"input: data sha256:{catalogue.data_checksum()[:16]}\n"
    catalogue._load()
    calls = []
    real = digests.sha256

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(digests, "sha256", counting)
    for command in ("list", "relations", "verify-all"):
        result = runner.invoke(main, ["catalogue", command])
        assert result.exit_code == 0, result.output
        assert header in result.output, command
    assert calls == []


def test_bad_rtol_rejected(runner):
    result = runner.invoke(main, ["--rtol", "-1", "verify", "--catalogue", "H3"])
    assert result.exit_code == 2


@pytest.mark.parametrize("value", ["0", "nan", "inf", "-inf", "-1e-3"])
def test_zero_or_non_finite_rtol_rejected(runner, value):
    result = runner.invoke(main, ["--rtol", value, "verify", "--catalogue", "H3"])
    assert result.exit_code == 2
    assert "rtol must be positive and finite" in result.output


def test_rtol_does_not_outlive_its_invocation(runner):
    strict = runner.invoke(main, ["--rtol", "1e-30", "verify", "--catalogue", "H3"])
    assert strict.exit_code == 1, strict.output
    plain = runner.invoke(main, ["verify", "--catalogue", "H3"])
    assert plain.exit_code == 0, plain.output
    assert "rtol: 1.000e-09" in plain.output


def test_rtol_does_not_move_construction(runner):
    result = runner.invoke(main, ["--rtol", "1e-3", "verify", "--catalogue", "H3"])
    assert result.exit_code == 0, result.output
    # covectors 1 and 4 are the closest pair; their largest unit minor is 1e-5
    matrix = np.array([[1.0, 0.0, 0.0, 1.0],
                       [0.0, 1.0, 0.0, 1e-5],
                       [0.0, 0.0, 1.0, 0.0]])
    assert CovectorConfiguration(matrix).n == 4


@pytest.mark.parametrize("command", [
    "verify", "matroid", "nu", "weights", "harmonic", "deform", "deform --grid",
])
def test_unknown_catalogue_id_every_command(runner, command):
    result = runner.invoke(main, command.split() + ["--catalogue", "Z9"])
    assert result.exit_code == 2, result.output
    assert "error: unknown catalogue id 'Z9'" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_document_is_usage_error(runner, tmp_path, capfd, value):
    path = tmp_path / "non-finite.json"
    columns = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], [value, "1", "1"]]
    path.write_text(json.dumps({"dimension": 3, "covectors": columns}))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2, result.output
    assert f"error: field 'covectors[3][0]': '{value}' is not finite" in result.output
    assert capfd.readouterr().err == ""  # nothing written by LAPACK


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_params_are_usage_errors(runner, value):
    result = runner.invoke(main, ["verify", "--catalogue", "F3", "--params", f"t={value}"])
    assert result.exit_code == 2, result.output
    assert "usage:" in result.output and "error:" in result.output
    assert f"--params value '{value}' is not finite" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_repeated_params_key_is_usage_error(runner):
    result = runner.invoke(main, ["nu", "--catalogue", "F3", "--params", "t=1, t=2"])
    assert result.exit_code == 2, result.output
    assert "error: --params key 't' is given twice" in result.output
    assert "tool:" not in result.output


def _source_env():
    """The environment of a subprocess that imports this veesys checkout."""
    source = pathlib.Path(veesys.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(source), os.environ.get("PYTHONPATH"))))}


def test_cli_start_up_reads_no_package_metadata():
    env = _source_env()
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, veesys.cli; print('importlib.metadata' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert probe.stdout.strip() == "False"
    version = subprocess.run([sys.executable, "-m", "veesys.cli", "--version"],
                             env=env, capture_output=True, text=True, check=True)
    assert version.stdout.split()[-1] == "0.1.0" == veesys.__version__


def test_cli_start_up_imports_no_yaml():
    env = _source_env()
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, veesys.cli; from veesys import catalogue; "
         "print(len(catalogue.ids()), 'yaml' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert probe.stdout.split() == ["17", "False"]


def test_cli_start_up_imports_neither_numpy_nor_click():
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, veesys.cli; print('numpy' in sys.modules, 'click' in sys.modules)"],
        env=_source_env(), capture_output=True, text=True, check=True)
    assert probe.stdout.split() == ["False", "False"]


# "<doc>" stands for a saved H3 document
@pytest.mark.parametrize("argv, loaded, absent", [
    (["verify", "--catalogue", "H3"], ["veesys.catalogue", "veesys.verify"],
     ["veesys.deform", "veesys.io", "veesys.oracles", "veesys.projective"]),
    (["catalogue", "verify-all"], ["veesys.catalogue", "veesys.oracles", "veesys.verify"],
     ["veesys.deform", "veesys.io", "veesys.projective"]),
    # a 4-flat's cross-ratios come from P, not from the projective machinery
    (["harmonic", "--catalogue", "B3", "--params", "c1=1,c2=1,c3=1,gamma=0"],
     ["veesys.catalogue", "veesys.verify"],
     ["veesys.deform", "veesys.io", "veesys.oracles", "veesys.projective"]),
    (["matroid", "<doc>"], ["veesys.io", "veesys.matroid"], ["veesys.catalogue"]),
])
def test_cli_command_imports_only_what_it_runs(h3_file, argv, loaded, absent):
    argv = [h3_file if a == "<doc>" else a for a in argv]
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, veesys.cli\n"
         "try: veesys.cli.main(sys.argv[1:])\n"
         "finally: print(*sorted(sys.modules), file=sys.stderr)", *argv],
        env=_source_env(), capture_output=True, text=True)
    assert probe.returncode == 0, probe
    assert probe.stdout.startswith("tool: veesys ")
    modules = set(probe.stderr.split())
    assert set(loaded) <= modules
    assert not set(absent) & modules


def test_cli_command_builds_only_the_dataclasses_replace_reads():
    """Of the classes a verify call loads, only the records that
    ``dataclasses.replace`` is called on are dataclasses, and each has its
    own docstring, not the signature that ``dataclasses`` generates."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import dataclasses, json, sys, veesys.cli\n"
         "try: veesys.cli.main(['verify', '--catalogue', 'H3'])\n"
         "finally: print(json.dumps({value.__name__: value.__doc__\n"
         "    for name, module in list(sys.modules.items()) if name.startswith('veesys.')\n"
         "    for value in vars(module).values() if isinstance(value, type)\n"
         "    and dataclasses.is_dataclass(value) and value.__module__ == name}),\n"
         "    file=sys.stderr)"],
        env=_source_env(), capture_output=True, text=True)
    assert probe.returncode == 0, probe
    assert "isVeeSystem: True" in probe.stdout
    docs = json.loads(probe.stderr)
    assert set(docs) == {"VeeReport", "WeightSolution", "FlatDecomposition"}
    for name, doc in docs.items():
        assert doc and not doc.startswith(f"{name}("), (name, doc)


def test_reconstruct_names_are_the_shipped_scripts():
    assert cli.SCRIPTS == tuple(sorted(catalogue.SCRIPT_REFERENCES))


def test_cli_loads_no_openssl():
    """SHA-256 comes from CPython's built-in module, so neither a catalogue
    load, which checks the data's SHA-256, nor a verify run loads OpenSSL's
    libcrypto (``_hashlib``)."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, veesys.cli; from veesys import catalogue; catalogue._load()\n"
         "try: veesys.cli.main(['verify', '--catalogue', 'H3'])\n"
         "finally: print('_hashlib' in sys.modules, file=sys.stderr)"],
        env=_source_env(), capture_output=True, text=True, check=True)
    assert "isVeeSystem: True" in probe.stdout
    assert probe.stderr.strip() == "False"


def test_run_leaves_the_collector_off_and_the_heap_frozen():
    try:
        with pytest.raises(SystemExit) as stopped, redirect_stdout(StringIO()):
            cli.run(["--version"])
        assert stopped.value.code == 0
        assert not gc.isenabled()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
        gc.enable()


def test_main_leaves_the_collector_as_it_found_it(runner):
    before = gc.isenabled(), gc.get_freeze_count()
    result = runner.invoke(main, ["verify", "--catalogue", "H3"])
    assert result.exit_code == 0, result.output
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_process_entry_writes_its_stdout_report_to_out(tmp_path):
    argv = [sys.executable, "-m", "veesys.cli", "verify", "--catalogue", "H4A1"]
    target = tmp_path / "h4a1.txt"
    printed = subprocess.run(argv, env=_source_env(), capture_output=True, text=True)
    written = subprocess.run([*argv, "--out", str(target)], env=_source_env(),
                             capture_output=True, text=True)
    assert printed.returncode == written.returncode == 0, (printed, written)
    assert printed.stderr == written.stdout == written.stderr == ""
    report = target.read_text()
    assert report.splitlines()[-1].startswith("# elapsed: ")
    assert _body(report) == _body(printed.stdout)


def test_console_script_is_the_process_entry():
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert 'veesys = "veesys.cli:run"' in pyproject.read_text().splitlines()


def test_non_utf8_document_is_usage_error(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2, result.output
    assert "error: not UTF-8 (byte 0)" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_document_digest_is_of_the_bytes_parsed(runner, h3_file):
    digest = hashlib.sha256(pathlib.Path(h3_file).read_bytes()).hexdigest()[:16]
    result = runner.invoke(main, ["verify", h3_file])
    assert result.exit_code == 0, result.output
    assert f"input: {h3_file} sha256:{digest}" in result.output


@pytest.mark.parametrize("command", ["verify", "matroid"])
def test_contradictory_coplanarity_is_usage_error(tmp_path, command):
    """The unit |det| of the triples (a,b,c) and (a,b,d) is 8.5e-10, below
    COPLANAR_TOL, and that of (a,c,d) is 1.2e-9, above it."""
    columns = [[1, 0, 0], [0, 1, 0], [1, 1, 1.2e-9], [1, -1, 1.2e-9], [0, 0, 1]]
    path = tmp_path / "contradictory.json"
    io.save_document(CovectorConfiguration(np.array(columns, dtype=float).T, tuple("abcde")),
                     path)
    result = subprocess.run([sys.executable, "-m", "veesys.cli", command, str(path)],
                            env=_source_env(), capture_output=True, text=True)
    assert result.returncode == 2, result
    assert result.stderr.startswith("error: coplanarity contradicts itself"), result.stderr
    assert "covectors a and c" in result.stderr
    assert "Traceback" not in result.stderr + result.stdout


@pytest.mark.parametrize("ident, params", [
    ("F3", "t=1e-200"),
    ("G3", "t=1e200"),
    ("A3", "c1=1,c2=1,c3=1e-200"),
    ("AB4A1_1", "t=1e155"),
    ("A3", "c1=1e300,c2=1,c3=1"),
])
def test_invalid_configuration_from_parameters_is_usage_error(ident, params):
    """Admissible parameters that give no valid configuration, or a plane
    too small to measure, end in one named error and exit 2."""
    result = subprocess.run(
        [sys.executable, "-m", "veesys.cli", "verify", "--catalogue", ident, "--params", params],
        env=_source_env(), capture_output=True, text=True)
    assert result.returncode == 2, result
    assert result.stderr.startswith("error: "), result.stderr
    assert "Traceback" not in result.stderr and "Warning" not in result.stderr, result.stderr


@pytest.mark.parametrize("extra", [["<doc>"], ["--params", "zz=5"], ["--params", "t=1"]])
def test_deform_grid_takes_catalogue_only(runner, h3_file, extra):
    args = [h3_file if a == "<doc>" else a for a in extra]
    result = runner.invoke(main, ["deform", *args, "--catalogue", "B3", "--grid"])
    assert result.exit_code == 2, result.output
    assert "--grid takes --catalogue only" in result.output


# The full text, apart from the "# elapsed" trailer, of one report of each
# shape: these are the lines bench/checks.py parses.  ROUND_OFF stands for a
# float below 1e-15: a residual that is round-off has no fixed digits.
ROUND_OFF = "<1e-15"
GOLDEN_REPORTS = {
    "verify --catalogue A3 --params c1=1,c2=1,c3=1": """\
tool: veesys 0.1.0
command: verify
input: catalogue:A3(c1=1.0,c2=1.0,c3=1.0)
rtol: 1.000e-09
covectors: 6
dimension: 3
isVeeSystem: True
maxResidual: <1e-15
conditionNumber: 4.000e+00
flats:
  (1 6): pair residual=<1e-15
  (2 5): pair residual=<1e-15
  (3 4): pair residual=<1e-15
  (1 2 4): multi residual=<1e-15 nu=0.75
  (1 3 5): multi residual=<1e-15 nu=0.75
  (2 3 6): multi residual=<1e-15 nu=0.75
  (4 5 6): multi residual=<1e-15 nu=0.75
""",
    "harmonic --catalogue B3 --params c1=1,c2=1,c3=1,gamma=0": """\
tool: veesys 0.1.0
command: harmonic
input: catalogue:B3(c1=1.0,c2=1.0,c3=1.0,gamma=0.0)
rtol: 1.000e-09
fourFlats: 3
allHarmonic: True
records:
  (1 2 6 9): crossRatio=-1 orthogonalPair=(1 2) ok=True note=2OrthogonalPairs
  (1 2 6 9): crossRatio=-1 orthogonalPair=(6 9) ok=True note=2OrthogonalPairs
  (1 3 5 8): crossRatio=-1 orthogonalPair=(1 3) ok=True note=2OrthogonalPairs
  (1 3 5 8): crossRatio=-1 orthogonalPair=(5 8) ok=True note=2OrthogonalPairs
  (2 3 4 7): crossRatio=-1 orthogonalPair=(2 3) ok=True note=2OrthogonalPairs
  (2 3 4 7): crossRatio=-1 orthogonalPair=(4 7) ok=True note=2OrthogonalPairs
""",
    "deform --catalogue B3 --grid": """\
tool: veesys 0.1.0
command: deform
input: catalogue:B3(grid)
rtol: 1.000e-09
mode: both
grid:
  (c1=1,c2=1,c3=1,gamma=0): freeNu=4 fixedNu=1
  (c1=1,c2=2,c3=3,gamma=0.5): freeNu=4 fixedNu=1
  (c1=2,c2=1,c3=1,gamma=-0.5): freeNu=4 fixedNu=1
  (c1=0.5,c2=1,c3=2,gamma=1): freeNu=4 fixedNu=1
""",
    "reconstruct h3 --branch minus": """\
tool: veesys 0.1.0
command: reconstruct
input: script:h3
rtol: 1.000e-09
basis: 4 5 6 7
branch: minus
points:
  1: angularError=0.000e+00
  2: angularError=0.000e+00
  3: angularError=0.000e+00
  4: angularError=0.000e+00
  5: angularError=0.000e+00
  6: angularError=0.000e+00
  7: angularError=0.000e+00
  8: angularError=1.144e-16
  9: angularError=1.302e-16
  10: angularError=1.360e-16
  11: angularError=1.272e-16
  12: angularError=1.415e-16
  13: angularError=8.777e-17
  14: angularError=1.415e-16
  15: angularError=8.777e-17
maxAngularError: 1.415e-16
matchesReference: True
""",
    "catalogue relations": """\
tool: veesys 0.1.0
command: catalogue relations
input: data sha256:dbd0a3561058fc4f
rtol: 1.000e-09
extensions: 5
extension:
  A3(1,1,1) inside F3(1): {1 2 3 10 11 12 13}
  A3(1,1,1) inside (AB4(1),A1)_2: {1 2 3 10}
  (E6,A1^3) inside (E8,A1^3 x A2): {3 4 5 6 9 14 15 16 17}
  G3(3/2) inside (E8,A1^3 x A2): {1 2 10 11 12 13}
  H3 inside (H4,A1): {4 5 6 7 20 21 22 23 24 25 26 27 28 29 30 31}
degenerations: 11
degeneration:
  F3(t), t -> 0, limit B3(1,1,1;0): {10 11 12 13}
  F3(t), t -> infinity, limit D3(1,1): {4 5 6 7 8 9}
  B3(1,1,1;gamma), gamma -> -1, limit A3(1,1,1) [flagged]: {1 2 3}
  (AB4(t),A1)_2, t -> infinity, limit D3(1,1): {5 7 9}
  (AB4(t),A1)_2, t -> 0, limit B3(1,1,1;0): {10}
  (AB4(t),A1)_1, t -> 1/sqrt(2), limit (E6,A1^3) [flagged]: {3}
  (1/t)(AB4(t),A1)_1, t -> infinity, limit B3(1,1,1;0): {4 5}
  G3(t), t -> 1/2, limit (E6,A1^3): {4 5 6}
  D3(t,1), t -> 2, limit A3(1,1,1): {5}
  B3(c1,3/2,3/2;-1), c1 -> 1, limit (E6,A3): {1}
  B3(c1,c2,2;-1), c1,c2 -> 1, limit D3(1,1): {1 2}
""",
}


@pytest.mark.parametrize("args", list(GOLDEN_REPORTS))
def test_golden_report(runner, args):
    result = runner.invoke(main, args.split())
    assert result.exit_code == 0, result.output
    lines, golden = list(_body(result.output)), GOLDEN_REPORTS[args].splitlines()
    assert len(lines) == len(golden), result.output
    for line, expected in zip(lines, golden):
        head, *rest = expected.split(ROUND_OFF)
        pattern = re.escape(head) + "".join(r"(\S+)" + re.escape(part) for part in rest)
        match = re.fullmatch(pattern, line)
        assert match and all(float(v) < 1e-15 for v in match.groups()), (line, expected)


def _harmonic_rows(params):
    argv = ["harmonic", "--catalogue", "F3", "--params", params]
    result = subprocess.run([sys.executable, "-m", "veesys.cli", *argv],
                            env=_source_env(), capture_output=True, text=True)
    assert result.returncode == 0, result
    rows = [line.split() for line in result.stdout.splitlines() if line.startswith("  (")]
    # every field but the cross-ratio: flat, orthogonal pair, verdict and note
    return result.stderr, [[w for w in row if not w.startswith("crossRatio=")] for row in rows]


@pytest.mark.parametrize("t", ["3e-101", "3e-151"])
def test_harmonic_on_tiny_pairings_writes_no_warning(t):
    """min P_ii is about 9e-202 at t = 3e-101, so P_ii P_jj underflows to 0."""
    stderr, rows = _harmonic_rows(f"t={t}")
    assert stderr == ""
    assert len(rows) == 12
    assert rows == _harmonic_rows("t=0.7")[1]


@pytest.mark.parametrize("factor, code", [(0.5, 0), (2.0, 1)])
def test_reconstruction_tol_is_decided_on_both_sides(runner, monkeypatch, factor, code):
    """Reference point 1 of h3, outside the basis, turned by ``factor`` times
    RECONSTRUCTION_TOL: the reconstruction misses it by that angle."""
    real = catalogue.script_reference
    angle = factor * RECONSTRUCTION_TOL

    def turned(name):
        config, basis = real(name)
        matrix, k = config.matrix.copy(), config.labels.index("1")
        v = matrix[:, k].copy()
        w = np.linalg.svd(v[None])[2][1] * np.linalg.norm(v)  # perpendicular to v
        matrix[:, k] = math.cos(angle) * v + math.sin(angle) * w
        return CovectorConfiguration(matrix, config.labels), basis

    monkeypatch.setattr(catalogue, "script_reference", turned)
    result = runner.invoke(main, ["reconstruct", "h3", "--branch", "minus"])
    assert result.exit_code == code, result.output
    assert f"matchesReference: {code == 0}" in result.output
    error = float(result.output.split("\n  1: angularError=")[1].split()[0])
    assert error == pytest.approx(angle, rel=1e-3)
