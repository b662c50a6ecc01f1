import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import veesys
from veesys import catalogue, io
from veesys.cli import main
from veesys.core import CovectorConfiguration


@pytest.fixture
def runner():
    return CliRunner()


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


def test_catalogue_commands_hash_nothing_after_load(runner, monkeypatch):
    header = f"input: data sha256:{catalogue.data_checksum()[:16]}\n"
    catalogue._load()
    calls = []
    real = hashlib.sha256

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counting)
    for command in ("list", "relations", "verify-all"):
        result = runner.invoke(main, ["catalogue", command])
        assert result.exit_code == 0, result.output
        assert header in result.output, command
    assert calls == []


def test_bad_rtol_rejected(runner):
    result = runner.invoke(main, ["--rtol", "-1", "verify", "--catalogue", "H3"])
    assert result.exit_code == 2


@pytest.mark.parametrize("value", ["0", "nan", "inf"])
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
    assert "Usage" in result.output and "Error" in result.output
    assert f"--params value '{value}' is not finite" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


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
