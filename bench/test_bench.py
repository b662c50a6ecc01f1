"""Tests of the benchmark itself: seeded generation and the output checks.

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from veesys import catalogue  # noqa: E402


@pytest.fixture
def workdir(request):
    path = os.path.join(ROOT, ".bench_out", f"test-{request.node.name}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _snapshot(items):
    """Everything the program and the checks see, with documents by content."""
    rows = []
    for item in items:
        document = None
        if item.path is not None:
            with open(item.path, encoding="utf-8") as handle:
                document = handle.read()
        argv = tuple(a if a != item.path else "<doc>" for a in item.argv)
        rows.append((item.kind, item.family, item.params, argv, document,
                     repr(sorted(item.expect.items(), key=lambda kv: kv[0]))))
    return rows


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_generator_is_deterministic_for_a_seed(workload, workdir):
    make = inputs.GENERATORS[workload]
    first = _snapshot(make(7, _sub(workdir, "a")))
    again = _snapshot(make(7, _sub(workdir, "b")))
    other = _snapshot(make(8, _sub(workdir, "c")))
    assert first == again
    assert first != other
    assert [row[0] for row in first] == [row[0] for row in other]  # same mix


def _sub(workdir, name):
    path = os.path.join(workdir, name)
    os.makedirs(path)
    return path


def test_workload_sizes(workdir):
    assert len(inputs.cli(1, _sub(workdir, "cli"))) == 20
    docs = inputs.docs_large(1, _sub(workdir, "docs"))
    assert len(docs) == 60
    assert sum(item.kind == "planted" for item in docs) == 12
    scan = inputs.family_scan(1)
    assert len(scan) == 504
    assert {catalogue.entry(item.family).n for item in scan} <= set(range(6, 14))


def _positive(family="B3", params=None):
    params = params if params is not None else catalogue.entry(family).default_grid[1]
    config = catalogue.construct(family, params)
    expect = inputs.vee_expectation(family, params, inputs.ORACLE_NU_RTOL)
    return ops.analyse(config, ops.Tracer(False)), expect


def test_correct_outputs_pass():
    outcome, expect = _positive()
    assert checks.check_analysis(outcome, expect) == []
    outcome, expect = _positive("H4A1", {})
    assert checks.check_analysis(outcome, expect) == []


def test_free_corank_off_by_one_is_rejected():
    outcome, expect = _positive()
    free = outcome["free"]
    outcome["free"] = dataclasses.replace(free, corank=free.corank + 1)
    assert any("free-nu corank" in p for p in checks.check_analysis(outcome, expect))


def test_fixed_corank_other_than_one_is_rejected():
    outcome, expect = _positive()
    outcome["rigidity"] = dict(outcome["rigidity"], corank=2, scalingOnly=False)
    assert any("fixed-nu corank" in p for p in checks.check_analysis(outcome, expect))


def test_nu_off_oracle_is_rejected():
    outcome, expect = _positive()
    vee = outcome["vee"]
    key = next(iter(vee.nu_function))
    nu = dict(vee.nu_function)
    nu[key] *= 1 + 1e-6
    outcome["vee"] = dataclasses.replace(vee, nu_function=nu)
    assert any(p.startswith("nu") for p in checks.check_analysis(outcome, expect))


def test_gl3_image_nu_within_invariance_rule(workdir):
    items = [i for i in inputs.docs_large(3, workdir) if i.kind == "vee:H3"]
    config, outcome = ops.document_op(items[0], ops.Tracer(False))
    assert checks.check_analysis(outcome, items[0].expect) == []
    expect = dict(items[0].expect, nu_rtol=1e-18)  # far below round-off
    assert checks.check_analysis(outcome, expect)


def test_perturbed_h4a1_reported_as_vee_is_rejected(workdir):
    perturbed = next(i for i in inputs.docs_large(2, workdir)
                     if i.kind == "perturbed" and i.family == "H4A1")
    config, outcome = ops.document_op(perturbed, ops.Tracer(False))
    assert checks.check_analysis(outcome, perturbed.expect) == []
    vee_outcome, _ = _positive("H4A1", {})  # a ∨ answer for this input
    problems = checks.check_analysis(vee_outcome, perturbed.expect)
    assert any("verdict" in p for p in problems)


def test_lost_planted_line_is_rejected(workdir):
    planted = next(i for i in inputs.docs_large(2, workdir) if i.kind == "planted")
    config, outcome = ops.document_op(planted, ops.Tracer(False))
    assert checks.check_analysis(outcome, planted.expect) == []
    line = planted.expect["planted"][0]
    split = [f for f in outcome["decomposition"].flats
             if tuple(config.labels[i] for i in f.members) != line]
    outcome["decomposition"] = dataclasses.replace(
        outcome["decomposition"], flats=tuple(split))
    problems = checks.check_analysis(outcome, planted.expect)
    assert any("planted lines" in p for p in problems)
    assert any("pairs" in p for p in problems)


def test_weights_value_off_is_rejected():
    outcome, expect = _positive("A3", {"c1": 1, "c2": 1, "c3": 1})
    outcome["weights"] = dataclasses.replace(outcome["weights"], universal_value=1.25)
    assert any("universal" in p for p in checks.check_analysis(outcome, expect))


CLI_VERIFY_ALL_OK = "command: catalogue verify-all\nentries:\n  A3(): pass\nfailures: 0\n"


def test_cli_check_rejects_exit_code_and_missing_lines():
    expect = {"exit": 0, "lines": ["failures: 0"]}
    assert checks.check_cli(expect, 0, CLI_VERIFY_ALL_OK) == []
    assert checks.check_cli(expect, 1, CLI_VERIFY_ALL_OK)
    assert checks.check_cli(expect, 0, CLI_VERIFY_ALL_OK.replace(
        "failures: 0", "failures: 1"))


def test_cli_check_rejects_wrong_corank_and_nu():
    assert checks.check_cli({"exit": 0, "corank": 4}, 0, "corank: 4\n") == []
    assert checks.check_cli({"exit": 0, "corank": 4}, 0, "corank: 3\n")
    expect = {"exit": 0, "nu": {("1", "2", "3"): 0.75}}
    assert checks.check_cli(expect, 0, "nu:\n  (1 2 3): 0.75\n") == []
    assert checks.check_cli(expect, 0, "nu:\n  (1 2 3): 0.7500001\n")


def test_class_costs_take_the_median_of_each_cost_class():
    items = [inputs.Item("vee:H3"), inputs.Item("planted"),
             inputs.Item("vee:H3"), inputs.Item("planted")]
    # (input index, wall s, cpu s, problems, traced)
    records = [(0, 5.0, 4.0, [], False), (1, 7.0, 6.0, [], False),
               (2, 3.0, 2.0, [], False), (1, 6.0, 5.0, [], False),
               (0, 9.0, 8.0, [], False)]
    assert run.class_costs(records, items, 1) == [5.0, 6.5, 5.0]
    assert run.class_costs(records, items, 2) == [4.0, 5.5, 4.0]


def test_reference_factors_use_the_nearest_starts(monkeypatch):
    monkeypatch.setattr(reference, "NEAREST", 3)
    ref = reference.Reference(sys.executable, {})
    ref.stamps = [0.0, 1.0, 2.0, 3.0, 4.0]
    ref.walls = [w * reference.NOMINAL["wall"] for w in (1.0, 2.0, 4.0, 2.0, 1.0)]
    assert ref.factors([0.5, 2.5, 9.0]) == [0.5, 0.5, 0.5]
    ref.walls = [w * reference.NOMINAL["wall"] for w in (2.0, 2.0, 2.0, 1.0, 1.0)]
    assert ref.factors([0.1, 2.5, 9.0]) == [0.5, 1.0, 1.0]
    assert ref.factor() == 0.5


def test_pass_quantile_weighs_each_class_by_its_inputs():
    items = [inputs.Item("vee:H3"), inputs.Item("planted"),
             inputs.Item("vee:H3"), inputs.Item("planted")]
    records = [(0, 5.0), (1, 7.0), (2, 3.0), (1, 6.0), (0, 9.0)]
    # vee:H3 samples 3, 5, 9 weigh 2/3 each; planted #1 samples 6, 7 weigh 1/2
    assert run.pass_quantile(records, items, 50.0) == 6.0
    assert run.pass_quantile(records, items, 90.0) == 9.0
    assert run.pass_quantile(records, items, 10.0) == 3.0
    # cumulative weights 2/9, 4/9, 5.5/9: the 45-55 % band lies in sample 6
    assert run.pass_median(records, items) == pytest.approx(6.0)


def test_pass_median_averages_across_the_gap_between_clusters():
    items = [inputs.Item("planted") for _ in range(4)]
    records = [(0, 1.0), (1, 1.0), (2, 3.0), (3, 3.0)]
    assert run.pass_median(records, items) == pytest.approx(2.0)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
