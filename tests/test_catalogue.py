import copy
import math
import re

import numpy as np
import pytest

from veesys import catalogue, deform, oracles
from veesys.catalogue import CatalogueDataError
from veesys.errors import (InadmissibleParameters, InvalidConfiguration, UnknownEntry,
                           VeesysError)
from veesys.expressions import ExpressionError, evaluate
from veesys.tolerances import ORACLE_RTOL, SQRT_CLAMP


EXPECTED_IDS = {
    "A3", "D3", "E6A3", "B3", "E6A1cubed", "AB4A1_2", "AB4A1_1", "G3",
    "E7A1sqA2", "F3", "H3", "E8A1A4", "E8A2A3", "E8A1sqA3", "E8A1cubedA2",
    "E8A2sqA1", "H4A1",
}


def test_seventeen_entries():
    assert set(catalogue.ids()) == EXPECTED_IDS
    assert len(catalogue.ids()) == 17


def test_checksum_is_stable():
    assert len(catalogue.data_checksum()) == 64
    assert catalogue.checksum() == catalogue.data_checksum()
    # loading twice gives the same immutable entries
    assert catalogue.entry("H3") is catalogue.entry("H3")


def test_entry_verification_spot_checks():
    for ident, params in [
        ("A3", {"c1": 2, "c2": 1, "c3": 0.5}),
        ("F3", {"t": 0.75}),
        ("H4A1", {}),
        ("E8A1cubedA2", {}),
    ]:
        report = catalogue.verify_entry(ident, params)
        assert report.passed, (ident, report.failures)


def test_flat_labels_are_converted_once():
    """Flat records hold tuples of label strings, built when the entry is
    made, and every nu dict is keyed on those same tuples."""
    ent = catalogue.entry("H3")
    assert ent.flats is ent.flats
    members = [f["members"] for f in ent.flats]
    assert all(type(m) is tuple and all(type(x) is str for x in m) for m in members)
    multi = [f["members"] for f in ent.flats if f.get("nu") is not None]
    for nus in (ent.nu_by_members({}), ent.nu_by_members({})):
        assert len(nus) == len(multi) and all(a is b for a, b in zip(nus, multi))


def test_inadmissible_parameters_raise():
    with pytest.raises(InadmissibleParameters):
        catalogue.construct("B3", {"c1": 1, "c2": 1, "c3": 1, "gamma": -2})
    with pytest.raises(InadmissibleParameters):
        catalogue.construct("D3", {"t": 5, "s": 1})


def test_unknown_parameters_raise():
    with pytest.raises(InadmissibleParameters, match=r"unknown parameters \['zz'\]"):
        catalogue.construct("H3", {"zz": 5})
    with pytest.raises(InadmissibleParameters, match=r"unknown parameters \['s'\]"):
        catalogue.construct("F3", {"t": 0.5, "s": 1})
    # a missing parameter is named first
    with pytest.raises(InadmissibleParameters, match=r"missing parameters \['t'\]"):
        catalogue.construct("F3", {"s": 1})


@pytest.mark.parametrize("ident, params, reason", [
    ("A3", {"c1": 1e-20, "c2": 1, "c3": 1}, "do not span the ambient space: numerical rank 2 "
                                            "< dimension 3"),
    ("G3", {"t": 1e200}, "do not span"),
    ("A3", {"c1": 1, "c2": 1, "c3": 1e-200}, "do not span"),
    ("AB4A1_1", {"t": 1e155}, "cannot evaluate 'sqrt.*out of range"),
])
def test_invalid_configurations_are_named(ident, params, reason):
    """Admissible parameters whose values give no valid configuration."""
    catalogue.entry(ident).check_admissible(params)
    with pytest.raises(InvalidConfiguration, match=rf"^{ident}: parameters .* give no "
                                                   rf"valid configuration: .*{reason}"):
        catalogue.construct(ident, params)


def test_overflow_is_a_failed_row():
    (row,) = deform.scan_family("AB4A1_1", grid=[{"t": 1e155}])
    assert row["error"].startswith("InvalidConfiguration: AB4A1_1: ")
    (failure,) = catalogue.verify_entry("AB4A1_1", {"t": 1e155}).failures
    assert failure.startswith("construction failed: AB4A1_1: ")
    assert "out of range" in failure


def test_check_report_verdict_is_its_failure_list():
    report = catalogue.CheckReport()
    assert report.passed
    report.failures.append("reason")
    assert not report.passed
    with pytest.raises(AttributeError):
        report.passed = True


def test_unknown_entry():
    with pytest.raises(KeyError):
        catalogue.entry("Z9")


def test_unknown_ids_are_veesys_errors():
    for lookup, ident in ((catalogue.entry, "Z9"),
                          (catalogue.auxiliary_configuration, "Z9-roots")):
        with pytest.raises(UnknownEntry) as info:
            lookup(ident)
        assert isinstance(info.value, VeesysError)
        assert isinstance(info.value, KeyError)
        assert str(info.value).startswith("unknown ")  # not KeyError's quoted repr


@pytest.mark.parametrize("error, collected", [
    (ValueError("covectors do not span the ambient space"), True),
    (InadmissibleParameters("H3", "True", {}), True),
    (TypeError("a programming error"), False),
])
def test_only_construction_errors_become_failed_rows(monkeypatch, error, collected):
    def construct(*args, **kwargs):
        raise error

    monkeypatch.setattr(catalogue, "construct", construct)
    if collected:
        assert catalogue.verify_entry("H3").failures == [f"construction failed: {error}"]
        (row,) = deform.scan_family("H3")
        assert row["error"] == f"{type(error).__name__}: {error}"
    else:
        with pytest.raises(TypeError):
            catalogue.verify_entry("H3")
        with pytest.raises(TypeError):
            deform.scan_family("H3")


@pytest.mark.parametrize("ident, params, error", [
    ("A3", {"c1": 1e100, "c2": 1, "c3": 1}, "flat members 1, 3 are proportional"),
    ("F3", {"t": 1e-200}, "covector 10 has canonical norm 0"),
])
def test_plane_check_errors_become_failed_rows(ident, params, error):
    """Admissible parameters that construct but fail the plane check (a
    degenerate plane, a canonical norm that underflows) give a failed row,
    as in scan_family."""
    assert catalogue.verify_entry(ident, params).failures == [f"plane check failed: {error}"]
    (row,) = deform.scan_family(ident, [params])
    assert row["error"].endswith(error)


def test_relation_check_errors_become_failed_rows():
    """At rtol 0.6 the plane check of the H3 inside (H4, A1) row raises
    DegeneratePlane: a failed row carrying the message.  An unknown kind
    still raises."""
    (rel,) = [r for r in catalogue.relations() if r.description == "H3 inside (H4,A1)"]
    assert catalogue.verify_relation(rel).passed
    report = catalogue.verify_relation(rel, rtol=0.6)
    assert report.failures == ["check failed: flat members 4, 8 are proportional"]
    unknown = copy.copy(rel)
    unknown.kind = "restriction"
    with pytest.raises(ValueError, match="unknown relation kind 'restriction'"):
        catalogue.verify_relation(unknown)


@pytest.mark.parametrize("factor, passed", [(0.5, True), (2.0, False)])
def test_nu_oracle_cut(monkeypatch, factor, passed):
    """verify_entry accepts a computed nu within ORACLE_RTOL * max(1, |nu|)
    of its oracle and names the flat beyond it."""
    real, moved = catalogue._nus, []

    def offset(flats, names):
        nus = real(flats, names)
        members = next(iter(nus))
        nus[members] += factor * ORACLE_RTOL * max(1.0, abs(nus[members]))
        moved.append((members, nus[members]))
        return nus

    monkeypatch.setattr(catalogue, "_nus", offset)
    report = catalogue.verify_entry("H3", {})
    [(members, oracle)] = moved
    assert report.passed == passed, report.failures
    if not passed:
        [failure] = report.failures
        assert failure.startswith(f"nu mismatch on flat {members}: computed ")
        assert failure.endswith(f", oracle {oracle!r}")


@pytest.mark.parametrize("factor, passed", [(0.5, True), (2.0, False)])
def test_gram_oracle_cut(monkeypatch, factor, passed):
    """verify_entry accepts a Gram matrix within ORACLE_RTOL of its oracle,
    relative to the oracle's largest entry, and reports one beyond it.  Only
    the oracle's evaluation is offset: _evaluated also builds the matrix."""
    real, gram = catalogue._evaluated, catalogue.entry("H3").gram

    def offset(rows, names):
        values = real(rows, names)
        if rows is gram:
            values[0, 1] += factor * ORACLE_RTOL * np.abs(values).max()
        return values

    monkeypatch.setattr(catalogue, "_evaluated", offset)
    report = catalogue.verify_entry("H3", {})
    error = report.details["gramError"]
    assert error == pytest.approx(factor * ORACLE_RTOL, rel=1e-6)
    assert report.passed == passed, report.failures
    if not passed:
        assert report.failures == [f"gram mismatch, relative error {error:.3e}"]


@pytest.mark.parametrize("factor, passed", [(0.5, True), (2.0, False)])
def test_published_nu_ratio_cut(factor, passed):
    """verify_relation accepts a common nu-ratio within ORACLE_RTOL times
    the published one and reports one beyond it."""
    rel = catalogue.relations("extension")[0]
    assert rel.description == "A3(1,1,1) inside F3(1)" and rel.nu_ratio == 4.5
    computed = catalogue.verify_relation(rel).details["nuRatio"]
    published = computed * (1 + factor * ORACLE_RTOL)
    changed = copy.copy(rel)
    changed.nu_ratio = published
    report = catalogue.verify_relation(changed)
    assert report.details["nuRatio"] == computed
    assert report.passed == passed, report.failures
    if not passed:
        assert report.failures == [
            f"nu-ratio {computed!r} differs from published {published!r}"
        ]


def _degeneration(description):
    [rel] = [rel for rel in catalogue.relations("degeneration")
             if rel.description.startswith(description)]
    return rel


@pytest.mark.parametrize("factor, passed", [(0.99, False), (1.01, True)])
def test_limit_nu_tol_is_decided_on_both_sides(monkeypatch, factor, passed):
    """A degeneration whose path stops short of its limit passes while its
    last nu error is within LIMIT_NU_TOL, and fails beyond it."""
    rel = _degeneration("F3(t), t -> infinity, limit D3(1,1)")
    assert not rel.exact_limit
    error = catalogue.verify_relation(rel).details["nuErrors"][-1]
    assert error == pytest.approx(2.78e-10, rel=1e-3)
    monkeypatch.setattr(oracles, "LIMIT_NU_TOL", factor * error)
    report = catalogue.verify_relation(rel)
    assert report.passed == passed, report.failures
    if not passed:
        [failure] = report.failures
        assert failure.startswith("nu-values do not approach target: ")


@pytest.mark.parametrize("factor, passed", [(0.99, False), (1.01, True)])
def test_limit_nu_oracle_rtol_is_decided_on_both_sides(monkeypatch, factor, passed):
    """A degeneration that reaches its limit passes while the limit's
    nu-values lie within ORACLE_RTOL of the target's, and fails beyond it.
    This row's limit nu error is the largest of the exact-limit rows."""
    rel = _degeneration("B3(c1,3/2,3/2;-1), c1 -> 1, limit (E6,A3)")
    assert rel.exact_limit
    error = catalogue.verify_relation(rel).details["limitNuError"]
    assert error == pytest.approx(2.22e-16, rel=1e-2)
    monkeypatch.setattr(oracles, "ORACLE_RTOL", factor * error)
    report = catalogue.verify_relation(rel)
    assert report.passed == passed, report.failures
    if not passed:
        [failure] = report.failures
        assert failure.startswith("limit nu-values ") and " differ from target " in failure


@pytest.mark.parametrize("factor, passed", [(0.99, True), (1.01, False)])
def test_min_vanishing_exponent_is_decided_on_both_sides(monkeypatch, factor, passed):
    """A degeneration passes while its vanishing covectors' norms decay with
    an exponent of at least MIN_VANISHING_EXPONENT, and fails below it."""
    rel = _degeneration("G3(t), t -> 1/2")
    exponent = catalogue.verify_relation(rel).details["vanishingNormExponent"]
    assert exponent == pytest.approx(0.5004, rel=1e-3)
    monkeypatch.setattr(oracles, "MIN_VANISHING_EXPONENT", factor * exponent)
    report = catalogue.verify_relation(rel)
    assert report.passed == passed, report.failures
    if not passed:
        assert report.failures == [
            f"vanishing norms decay too slowly (exponent {exponent:.3f})"
        ]


AB4_ROW = "(AB4(t),A1)_1, t -> 1/sqrt(2)"
F3_ROW = "F3(t), t -> infinity, limit D3(1,1)"


@pytest.mark.parametrize("row, cut, factor, passed", [
    (AB4_ROW, "SURVIVOR_RESIDUAL_DECAY", 0.99, True),
    (AB4_ROW, "SURVIVOR_RESIDUAL_DECAY", 1.01, False),
    (AB4_ROW, "SURVIVOR_RESIDUAL_CAP", 1.01, True),
    (AB4_ROW, "SURVIVOR_RESIDUAL_CAP", 0.99, False),
    (F3_ROW, "SURVIVOR_RESIDUAL_FLOOR", 1.01, True),
    (F3_ROW, "SURVIVOR_RESIDUAL_FLOOR", 0.99, False),
])
def test_survivor_residual_cuts_are_decided_on_both_sides(monkeypatch, row, cut, factor, passed):
    """A degeneration passes while the survivors' residual r1 at the smaller
    offset is at most SURVIVOR_RESIDUAL_CAP and below SURVIVOR_RESIDUAL_FLOOR
    or below r0 / SURVIVOR_RESIDUAL_DECAY, r0 the residual at the larger
    offset.  On the AB4 row r1 lies above the floor, so the decay decides;
    on the F3 row the decay factor is raised past r0 / r1, so the floor
    alone decides."""
    rel = _degeneration(row)
    r0, r1 = catalogue.verify_relation(rel).details["survivorResiduals"]
    if row == AB4_ROW:
        assert r1 == pytest.approx(7.07e-5, rel=1e-3) and r0 / r1 == pytest.approx(9.99, rel=1e-3)
        assert r1 > oracles.SURVIVOR_RESIDUAL_FLOOR
    else:
        assert r1 == pytest.approx(8.32e-10, rel=1e-3) and r0 / r1 == pytest.approx(100, rel=1e-3)
        monkeypatch.setattr(oracles, "SURVIVOR_RESIDUAL_DECAY", 2 * r0 / r1)
    deciding = r0 / r1 if cut == "SURVIVOR_RESIDUAL_DECAY" else r1
    monkeypatch.setattr(oracles, cut, factor * deciding)
    report = catalogue.verify_relation(rel)
    assert report.passed == passed, report.failures
    if not passed:
        assert report.failures == [f"survivor residuals do not vanish in the limit: {[r0, r1]}"]


def test_relation_counts():
    assert len(catalogue.relations("extension")) == 5
    assert len(catalogue.relations("degeneration")) == 11


def test_degenerations_decide_the_matroid_with_same_matroid():
    for rel in catalogue.relations("degeneration"):
        assert catalogue.verify_relation(rel).details["matroidVerdict"] == "Yes", rel.description


def test_relations_convert_labels_and_default_printed_covectors():
    first = catalogue.relations("extension")[0]
    assert first.covectors == ("1", "2", "3", "10", "11", "12", "13")
    assert first.printed_covectors == first.covectors
    assert first.path is None and first.scale == "1" and not first.flagged
    corrected = [rel for rel in catalogue.relations() if rel.printed_covectors != rel.covectors]
    assert len(corrected) == 4
    assert all(isinstance(c, str) for rel in corrected for c in rel.printed_covectors)


def test_flagged_rows_carry_notes():
    flagged = [
        rel
        for kind in ("extension", "degeneration")
        for rel in catalogue.relations(kind)
        if rel.flagged
    ]
    assert len(flagged) == 2
    assert all(rel.note for rel in flagged)


def test_corrected_entries_carry_notes():
    for ident in ("E8A1cubedA2", "E8A1A4", "E8A2A3", "F3", "H4A1"):
        assert catalogue.entry(ident).notes, ident


def test_h4a1_nu_values():
    ent = catalogue.entry("H4A1")
    values = sorted(set(round(v, 10) for v in ent.nu_by_members({}).values()))
    assert values == pytest.approx(sorted([2 / 15, 1 / 10, 1 / 6, 1 / 3]))


@pytest.fixture
def load_text(monkeypatch):
    """Loads the catalogue from the given text in place of the shipped file."""
    def load(text):
        monkeypatch.setattr(catalogue, "_data_text", lambda: text)
        catalogue._load.cache_clear()
        return catalogue._load()

    yield load
    catalogue._load.cache_clear()


def test_tampered_data_detected(load_text):
    text = catalogue._data_text()
    tampered = text.replace('"name":', '"name" :', 1)
    assert tampered != text
    with pytest.raises(CatalogueDataError, match="checksum"):
        load_text(tampered)


def test_checksum_covers_every_other_line(load_text):
    text = catalogue._data_text()
    lines = text.splitlines()
    exempt = [i for i, line in enumerate(lines)
              if catalogue.CHECKSUM_LINE.fullmatch(line.strip())]
    assert len(exempt) == 1
    recorded = catalogue.data_checksum(text)
    for i in range(len(lines)):
        edited = "\n".join(lines[:i] + [lines[i] + " "] + lines[i + 1:])
        assert (catalogue.data_checksum(edited) == recorded) == (i in exempt), i
    for i in (0, exempt[0] + 1, len(lines) // 2, len(lines) - 1):
        edited = "\n".join(lines[:i] + [lines[i] + " "] + lines[i + 1:])
        with pytest.raises(CatalogueDataError, match="checksum"):
            load_text(edited)
    # data sharing the checksum line is covered too
    line = lines[exempt[0]]
    edited = text.replace(line, line + ' "extra": 1,', 1)
    with pytest.raises(CatalogueDataError, match="checksum"):
        load_text(edited)


def test_checksum_value_change_reports_both_digests(load_text):
    text = catalogue._data_text()
    actual = catalogue.data_checksum(text)
    forged = "0" * 64
    edited = text.replace(actual, forged, 1)
    assert catalogue.data_checksum(edited) == actual
    with pytest.raises(CatalogueDataError) as info:
        load_text(edited)
    assert f"recorded {forged}, actual {actual}" in str(info.value)


def test_malformed_catalogue_json_is_named_error(load_text):
    text = catalogue._data_text()
    lines = text.splitlines()
    after_a3 = lines.index('      "id": "A3",') + 2  # 1-based line after it
    for broken, where in (
        (text.replace('"id": "A3",', '"id": "A3"', 1), f"line {after_a3}, column 7"),
        (text.rstrip().rstrip("}"), f"line {len(lines)}, column 1"),
        ("", "line 1, column 1"),
    ):
        with pytest.raises(CatalogueDataError, match=rf"not valid JSON \({where}\)"):
            load_text(broken)


def _resealed(text):
    """The text with its checksum line recomputed, so the load goes past it."""
    return text.replace(catalogue.data_checksum(), catalogue.data_checksum(text), 1)


@pytest.mark.parametrize("old, new, where", [
    ('"id": "A3",', '"id": "A3", "colour": "red",', r"entries\[0\]: .*'colour'"),
    ('      "id": "A3",\n', "", r"entries\[0\]: .*'id'"),
    ('"kind": "extension",', '"kind": "extension", "weight": 1,', r"relations\[0\]: .*'weight'"),
    ('      "kind": "extension",\n', "", r"relations\[0\]: .*'kind'"),
    ('"id": "B3-roots",', '"id": "B3-roots", "rank": 3,', r"auxiliary\[0\]: .*'rank'"),
])
def test_unknown_or_missing_record_field_is_named_error(load_text, old, new, where):
    text = catalogue._data_text()
    assert text.count(old) >= 1
    with pytest.raises(CatalogueDataError, match=rf"catalogue record {where}"):
        load_text(_resealed(text.replace(old, new, 1)))


def test_catalogue_of_wrong_shape_is_named_error(load_text):
    with pytest.raises(CatalogueDataError, match="unsupported data format None"):
        load_text("[]")


class TestExpressions:
    def test_arithmetic(self):
        assert evaluate("1/2 + sqrt(4)") == pytest.approx(2.5)
        assert evaluate("-t**2", {"t": 3}) == pytest.approx(-9.0)
        assert evaluate("abs(-2) * pi") == pytest.approx(2 * math.pi)

    def test_comparisons(self):
        assert evaluate("0 < t < 1 and t != 1/2", {"t": 0.25}) is True
        assert evaluate("t > 1 or t < 0", {"t": 0.5}) is False

    def test_sqrt_clamps_round_off(self):
        assert evaluate("sqrt(x)", {"x": -1e-15}) == 0.0
        with pytest.raises(ExpressionError, match="negative"):
            evaluate("sqrt(-1)")

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_sqrt_clamp_cut(self, factor):
        if factor < 1:
            assert evaluate("sqrt(x)", {"x": -factor * SQRT_CLAMP}) == 0.0
        else:
            with pytest.raises(ExpressionError, match="negative"):
                evaluate("sqrt(x)", {"x": -factor * SQRT_CLAMP})

    def test_rejects_unsafe_syntax(self):
        for bad in (
            "__import__('os')",
            "().__class__",
            "[1,2]",
            "'text'",
            "exp(1)",
            "sqrt(x=2)",
            "lambda: 1",
        ):
            with pytest.raises(ExpressionError):
                evaluate(bad)

    def test_unknown_name(self):
        with pytest.raises(ExpressionError, match="unknown name"):
            evaluate("t + u", {"t": 1})

    @pytest.mark.parametrize("text, names", [
        ("t**2", {"t": 1e155}),
        ("1/t", {"t": 0.0}),
    ])
    def test_arithmetic_faults_are_expression_errors(self, text, names):
        with pytest.raises(ExpressionError, match=rf"cannot evaluate '{re.escape(text)}'"):
            evaluate(text, names)

    def test_parsed_strings_are_checked_on_every_call(self):
        # a parsed tree is reused, but its syntax is still checked each time
        for bad in ("__import__('os')", "1 +", "t + u"):
            for _ in range(2):
                with pytest.raises(ExpressionError):
                    evaluate(bad, {"t": 1})

    def test_parsed_strings_read_each_calls_names(self):
        assert evaluate("t * (t + 1)", {"t": 2}) == pytest.approx(6.0)
        assert evaluate("t * (t + 1)", {"t": 3}) == pytest.approx(12.0)


def test_script_references_complete():
    for name in ("a3", "b3", "h3", "h4a1"):
        config, basis = catalogue.script_reference(name)
        assert len(basis) == 4
        assert set(basis) <= set(config.labels)
        assert catalogue.script_path(name).is_file()
