import json
from fractions import Fraction

import pytest

from bqspin import harness
from bqspin.cli import emit, main
from bqspin.errors import UnknownSuite
from bqspin.fields import Field
from bqspin.harness import (
    COVERAGE,
    OUT_OF_SCOPE,
    all_passed,
    coverage_table,
    list_suites,
    run,
)


FAST_GLOB = "peirce.*"


def test_run_determinism_byte_identical():
    r1 = run(FAST_GLOB, seed=42)
    r2 = run(FAST_GLOB, seed=42)
    doc1 = emit(r1, fmt="json", seed=42)
    doc2 = emit(r2, fmt="json", seed=42)
    assert doc1 == doc2


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run("definitely.not.a.suite", seed=0)


def test_suite_isolation_order_independent():
    # a suite's row is identical whether it runs alone or with neighbours
    (alone,) = run("peirce.roundtrip", seed=6)
    within = {r.suite_id: r for r in run("peirce.*", seed=6)}
    assert within["peirce.roundtrip"] == alone


def test_backend_filter():
    # lanczos.* holds one suite of each backend, so the filter is checked
    # in both directions
    exact_only = run("lanczos.*", seed=0, backend="exact")
    assert [r.suite_id for r in exact_only] == ["lanczos.free_solutions"]
    float_only = run("lanczos.*", seed=0, backend="float")
    assert [r.suite_id for r in float_only] == ["lanczos.symbol_covariance"]
    assert all(r.backend == "float" for r in float_only)
    with pytest.raises(UnknownSuite):
        run("algebra.*", seed=0, backend="float")


def test_expected_rejection_lets_other_errors_through(monkeypatch):
    # only OffShell / DegenerateMass count as the expected rejection; a
    # TypeError (say, from a stale keyword) must surface, not pass the suite
    def solutions(p, frame):
        if p.on_shell():
            return [None] * 4
        raise TypeError("unexpected keyword argument")

    monkeypatch.setattr(harness, "plane_wave_solutions", solutions)
    with pytest.raises(TypeError):
        run("dirac.nullspace", seed=0)

    def chain(ext, m, frame, sample_fields):
        if m:
            return {"e27_is_eps_contraction": 0.0}
        raise TypeError("unexpected keyword argument")

    monkeypatch.setattr(harness.rs, "g1_chain", chain)
    with pytest.raises(TypeError):
        run("rs.g1_chain", seed=0)


def _fail_row(suite_id):
    (row,) = run(suite_id, seed=0)
    assert row.status == "fail"
    return row


def test_lagrangian_failure_reports_a_nonzero_residual(monkeypatch):
    # a density that vanishes on every pair passes the solution check and
    # fails the off-shell one
    monkeypatch.setattr(harness.cov, "lagrangian_density", lambda *args: Field.zero())
    assert _fail_row("covariants.lagrangian").max_residual == 1.0


def test_current_failure_reports_a_nonzero_residual(monkeypatch):
    # the negated current is still conserved, but its density is negative
    current = harness.flds.current
    monkeypatch.setattr(harness.flds, "current", lambda psi: -current(psi))
    assert _fail_row("dirac.current").max_residual == 1.0


def test_g1_chain_failure_reports_a_nonzero_residual(monkeypatch):
    # a chain that accepts the zero mass misses the expected rejection
    chain = harness.rs.g1_chain
    monkeypatch.setattr(harness.rs, "g1_chain",
                        lambda ext, m, frame, fields: chain(ext, m or Fraction(2), frame, fields))
    assert _fail_row("rs.g1_chain").max_residual == 1.0


# fake lorentz reports: every quantity a suite bounds is the given violation
def _fake_invariance(violation):
    def report(*args, seed):
        if args[-1] == "rotation":
            return {"minkowski_violation": violation, "unitary_violation": violation}
        return {"minkowski_violation": violation, "unitary_violation": 0.5}
    return report


_ROW_DIMS = {"zero": (4, 2), "half_plus": (4, 4), "half_minus": (4, 4),
             "one": (4, 6), "three_half_L": (8, 8)}


def _fake_closure(violation):
    def closure(row, f, seed):
        dim_a, dim_b = _ROW_DIMS[row]
        return {"max_residual": violation, "real_dim_A": dim_a, "real_dim_B": dim_b}
    return closure


@pytest.mark.parametrize("suite_id,report,fake", [
    ("products.low_spin_matrix", "invariance_report", _fake_invariance),
    ("products.l32_matrix", "l32_invariance_report", _fake_invariance),
    ("lorentz.subspaces", "subspace_closure", _fake_closure),
    ("l32.nu_rotation_closure", "rotation_closure", lambda v: lambda seed: v),
])
def test_float_suites_report_the_measured_residual(monkeypatch, suite_id, report, fake):
    tol = harness._REGISTRY[suite_id].tol
    for violation, status in ((tol / 4, "pass"), (tol * 4, "fail")):
        monkeypatch.setattr(harness.lor, report, fake(violation))
        (row,) = run(suite_id, seed=0)
        assert row.status == status
        assert row.max_residual == violation
    # an overriding tolerance is compared with the measured residual
    monkeypatch.setattr(harness.lor, report, fake(1e-12))
    (row,) = run(suite_id, seed=0, tol=0.0)
    assert row.status == "fail"


def test_results_pass_for_fast_suites():
    results = run(FAST_GLOB, seed=3)
    assert all_passed(results)
    for r in results:
        assert r.status == "pass"
        assert r.max_residual == 0.0


def test_witness_suites_carry_payload():
    results = run("l32.boost_counterexample", seed=1)
    (r,) = results
    assert r.status == "witness"
    assert r.witness_payload is not None
    assert r.max_residual > 1e-3


@pytest.mark.parametrize("suite_id", ["l32.boost_counterexample", "rs.extra_constraint"])
def test_tol_never_overrides_a_witness_margin(suite_id):
    (row,) = run(suite_id, seed=0, tol=1e6)
    assert row.status == "witness"
    assert row.max_residual > harness._REGISTRY[suite_id].tol


def test_json_roundtrip_and_schema():
    results = run(FAST_GLOB, seed=5)
    doc = json.loads(emit(results, fmt="json", seed=5))
    assert doc["schema_version"] == 1
    row = doc["results"][0]
    assert set(row) == {"suite_id", "paper_anchor", "status", "max_residual",
                        "witness_payload", "seed", "backend"}


def test_markdown_table():
    results = run(FAST_GLOB, seed=5)
    md = emit(results, fmt="md", seed=5)
    assert md.startswith("| anchor | suite | status |")
    assert "## Coverage" in md


def test_empty_results_render():
    assert json.loads(emit([], fmt="json"))["results"] == []
    assert "| anchor | suite" in emit([], fmt="md")


def test_coverage_is_complete():
    anchors = set(COVERAGE)
    for n in range(1, 49):
        assert f"eq.{n}" in anchors, f"eq.{n} missing"
    for n in range(1, 9):
        assert f"eq.A.{n}" in anchors, f"eq.A.{n} missing"
    assert "table.1" in anchors and "table.2" in anchors
    known = set(list_suites())
    for anchor, suites in COVERAGE.items():
        if suites:
            assert all(s in known for s in suites), anchor
        else:
            assert anchor in OUT_OF_SCOPE, anchor
    table = coverage_table()
    assert all(("suites" in v) or ("out_of_scope" in v) for v in table.values())


def test_every_suite_has_an_anchor():
    from bqspin.harness import _REGISTRY
    covered = {s for suites in COVERAGE.values() for s in suites}
    for sid, spec in _REGISTRY.items():
        assert spec.anchor, sid
        assert sid in covered, f"{sid} not referenced by the coverage table"


def test_cli_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["--suite", FAST_GLOB, "--seed", "2", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 2
    assert main(["--suite", "no.match.anywhere"]) == 2
    assert main(["--tol", "-1"]) == 2
    assert main(["--list"]) == 0


def test_cli_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("BQSPIN_SEED", "11")
    code = main(["--suite", "algebra.hamilton_table", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["seed"] == 11
    monkeypatch.setenv("BQSPIN_SEED", "notanint")
    assert main(["--suite", "algebra.hamilton_table"]) == 2


def test_cli_same_seed_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["--suite", "peirce.*", "--seed", "9", "--format", "json",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
