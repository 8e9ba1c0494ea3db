import dataclasses
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from bqspin import bilinears, harness, linops, lorentz, spin
from bqspin.cli import emit, main
from bqspin.biquaternion import Biquaternion
from bqspin.errors import ConfigError, UnknownSuite
from bqspin.fields import Field, Poly, current
from bqspin.linops import RealLinearOp
from bqspin.scalars import gr
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


def test_report_is_byte_identical_across_hash_seeds():
    # field modes live in dicts keyed by wave vectors, so a report must not
    # depend on the per-process string and hash randomisation; the float
    # eq. (48) fit must give the same defect in every process
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for args, marker in ((["--backend", "exact", "--suite", "dirac.*"], '"dirac.'),
                         (["--backend", "float", "--suite", "l32.*"], '"l32.')):
        reports = []
        for hash_seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.path.join(root, "src"))
            proc = subprocess.run(
                [sys.executable, "-m", "bqspin.cli", *args, "--format", "json"],
                capture_output=True, text=True, timeout=300, cwd=root, env=env)
            assert proc.returncode == 0, proc.stderr
            reports.append(proc.stdout)
        assert marker in reports[0]
        assert reports[0] == reports[1]


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


# -- the claims of a suite and the verdict derived from them -----------------------------


def test_each_claim_reports_whether_it_held():
    check = harness.Check(1e-9, "float")
    assert check.zero(Field.zero(), Poly(), Biquaternion.zero(), gr(0), 0.0)
    assert not check.zero(Biquaternion.zero(), Field.constant(Biquaternion.one()))
    assert check.holds(True) and not check.holds(0)
    assert check.rejects(ZeroDivisionError, lambda x: 1 / x, 0)
    assert not check.rejects(ZeroDivisionError, lambda x: 1 / x, 2)
    with pytest.raises(TypeError):
        check.rejects(ZeroDivisionError, lambda x: 1 / x, "0")
    assert check.within(0.0, 1e-9) and not check.within(1e-12, 2e-9)
    assert not check.within(float("nan"))
    # the rejects that let a TypeError through made no claim
    assert check.claims == 9
    # a margin is a witness suite's claim
    with pytest.raises(ConfigError):
        check.exceeds(1.0)
    witness = harness.Check(1e-10, "float", "witness")
    assert witness.exceeds(2e-3) and not witness.exceeds(1e-3)


def _verdict(claims, backend="float", kind="identity", tol=1e-9):
    check = harness.Check(tol, backend, kind)
    claims(check)
    return check.verdict("returned")


def test_one_rule_derives_status_residual_and_payload():
    # the largest within value; the witness of the first failed claim
    assert _verdict(lambda c: c.within(1e-12, 3e-10)) == ("pass", 3e-10, "returned")
    assert _verdict(lambda c: (c.within(2e-9, witness="first"), c.within(5e-9, witness="second"),
                               c.within(1e-12))) == ("fail", 5e-9, "first")
    # a failed exact claim raises the residual to 1.0, never lowers it
    assert _verdict(lambda c: (c.within(1e-12), c.holds(False, "h"))) == ("fail", 1.0, "h")
    assert _verdict(lambda c: (c.within(3.0), c.holds(False))) == ("fail", 3.0, None)
    assert _verdict(lambda c: c.zero(0), "exact") == ("pass", 0.0, "returned")
    assert _verdict(lambda c: (c.zero(0, 1, witness="z"), c.holds(False, "h")),
                    "exact") == ("fail", 1.0, "z")
    assert _verdict(lambda c: (c.rejects(ValueError, int, "1"), c.zero(0)),
                    "exact") == ("fail", 1.0, None)
    # a witness suite with no within claim reports its margin
    assert _verdict(lambda c: (c.zero(0), c.exceeds(0.5)), "exact", "witness",
                    1e-3) == ("witness", 0.5, "returned")
    assert _verdict(lambda c: (c.zero(0), c.exceeds(1e-4)), "exact", "witness",
                    1e-3) == ("fail", 1e-4, "returned")
    assert _verdict(lambda c: (c.zero(1), c.exceeds(0.5)), "exact", "witness",
                    1e-3) == ("fail", 1.0, None)
    # and one with a within claim reports that; its margin must still exceed
    # 1e-3 as well as the tolerance
    assert _verdict(lambda c: (c.within(1e-12), c.exceeds(0.5)), "float", "witness",
                    1e-10) == ("witness", 1e-12, "returned")
    assert _verdict(lambda c: (c.within(1e-12), c.exceeds(1e-4)), "float", "witness",
                    1e-10) == ("fail", 1e-12, "returned")
    # a witness suite that shows no margin fails, as does a suite that claims nothing
    assert _verdict(lambda c: c.zero(0), "exact", "witness", 1e-3) == ("fail", 0.0, "returned")
    assert _verdict(lambda c: None) == ("fail", 0.0, "returned")


def _register(monkeypatch, suite_id, backend, fn):
    monkeypatch.setitem(harness._REGISTRY, suite_id,
                        harness.SuiteSpec(suite_id, "eq.1", backend, 0.0, fn))


def test_an_exact_suite_cannot_decide_in_float(monkeypatch):
    _register(monkeypatch, "dummy.float_claim", "exact", lambda rng, check: check.within(0.0))
    with pytest.raises(ConfigError):
        run("dummy.*", seed=0)


def test_a_suite_that_claims_nothing_fails(monkeypatch):
    _register(monkeypatch, "dummy.silent", "exact", lambda rng, check: {"checked": "nothing"})
    (row,) = run("dummy.*", seed=0)
    assert (row.status, row.max_residual, row.witness_payload) == (
        "fail", 0.0, {"checked": "nothing"})


# rs.extra_constraint shows its witness, the extra-constraint field, by a
# float norm at one point, and the benchmark's known-answer table reads that
# norm; it is the one exact suite left that evaluates a field in float
FLOAT_WITNESS_GAP = "rs.extra_constraint"


def test_exact_suites_decide_without_float(monkeypatch):
    def refused(self, point):
        raise AssertionError("an exact suite evaluated a field in float")

    monkeypatch.setattr(Field, "eval_float", refused)
    monkeypatch.setattr(Poly, "eval_float", refused)
    for sid in list_suites():
        if harness._REGISTRY[sid].backend != "exact":
            continue
        if sid == FLOAT_WITNESS_GAP:
            with pytest.raises(AssertionError):
                run(sid, seed=1)
            continue
        (row,) = run(sid, seed=1)
        assert row.status == "pass", sid


def test_the_gram_check_accepts_only_the_sum_of_squares():
    # scal(psi psi.plus()) is the sum of the squared real coordinates; its
    # negation, a multiple of it and scal(psi psi.bar()) are not
    x = harness._generic_field()

    def holds(form, *fields):
        return harness._squares_defect(form(*fields).scalar_part(), 8 * len(fields)).is_zero()

    assert holds(current, x)
    for form in (lambda x: -current(x), lambda x: current(x.scale(2)), lambda x: x * x.bar()):
        assert not holds(form, x)
    # on a pair, a cross term a b.plus() breaks it even where each field
    # alone is the sum of squares
    y = harness._generic_field(8)

    def polar(a, b):
        return current(a) + current(b).bar()

    assert holds(polar, x, y)
    assert not holds(lambda a, b: polar(a, b) + a * b.plus(), x, y)


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


def test_counting_failure_on_a_misplaced_dirac_block(monkeypatch):
    # psi_3's Dirac rows over psi_2's columns: the constraint ranks, the
    # count after the constraints and the solution count stay as they were,
    # so only the rank of the Dirac rows (12, not 16) shows the fault
    symbol = harness.rs._free_symbol

    def misplaced(p, m, frame):
        dl, alg, diff = symbol(p, m, frame)
        dl = dl[:24] + [row[:16] + row[24:] + row[16:24] for row in dl[24:]]
        return dl, alg, diff

    monkeypatch.setattr(harness.rs, "_free_symbol", misplaced)
    assert _fail_row("rs.constraint_counting").max_residual == 1.0


def _rebind_everywhere(monkeypatch, original, replacement):
    """Rebind a library function in every bqspin module that binds it by
    name, as the benchmark's layer tracer does, so no caller keeps it."""
    rebound = 0
    for name, module in list(sys.modules.items()):
        if name == "bqspin" or name.startswith("bqspin."):
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, replacement)
                    rebound += 1
    assert rebound


def _flipped_pair_mass(residual):
    return lambda a, b, ext, m: residual(a, b, ext, -m)


def _flipped_spinor_mass(residual):
    return lambda psi, ext, m, frame, spec=harness.flds.FROZEN_NABLA: residual(
        psi, ext, -m, frame, spec)


@pytest.mark.parametrize("name,mutant,suite_ids", [
    ("lanczos_residual", _flipped_pair_mass, ["covariants.lagrangian"]),
    ("dirac_lanczos_residual", _flipped_spinor_mass, ["rs.contraction_chain", "rs.g1_chain"]),
])
def test_a_flipped_mass_in_an_operator_fails_the_suites_built_on_it(
        monkeypatch, name, mutant, suite_ids):
    # each operator is defined once, so the suites verify the definition the
    # library uses: a wrong mass sign there cannot pass on a private copy
    original = getattr(harness.flds, name)
    _rebind_everywhere(monkeypatch, original, mutant(original))
    for suite_id in suite_ids:
        _fail_row(suite_id)


def _dropped_eq28_term(index):
    def mutant(terms):
        def dropped(*args):
            out = list(terms(*args))
            out[index] = Field.zero()
            return tuple(out)
        return dropped
    return mutant


def _flipped_defect(defect):
    return lambda ctx, x: -defect(ctx, x)


def _g_squared_rows(rows):
    # the factor of g in each row scaled by g once more
    return lambda parts, g: rows(dataclasses.replace(
        parts, g_factor=tuple(f.scale(g) for f in parts.g_factor)), g)


@pytest.mark.parametrize("name,mutant,suite_ids", [
    *(("_pi_contraction_terms", _dropped_eq28_term(i), ["rs.contraction_chain", "rs.g1_chain"])
      for i in range(4)),
    ("second_order_defect", _flipped_defect, ["rs.contraction_chain", "rs.g1_chain"]),
    ("coupled_rows", _g_squared_rows, ["rs.contraction_chain"]),
])
def test_a_wrong_shared_part_fails_the_chains(monkeypatch, name, mutant, suite_ids):
    # the chains read the g-free parts from one definition each, so a wrong
    # part cannot pass by being shared between the rows and the closed forms
    original = getattr(harness.rs, name)
    _rebind_everywhere(monkeypatch, original, mutant(original))
    for suite_id in suite_ids:
        _fail_row(suite_id)


def test_boost_fails_with_generators_that_are_not_the_columns(monkeypatch):
    # boost(rho) boost(-rho) = 1 holds for any generator; footnote 8's
    # closed form on the HALF_PLUS subspace does not
    gen = np.random.default_rng(7)
    triples = {label: spin.GeneratorTriple(
        *(RealLinearOp(0.5 * gen.standard_normal((8, 8))) for _ in range(3)))
        for label in spin.SpinLabel}
    monkeypatch.setattr(spin, "generators", lambda s, f: triples[s])
    row = _fail_row("rotations.boost")
    assert row.max_residual > 1e-3


def _edited(fn, old, new):
    """fn compiled again from its source, with its one occurrence of old
    replaced by new."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1
    namespace = {}
    exec(source.replace(old, new), fn.__globals__, namespace)
    return namespace[fn.__name__]


def _b_left_factor_l(factors):
    # L in place of L.star() as the left factor of every B-role action
    def mutant(row, role, L, f):
        left, right = factors(row, role, L, f)
        return (L if role == "B" else left), right
    return mutant


def _b_factors_of_row_one(factors):
    # the whole-algebra B action with the factors of the vector row
    return lambda row, role, L, f: factors(
        "one" if (row, role) == ("three_half_L", "B") else row, role, L, f)


def _bar_in_the_transition_law(characters):
    return _edited(characters, 'for name in ("v_p", "v_a"):\n'
                               '            expect = L * getattr(cov, name) * L.plus()',
                   'for name in ("v_p", "v_a"):\n'
                   '            expect = L * getattr(cov, name) * L.bar()')


def _one_wrong_slice(exp):
    # the middle slice of every result, the only one of a single operator,
    # off by 1e-6 in one entry
    def mutant(f):
        m = exp(f).matrix.copy()
        stack = m.reshape(-1, 8, 8)
        stack[len(stack) // 2, 0, 0] += 1e-6
        return RealLinearOp(m)
    return mutant


def _nan_rapidity_in_draw(k):
    # the k-th Lorentz draw has a NaN rapidity
    def mutant(draw):
        calls = []

        def poisoned(rng):
            calls.append(None)
            axis, angle, boost_axis, rapidity = draw(rng)
            return axis, angle, boost_axis, math.nan if len(calls) == k else rapidity
        return poisoned
    return mutant


@pytest.mark.parametrize("original,mutant,suite_id", [
    (lorentz.action_factors, _b_left_factor_l, "lanczos.symbol_covariance"),
    (lorentz.lorentz_draw, _nan_rapidity_in_draw(17), "lanczos.symbol_covariance"),
    (bilinears.covariance_characters, _bar_in_the_transition_law, "covariants.characters"),
    (lorentz.action_factors, _b_factors_of_row_one, "covariants.amplitude"),
    (linops.op_exp, _one_wrong_slice, "operators.exponential"),
], ids=["symbol_covariance-b_left_factor_l", "symbol_covariance-nan_rapidity",
        "characters-bar_in_the_transition_law", "amplitude-b_factors_of_row_one",
        "exponential-one_wrong_slice"])
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_mutant_fails_the_batched_float_suite(monkeypatch, original, mutant, suite_id):
    # each sweep is one stack, so one wrong sample must still fail it
    _rebind_everywhere(monkeypatch, original, mutant(original))
    row = _fail_row(suite_id)
    assert math.isnan(row.max_residual) or row.max_residual > 1e-9


def _random_bq(rng):
    return Biquaternion(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)))


def _symbol_covariance_loop(rng):
    ls = []
    for _ in range(50):
        ls.append(lorentz.random_lorentz(rng))
        for row in lorentz.ROWS:
            _random_bq(rng)
            if row == "zero":
                complex(rng.gauss(0, 1), rng.gauss(0, 1))
            else:
                _random_bq(rng)
    return ls


def _characters_loop(rng):
    for _ in range(5):
        _random_bq(rng), _random_bq(rng)
    return [lorentz.random_lorentz(rng) for _ in range(5)]


def _amplitude_loop(rng):
    ls = []
    for _ in range(10):
        ls.append(lorentz.random_lorentz(rng))
        _random_bq(rng), _random_bq(rng)
    return ls


@pytest.mark.parametrize("suite_id,loop", [
    ("lanczos.symbol_covariance", _symbol_covariance_loop),
    ("covariants.characters", _characters_loop),
    ("covariants.amplitude", _amplitude_loop),
])
def test_a_batched_suite_samples_the_points_of_its_single_draw_loop(
        monkeypatch, suite_id, loop):
    # the loop draws as the suite did one sample at a time: the stacked
    # suite must leave the generator in the same state and build the same
    # L (up to rounding: the loop multiplies Python complex numbers)
    seed = 5
    reference = harness._rng_for(seed, suite_id)
    singles = loop(reference)
    made = []
    make = lorentz.make_lorentz
    _rebind_everywhere(monkeypatch, make, lambda *draw: made.append(make(*draw)) or made[-1])
    spec = harness._REGISTRY[suite_id]
    rng = harness._rng_for(seed, suite_id)
    spec.fn(rng, harness.Check(spec.tol))
    assert rng.getstate() == reference.getstate()
    (stack,) = made
    for k, c in enumerate(stack.components()):
        assert np.allclose(np.ravel(c), [l.components()[k] for l in singles], rtol=0, atol=1e-15)


def test_the_batched_exponential_suite_draws_the_matrices_of_its_single_draw_loop(monkeypatch):
    reference = harness._rng_for(5, "operators.exponential")
    singles = [[[reference.uniform(-1.5, 1.5) for _ in range(8)] for _ in range(8)]
               for _ in range(10)]
    seen = []
    exp = linops.op_exp
    _rebind_everywhere(monkeypatch, exp, lambda f: seen.append(f.to_numpy()) or exp(f))
    spec = harness._REGISTRY["operators.exponential"]
    rng = harness._rng_for(5, "operators.exponential")
    spec.fn(rng, harness.Check(spec.tol))
    assert rng.getstate() == reference.getstate()
    assert np.array_equal(seen[0], singles)


@pytest.mark.parametrize("suite_id,original,calls", [
    ("lanczos.symbol_covariance", lorentz.make_lorentz, 1),
    ("covariants.characters", lorentz.make_lorentz, 1),
    ("covariants.amplitude", lorentz.make_lorentz, 1),
    ("operators.exponential", linops.op_exp, 4),
])
def test_a_batched_suite_evaluates_each_sweep_once(monkeypatch, suite_id, original, calls):
    # one call per stack, not one per sample
    made = []
    _rebind_everywhere(monkeypatch, original, lambda *args: made.append(1) or original(*args))
    (row,) = run(suite_id, seed=0)
    assert row.status == "pass"
    assert len(made) == calls


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


def test_cli_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    code = main(["--suite", FAST_GLOB, "--seed", "2", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 2
    assert main(["--suite", "no.match.anywhere"]) == 2
    # a tolerance that is not a finite number >= 0 is refused before any
    # suite runs: every comparison with nan fails, and any residual passes inf
    for tol in ("nan", "inf", "-1"):
        assert main(["--tol", tol]) == 2
    assert main(["--list"]) == 0
    # an unwritable report path is a configuration error, not a failed suite
    missing = tmp_path / "missing" / "report.json"
    assert main(["--suite", FAST_GLOB, "--out", str(missing)]) == 2
    assert not missing.parent.exists()
    # and it is found before any suite runs
    calls = []
    monkeypatch.setattr("bqspin.cli.run", lambda *args, **kwargs: calls.append(args))
    for bad in (missing, tmp_path):
        assert main(["--suite", FAST_GLOB, "--out", str(bad)]) == 2
    assert calls == []


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


# sha256 of `bqspin-verify --backend exact --seed 1 --format json`.  Exact
# values are canonical whatever order they were computed in, so a change to
# the arithmetic that keeps every value keeps this report byte for byte.  A
# change that means to alter the report updates the digest and says why.
EXACT_REPORT_SEED_1_SHA256 = "6412a988fd2d49ad608e560ff1d8a78297a78042fa1b1ef7a158e8db766755ba"


def test_exact_report_is_pinned():
    results = run("*", seed=1, backend="exact")
    assert len(results) == 27
    report = emit(results, fmt="json", seed=1, backend="exact")
    assert hashlib.sha256(report.encode()).hexdigest() == EXACT_REPORT_SEED_1_SHA256
