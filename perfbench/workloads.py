"""The three workloads and the known-answer table of every suite.

The table is written from the paper and its acceptance tolerances, not
from a stored report: each suite's expected verdict, its backend, the
tolerance its residual must meet (exact suites: exactly 0.0) and, for the
witness suites, the margin the counterexample must exceed.  Every suite of
the registry belongs to exactly one workload; ``check_split`` refuses to
run if a suite is missing from the table or the table names a suite the
registry does not have.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ALGEBRA_EXACT = "algebra_exact"
FIELD_IDENTITIES = "field_identities"
FLOAT_SWEEPS = "float_sweeps"
WORKLOAD_NAMES = (ALGEBRA_EXACT, FIELD_IDENTITIES, FLOAT_SWEEPS)

# A witness must beat its threshold: the size of the counterexample, read
# either from the residual column or from a key of the witness payload.
WITNESS_MARGIN = 1e-3


@dataclass(frozen=True)
class Expect:
    workload: str
    anchor: str
    backend: str              # exact | float
    kind: str                 # identity | witness
    tol: float                # residual bound; 0.0 means exactly zero
    margin_key: str | None = None   # payload key holding the witness margin
    payload: dict | None = None     # payload entries the report must carry


def _exact(workload, anchor):
    return Expect(workload, anchor, "exact", "identity", 0.0)


def _float(anchor, tol):
    return Expect(FLOAT_SWEEPS, anchor, "float", "identity", tol)


KNOWN_ANSWERS = {
    # Hamilton product and the involutions, 10^4-sample exact sweeps
    "algebra.associativity": _exact(ALGEBRA_EXACT, "eq.A.1"),
    "algebra.conjugation_laws": _exact(ALGEBRA_EXACT, "eq.A.4"),
    "algebra.hamilton_table": _exact(ALGEBRA_EXACT, "eq.A.2"),
    "algebra.norm_multiplicativity": _exact(ALGEBRA_EXACT, "eq.A.1"),
    "algebra.reversal": _exact(ALGEBRA_EXACT, "eq.A.2"),
    "peirce.idempotents": _exact(ALGEBRA_EXACT, "footnote.7"),
    "peirce.roundtrip": _exact(ALGEBRA_EXACT, "eq.8"),
    # exact field calculus: nabla, Dirac-Lanczos, covariants, Proca, RS
    "nabla.selection": _exact(FIELD_IDENTITIES, "eq.17"),
    "dirac.nullspace": _exact(FIELD_IDENTITIES, "eq.15"),
    "dirac.klein_gordon": _exact(FIELD_IDENTITIES, "eq.12"),
    "dirac.current": _exact(FIELD_IDENTITIES, "eq.16"),
    "dirac.doublet": _exact(FIELD_IDENTITIES, "eq.11"),
    "lanczos.free_solutions": _exact(FIELD_IDENTITIES, "eq.10"),
    "covariants.singular_pair": _exact(FIELD_IDENTITIES, "eq.41"),
    "covariants.current_conservation": _exact(FIELD_IDENTITIES, "eq.34"),
    "covariants.divergences": _exact(FIELD_IDENTITIES, "eq.45"),
    "covariants.lagrangian": _exact(FIELD_IDENTITIES, "eq.39"),
    "proca.tensor_equivalence": _exact(FIELD_IDENTITIES, "eq.A.8"),
    "proca.maxwell_limit": _exact(FIELD_IDENTITIES, "footnote.13"),
    "rs.identities": _exact(FIELD_IDENTITIES, "eq.19"),
    "rs.commutator": _exact(FIELD_IDENTITIES, "eq.21"),
    "rs.dual_tensor": _exact(FIELD_IDENTITIES, "eq.22"),
    "rs.free_system": _exact(FIELD_IDENTITIES, "eq.18"),
    "rs.contraction_chain": _exact(FIELD_IDENTITIES, "eq.25"),
    "rs.g1_chain": _exact(FIELD_IDENTITIES, "eq.30"),
    "rs.constraint_counting": Expect(FIELD_IDENTITIES, "eq.18", "exact", "identity", 0.0,
                                     payload={"after_constraints": 16, "solution_dim": 8}),
    # eq.23 fails in an external field: the extra constraint is nonzero
    "rs.extra_constraint": Expect(FIELD_IDENTITIES, "eq.23", "exact", "witness",
                                  0.0, "residual_norm_at_sample_point"),
    # floating-point sweeps at their stated tolerances
    "table1.su2_commutators": _float("table.1", 1e-12),
    "table1.casimir": _float("table.1", 1e-12),
    "table1.eigenstates": _float("eq.47", 1e-12),
    "rotations.half_closed_form": _float("eq.4", 1e-10),
    "rotations.one_closed_form": _float("eq.5", 1e-10),
    "rotations.periodicity": _float("eq.6", 1e-10),
    "rotations.boost": _float("footnote.8", 1e-12),
    "products.low_spin_matrix": _float("eq.1", 1e-10),
    "products.l32_matrix": _float("eq.2", 1e-10),
    "lorentz.group_actions": _float("eq.A.5", 1e-11),
    "lorentz.subspaces": _float("table.2", 1e-9),
    "l32.nu_rotation_closure": _float("eq.48", 1e-12),
    "lanczos.symbol_covariance": _float("eq.13", 1e-10),
    "covariants.characters": _float("eq.37", 1e-12),
    "covariants.amplitude": _float("eq.40", 1e-12),
    "operators.exponential": _float("eq.6", 1e-12),
    # eq.3: the spin-3/2 Minkowski product is not rotation invariant, while
    # the unitary product stays invariant to 1e-10
    "products.three_half_matrix": Expect(FLOAT_SWEEPS, "eq.3", "float", "witness",
                                         1e-10, "minkowski_violation_margin"),
    # eq.48: two generic boosts leave the L_{3/2} family; the residual is
    # the best-fit defect
    "l32.boost_counterexample": Expect(FLOAT_SWEEPS, "eq.48", "float", "witness",
                                       0.0, "defect"),
}

# rs.constraint_counting at the on-shell momentum p = (5; 3, 0, 0), m = 4:
# 32 real amplitudes, two constraint groups of rank 8 each, 16 left after
# the constraints and an 8-dimensional space of plane-wave solutions.
COUNTING_MOMENTUM = (Fraction(5), (Fraction(3), Fraction(0), Fraction(0)), Fraction(4))
COUNTING_EXPECTED = {"total_real_dim": 32, "constraint_ranks": (8, 8),
                     "after_constraints": 16, "solution_dim": 8}


def suites_of(workload):
    return sorted(sid for sid, e in KNOWN_ANSWERS.items() if e.workload == workload)


def check_split(registered):
    """Raise ValueError unless the table covers the registry exactly once."""
    registered = set(registered)
    missing = sorted(registered - set(KNOWN_ANSWERS))
    unknown = sorted(set(KNOWN_ANSWERS) - registered)
    if missing or unknown:
        raise ValueError(f"workload split out of date: suites without a workload "
                         f"{missing}, workload suites not registered {unknown}")


def expected_status(expect):
    return "witness" if expect.kind == "witness" else "pass"


def check_row(row, expect):
    """Problems with one report row against its known answer (empty if none)."""
    sid = row["suite_id"]
    problems = []
    want_status = expected_status(expect)
    if row["status"] != want_status:
        problems.append(f"{sid}: status {row['status']!r}, expected {want_status!r}")
    if row["backend"] != expect.backend:
        problems.append(f"{sid}: backend {row['backend']!r}, expected {expect.backend!r}")
    if row["paper_anchor"] != expect.anchor:
        problems.append(f"{sid}: anchor {row['paper_anchor']!r}, expected {expect.anchor!r}")
    residual = row["max_residual"]
    if expect.kind == "identity":
        if expect.backend == "exact" and residual != 0.0:
            problems.append(f"{sid}: exact residual {residual!r} is not 0.0")
        if not 0.0 <= residual <= expect.tol:
            problems.append(f"{sid}: residual {residual!r} above tolerance {expect.tol}")
    else:
        payload = row["witness_payload"] or {}
        margin = payload.get(expect.margin_key)
        if not isinstance(margin, (int, float)) or not margin > WITNESS_MARGIN:
            problems.append(f"{sid}: witness margin {expect.margin_key}={margin!r} "
                            f"does not exceed {WITNESS_MARGIN}")
        if expect.tol and not 0.0 <= residual <= expect.tol:
            problems.append(f"{sid}: residual {residual!r} above tolerance {expect.tol}")
    for key, want in (expect.payload or {}).items():
        got = (row["witness_payload"] or {}).get(key)
        if got != want:
            problems.append(f"{sid}: payload {key}={got!r}, expected {want!r}")
    return problems


def check_counting(out):
    got = {key: out[key] for key in COUNTING_EXPECTED}
    if got != COUNTING_EXPECTED:
        return [f"rs.constraint_counting: {got}, expected {COUNTING_EXPECTED}"]
    return []
