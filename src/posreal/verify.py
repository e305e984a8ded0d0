"""The verification battery of ``posreal verify`` as one declared table, ``BATTERY``.

Each row appears once: its name, its kind (a "residual" passes at or
below its tolerance, a "margin" at or above it), that tolerance as a
function of the policy, and the function that computes the value from
the shared inputs of one run.  A refused computation is an error row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .calculus import accretive_positivity_check
from .cayley import disk_to_halfplane, inv_value_cayley, value_cayley
from .colligation import (AglerColligation, agler_identity_residual, colligation_from_kernel_samples,
                          spectrum_condition)
from .core import (DEFAULT_POLICY, PosrealError, TolerancePolicy, eigvalsh_or_refuse, hermitian_part,
                   psd_spectrum, relative_residual)
from .geometry import (AntiUnitaryInvolution, check_real_colligation, check_real_pencil,
                       four_quadrant_check, is_iota_real_function)
from .kernels import KernelEvaluator
from .pencil import RealizedFunction, as_evaluator
from .sampling import disk_grid, random_accretive_tuple

__all__ = ["UNRUNNABLE", "CheckRow", "VerificationReport", "Check", "BATTERY", "run_verification",
           "check_colligation"]


# finite sentinel recorded when a check cannot run at all (structural
# failure upstream); keeps every reported residual finite
UNRUNNABLE = 1e30


@dataclass
class CheckRow:
    name: str
    value: float
    tol: float
    passed: bool
    error: str | None = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "value": self.value, "tol": self.tol, "pass": self.passed}
        if self.error:
            out["error"] = self.error
        return out


@dataclass
class VerificationReport:
    seed: int
    grid_size: int
    checks: list = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return all(row.passed for row in self.checks)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "grid_size": self.grid_size,
            "checks": [row.as_dict() for row in self.checks],
            "verdict": self.verdict,
        }

    def print(self) -> None:
        for row in self.checks:
            status = "pass" if row.passed else "FAIL"
            note = f"  [{row.error}]" if row.error else ""
            print(f"{status:4s}  {row.name:32s} value={row.value:.3e} tol={row.tol:.3e}{note}")
        print(f"verdict: {'pass' if self.verdict else 'FAIL'}")


@dataclass(frozen=True)
class Check:
    """One declared row of the battery.

    ``applies`` says whether a run has the row.  ``loaded``, set on the
    rows that read a colligation alone, says whether the row counts
    toward the verdict on a loaded colligation c.
    """

    name: str
    kind: str  # "residual" or "margin"
    tol: Callable[[TolerancePolicy], float]
    compute: Callable
    applies: Callable = lambda run: True
    loaded: Callable[[AglerColligation], bool] | None = None

    def judge(self, value, pol: TolerancePolicy) -> CheckRow:
        tol = self.tol(pol)
        passed = value >= tol if self.kind == "margin" else value <= tol
        return CheckRow(self.name, float(value), float(tol), bool(passed))

    def run(self, inputs) -> CheckRow:
        try:
            return self.judge(self.compute(inputs), inputs.pol)
        except PosrealError as exc:
            value = -UNRUNNABLE if self.kind == "margin" else UNRUNNABLE
            return CheckRow(self.name, value, float(self.tol(inputs.pol)), False, error=str(exc))


def _attempt(build, *args):
    """``build(*args)``, or the ``PosrealError`` it raised, which each reader re-raises."""
    try:
        return build(*args)
    except PosrealError as exc:
        return exc


def _read(value):
    if isinstance(value, PosrealError):
        raise value
    return value


class _Run:
    """The shared inputs of one run, each computed once.

    zs is the Cayley image of the disk grid ws, so one d(z) solve gives
    f on zs (F on ws, the recovery target) and the phi tables there.  The
    kernel identity's (residual, R) is the samples' ``identity_gate``,
    formed here, right after them: its row reads the residual and the
    synthesis reads R, neither forming it again.  A failed evaluator or
    synthesis fails each row that reads it alike.
    """

    def __init__(self, f: RealizedFunction, seed: int, grid_size: int, pol: TolerancePolicy,
                 iota_u: AntiUnitaryInvolution | None, iota_h: AntiUnitaryInvolution | None):
        self.f, self.grid_size, self.pol = f, grid_size, pol
        if iota_u is not None and iota_h is None:
            iota_h = AntiUnitaryInvolution.conjugation(f.dim_h)
        self.iota_u, self.iota_h = iota_u, iota_h
        self.rng = np.random.default_rng(seed)
        kernels = _attempt(KernelEvaluator, f, pol)  # a psd_sqrt per coefficient
        self.ws = disk_grid(f.num_vars, grid_size, seed)
        self.zs = disk_to_halfplane(self.ws)
        if isinstance(kernels, PosrealError):
            self.samples = kernels
            self.vals = f(self.zs, pol)
        else:
            self.samples = kernels.phi_table(self.zs)
            self.vals = self.samples.f_samples
            # formed before any row runs, so the run's LAPACK calls keep their order
            self.samples.identity_gate
        self.scales = 1.0 + np.linalg.norm(self.vals, axis=(1, 2))
        self._synthesis = None

    def synthesis(self):
        """The colligation of the kernel rebuild from the samples' R, checked against S on ws."""
        if self._synthesis is None:
            self._synthesis = _attempt(lambda: colligation_from_kernel_samples(
                self.ws, _read(self.samples), value_cayley(self.vals, self.pol), self.pol))
        return _read(self._synthesis)


def _worst(gap, run: _Run) -> float:
    return float(np.max(np.linalg.norm(gap, axis=(1, 2)) / run.scales))


def _coefficients_psd(run: _Run) -> float:
    worst = 0.0
    for a in run.f.pencil.coeffs:
        spec = psd_spectrum(a, run.pol)  # an unchecked load may be non-Hermitian: no Hermitian test
        worst = max(worst, -spec.min_eig / spec.scale)
    return worst


def _homogeneity(run: _Run) -> float:
    lam = 0.5 + 1.5 * run.rng.random(len(run.zs))
    lam = lam * np.exp(1j * 2.0 * np.pi * run.rng.random(len(run.zs)))
    return _worst(run.f(lam[:, None] * run.zs, run.pol) - lam[:, None, None] * run.vals, run)


def _calculus_floor(run: _Run) -> float:
    worst = np.inf
    for _ in range(3):
        r = random_accretive_tuple(run.rng, run.f.num_vars, 3, pol=run.pol)
        worst = min(worst, accretive_positivity_check(run.f, r, run.pol)[1])
    return worst


def _iota_real_colligation(run: _Run) -> float:
    c = run.synthesis().colligation
    iota_x = AntiUnitaryInvolution.conjugation(c.dim_state)
    return float(check_real_colligation(c, iota_x, run.iota_u, run.pol))


BATTERY = (
    Check("pencil-coefficients-psd", "residual", lambda pol: pol.psd_slack, _coefficients_psd),
    Check("homogeneity", "residual", lambda pol: pol.residual_tol, _homogeneity),
    Check("conjugate-symmetry", "residual", lambda pol: pol.residual_tol,
          lambda run: _worst(run.f(run.zs.conj(), run.pol) - run.vals.conj().transpose(0, 2, 1), run)),
    Check("positivity-min-re-eigenvalue", "margin", lambda pol: -pol.psd_slack,
          lambda run: float(np.min(eigvalsh_or_refuse(hermitian_part(run.vals))[:, 0] / run.scales))),
    Check("kernel-identity", "residual", lambda pol: pol.residual_tol,
          lambda run: _read(run.samples).identity_gate[0]),
    Check("four-quadrant-conditions", "margin", lambda pol: 1.0,
          lambda run: float(four_quadrant_check(as_evaluator(run.f, run.pol), run.f.num_vars, run.rng,
                                                samples=run.grid_size, pol=run.pol))),
    Check("calculus-positivity-min-eig", "margin", lambda pol: -pol.psd_slack, _calculus_floor),
    Check("colligation-unitarity", "residual", lambda pol: pol.residual_tol,
          lambda run: run.synthesis().unitarity_residual, loaded=lambda c: True),
    Check("colligation-selfadjointness", "residual", lambda pol: pol.residual_tol,
          lambda run: run.synthesis().selfadjointness_residual, loaded=lambda c: c.selfadjoint),
    Check("colligation-transfer-match", "residual", lambda pol: pol.residual_tol,
          lambda run: run.synthesis().interpolation_residual),
    Check("colligation-spectrum-margin", "margin", lambda pol: pol.margin,
          lambda run: spectrum_condition(run.synthesis().colligation, run.pol)[1], loaded=lambda c: True),
    Check("inverse-double-cayley-recovery", "residual", lambda pol: pol.residual_tol,
          lambda run: relative_residual(inv_value_cayley(run.synthesis().values, run.pol), run.vals)),
    Check("iota-real-pencil", "margin", lambda pol: 1.0,
          lambda run: float(check_real_pencil(run.f, run.iota_u, run.iota_h, run.pol)),
          applies=lambda run: run.iota_u is not None),
    Check("iota-real-function", "margin", lambda pol: 1.0,
          lambda run: float(is_iota_real_function(as_evaluator(run.f, run.pol), run.iota_u, run.zs,
                                                  run.pol)),
          applies=lambda run: run.iota_u is not None),
    Check("iota-real-colligation", "margin", lambda pol: 1.0, _iota_real_colligation,
          applies=lambda run: (run.iota_u is not None
                               and not isinstance(_attempt(run.synthesis), PosrealError))),
)


def run_verification(f: RealizedFunction, seed: int = 0, grid_size: int = 25,
                     pol: TolerancePolicy = DEFAULT_POLICY,
                     iota_u: AntiUnitaryInvolution | None = None,
                     iota_h: AntiUnitaryInvolution | None = None) -> VerificationReport:
    """Full property battery for one realization: the rows of ``BATTERY`` that apply.

    Covers the desk-verifiable clauses of the equivalence package: PSD
    pencil validity, the kernel identity, homogeneity, symmetry,
    positivity and the four-quadrant conditions, calculus positivity on
    random accretive tuples, and the selfadjoint colligation roundtrip;
    realness checks run when an involution is supplied.
    """
    run = _Run(f, seed, grid_size, pol, iota_u, iota_h)
    report = VerificationReport(seed=seed, grid_size=grid_size)
    report.checks = [check.run(run) for check in BATTERY if check.applies(run)]
    return report


def check_colligation(c: AglerColligation, ws, pol: TolerancePolicy = DEFAULT_POLICY):
    """(rows, identity, verdict) of ``colligate --colligation`` on a loaded colligation c.

    ``rows`` are the battery's rows that read a colligation alone, in
    table order, measured on U.  ``identity`` is the (plus, minus) pair
    of Agler identity residuals on the disk points ws when c is asserted
    selfadjoint, else None; only then do selfadjointness and the
    identities count toward the verdict.
    """
    measured = SimpleNamespace(colligation=c, unitarity_residual=c.unitarity_residual(),
                               selfadjointness_residual=c.selfadjointness_residual())
    inputs = SimpleNamespace(synthesis=lambda: measured, pol=pol)
    checks = [check for check in BATTERY if check.loaded is not None]
    rows = [check.judge(check.compute(inputs), pol) for check in checks]
    verdict = all(row.passed for row, check in zip(rows, checks) if check.loaded(c))
    identity = agler_identity_residual(c, ws, pol) if c.selfadjoint else None
    return rows, identity, verdict and (identity is None or max(identity) <= pol.residual_tol)
