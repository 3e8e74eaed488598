"""Spectral regularization filters and their axiom audits.

Each filter is a scalar family phi_lambda approximating t -> 1/t, with
certified constants D >= sup|t*phi|, E >= sup lambda*|phi|,
c0 >= sup|1 - t*phi|, and a qualification nu bounding how fast the residual
can be traded against powers of t; estimator applies phi to an operator.
"""
from __future__ import annotations

import inspect
import json
import math
import sys

import numpy as np

from .features import call_checked, real_number, whole_number

AUDIT_SLACK = 1e-9
DEFAULT_Q_VALUES = (0.5, 1.0, 1.5, 2.0, 4.0)  # the grid specrf audit-filters measures


class DivergenceError(RuntimeError):
    """The step size is unstable for this Sigma_hat: the iteration would blow up."""


class SpectralFilter:
    """Immutable filter family; subclasses define the scalar function."""

    name: str = ""
    iterative: bool = False
    D: float = 1.0
    E: float = 1.0
    c0: float = 1.0
    qualification: float = 1.0

    def value(self, t, lam: float | None = None, iterations: int | None = None):
        """phi(t) at the (lambda, T) pair resolve(lam, iterations) gives; vectorized
        over t, continuous extension at t = 0."""
        lam, iterations = self.resolve(lam, iterations)
        return self._phi(np.asarray(t, dtype=float), lam, iterations)

    def _phi(self, t: np.ndarray, lam: float, iterations: int | None) -> np.ndarray:
        """Each kind's phi on a float array t, at a pair resolve has checked."""
        raise NotImplementedError

    def declared_cq(self, q: float) -> float | None:
        """Certified qualification constant for exponent q, or None."""
        return None

    def resolve(
        self, lam: float | None = None, iterations: int | None = None
    ) -> tuple[float, int | None]:
        """The (lambda, T) pair a fit with this filter uses.

        Give lam, iterations or both; this is the one home of the lambda <-> T
        rules. An iterative filter derives a missing T = max(1, ceil(1 / (alpha_eff
        lam))) or lambda = min(1, 1 / (alpha_eff T)); every other filter takes no T
        and gets None. lam must be a real number in (0, 1] and T an integer >= 1
        within the float range, where an integral float such as 64.0 counts; a lam
        whose T would be past the float range is refused.
        """
        if lam is None and iterations is None:
            raise ValueError("one of lam or iterations is required")
        if lam is not None:
            lam = real_number(lam, "lam")
        if iterations is not None:
            if not self.iterative:
                raise ValueError(f"filter {self.name} is not iterative and takes no iteration count")
            iterations = whole_number(iterations, "iterations")
            if iterations > sys.float_info.max:  # 1 / (alpha_eff T) would convert it to a float
                raise ValueError(f"iterations = {iterations} is past the float range")
        if lam is None:
            lam = min(1.0, 1.0 / (self.alpha_eff * iterations))
        if not 0.0 < lam <= 1.0:
            raise ValueError("lam must lie in (0, 1]")
        if self.iterative and iterations is None:
            scaled = self.alpha_eff * lam
            if scaled == 0.0 or 1.0 / scaled == math.inf:  # underflowed, or T = 1 / scaled overflows
                raise ValueError(f"lam = {lam!r} is too small for filter {self.name}: "
                                 "T = ceil(1 / (alpha_eff lam)) is past the float range")
            iterations = max(1, math.ceil(1.0 / scaled))
        return lam, iterations

    def descriptor(self) -> dict:
        """{"kind": name} plus each constructor parameter, the keys make_filter takes."""
        params = inspect.signature(type(self)).parameters
        return {"kind": self.name, **{key: getattr(self, key) for key in params}}


class Tikhonov(SpectralFilter):
    name = "tikhonov"

    def _phi(self, t, lam, iterations):
        return 1.0 / (t + lam)

    def declared_cq(self, q):
        # sup_t lambda^{1-q} t^q / (t+lambda) <= 1 holds only for q <= 1
        return 1.0


class SpectralCutoff(SpectralFilter):
    name = "spectral_cutoff"
    qualification = math.inf

    def _phi(self, t, lam, iterations):
        # t = lambda is included in the inverted region
        return np.where(t >= lam, 1.0 / np.maximum(t, lam), 0.0)

    def declared_cq(self, q):
        return 1.0


class IterativeFilter(SpectralFilter):
    iterative = True
    beta: float = 0.0  # momentum; only Heavyball takes one

    @property
    def alpha_eff(self) -> float:
        """The step size per iteration in the long run, alpha / (1 - beta)."""
        return self.alpha / (1.0 - self.beta)

    def iterations_for_lambda(self, lam: float) -> int:
        return self.resolve(lam)[1]

    def value_at_iterations(self, t, T: int):
        """phi_T(t), the T-step polynomial of the iteration started at 0 (as
        fit_iterative starts from theta = 0), so phi_0 = 0; T is checked as
        resolve checks value's T >= 1, and this is the one entry for T = 0."""
        T = whole_number(T, "T", least=0)
        return self._phi(np.asarray(t, dtype=float), None, T)

    def check_stable(self, norm: float) -> None:
        """Raise DivergenceError unless alpha * norm < 2 (1 + beta): the (momentum)
        iteration on a Sigma of spectral norm `norm` is stable iff it holds
        (Pagliana & Rosasco 2019), and both fit paths apply this one rule."""
        scaled, limit = self.alpha * norm, 2.0 * (1.0 + self.beta)
        if scaled >= limit:
            raise DivergenceError(
                f"step size {self.alpha} unstable: alpha * ||Sigma|| = {scaled:.3g} >= {limit:.3g}"
            )


class Landweber(IterativeFilter):
    name = "landweber"
    qualification = math.inf

    def __init__(self, alpha: float = 1.0):
        self.alpha = real_number(alpha, "landweber alpha")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("step size alpha must lie in (0, 1]")
        self.E = 1.0 + self.alpha

    def _phi(self, t, lam, T):
        # (1 - (1-alpha t)^T)/t; t=0 -> alpha*T
        out = np.full_like(t, float(self.alpha * T))
        # expm1/log1p avoids cancellation while alpha*t < 1; from 1 on the
        # base is nonpositive and the direct power is exact
        small = (t != 0) & (self.alpha * t < 1.0)
        big = self.alpha * t >= 1.0
        ts, tb = t[small], t[big]
        out[small] = -np.expm1(T * np.log1p(-self.alpha * ts)) / ts
        out[big] = (1.0 - (1.0 - self.alpha * tb) ** T) / tb
        return out

    def declared_cq(self, q):
        # t^q (1-alpha t)^T <= t^q exp(-alpha t T) <= (q/(e alpha T))^q <= (q lam / e)^q
        return max(1.0, (q / math.e) ** q)


class Heavyball(IterativeFilter):
    name = "heavyball"
    qualification = math.inf

    def __init__(self, alpha: float = 0.1, beta: float = 0.9):
        self.alpha = real_number(alpha, "heavyball alpha")
        self.beta = real_number(beta, "heavyball beta")
        if self.alpha <= 0:
            raise ValueError("step size alpha must be positive")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("momentum beta must lie in [0, 1)")
        if self.alpha_eff > 1.0 + 1e-12:
            raise ValueError(
                "effective step alpha/(1-beta) must be <= 1; reduce alpha or beta"
            )
        # conservative underdamped-oscillation envelope: |r_T| <= beta^{T/2}
        # (1 + T (1 + 1/sqrt(beta))); sup_T T beta^{T/2} = 2/(e ln(1/beta))
        if self.beta > 0:
            osc = 2.0 * (1.0 + 1.0 / math.sqrt(self.beta)) / (math.e * math.log(1.0 / self.beta))
            self.c0 = 1.0 + osc
        self.D = 1.0 + self.c0
        self.E = (1.0 + self.c0) * (1.0 + self.alpha_eff)

    def _phi(self, t, lam, T):
        # scalar shadow of the momentum iteration on a quadratic, from u_0 = u_{-1} = 0
        u_prev = u = np.zeros_like(t)
        for _ in range(T):
            u_prev, u = u, u + self.alpha * (1.0 - t * u) + self.beta * (u - u_prev)
        return u


# every filter kind, in the order specrf audit-filters reports them; make_filter builds only these
FILTERS = (Tikhonov, Landweber, Heavyball, SpectralCutoff)


def make_filter(kind: str | None = None, **kwargs) -> SpectralFilter:
    """Build a filter from its descriptor; a missing kind or a key it does not take is an error."""
    if kind is None:
        raise ValueError("filter is missing required keys: kind")
    cls = next((c for c in FILTERS if c.name == kind), None)
    if cls is None:
        raise ValueError(f"unknown filter kind {kind!r}")
    return call_checked(cls, kwargs, f"filter {kind}")


def qualification_sufficient(f: SpectralFilter, r: float) -> bool:
    """True iff the filter's qualification covers smoothness r.

    The rate analysis consumes the constants c_{r v 1} and c_{r + 1/2}, so
    the filter must satisfy nu >= max(1, r + 1/2).
    """
    return f.qualification >= max(1.0, 0.5 + r) - 1e-12


class AuditReport(dict):
    """One filter's audit, the record filter_audits.json holds: "filter" (its name),
    "constants_declared" and "constants_measured" (each {"D", "E", "c0"}),
    "qualification" (a list of {"q", "measured", "declared", "pass"}, where declared
    and pass are None when c_q is reported, not certified) and "pass"."""

    def to_json(self) -> str:
        """The record as JSON with sorted keys; kept for perfbench/child.py, which calls it."""
        return json.dumps(self, sort_keys=True)


def audit_filter(
    f: SpectralFilter,
    lam_grid: np.ndarray | None = None,
    q_values=DEFAULT_Q_VALUES,
) -> AuditReport:
    """Measure the axiom constants on a dense (t, lambda) grid: 200 log-spaced
    t in [1e-6, 1] against lam_grid, which defaults to 60 log-spaced lambdas.

    The report passes iff measured D, E, c0 stay within the declared
    constants and every certified q <= qualification does too.
    """
    t_grid = np.logspace(-6, 0, 200)
    if lam_grid is None:
        lam_grid = np.logspace(-4, 0, 60)
    lam_grid = np.asarray(lam_grid, dtype=float)
    if t_grid.size * lam_grid.size < 10_000:
        raise ValueError("audit grid must have at least 10^4 points")

    phi = np.array([f.value(t_grid, float(lam)) for lam in lam_grid])  # (lambda, t)
    tphi = t_grid * phi
    res = np.abs(1.0 - tphi)
    declared = {"D": f.D, "E": f.E, "c0": f.c0}
    measured = {
        "D": float(np.max(np.abs(tphi))),
        "E": float(np.max(lam_grid * np.max(np.abs(phi), axis=1))),
        "c0": float(np.max(res)),
    }
    all_pass = all(measured[key] <= declared[key] + AUDIT_SLACK for key in declared)
    entries = []
    for q in sorted({float(q) for q in q_values}):
        # lam**q is taken as a scalar power: numpy's vectorized power may round it otherwise
        value = float(np.max(np.max(res * t_grid**q, axis=1) / [lam**q for lam in lam_grid]))
        declared_q = f.declared_cq(q)
        ok = None if declared_q is None else value <= declared_q + AUDIT_SLACK
        entries.append({"q": q, "measured": value, "declared": declared_q, "pass": ok})
        if ok is not None and q <= f.qualification:
            all_pass = all_pass and ok
    return AuditReport({"filter": f.name, "constants_declared": declared,
                        "constants_measured": measured, "qualification": entries, "pass": all_pass})
