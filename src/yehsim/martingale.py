"""Drift-based martingale classification of running Wiener integrals.

Conditioning on the past reduces to the independence of later increments:
E[M(t) | F_s] - M(s) equals the integral of f against d(lambda) over [s, t].
The filtration is never materialized; classification is exact via that drift
formula (funcspace.stieltjes_integral), with Monte Carlo only as a
cross-check, which draws M(t) - M(s) as the integral of the step cut to
[s, t] (StepFunction.restrict).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import OutOfDomainError
from .funcspace import StepFunction, as_integrand, step_cells, stieltjes_integral
from .process import YehSpec, increment_functionals
from .stats import MCEstimate, mc_from_samples
from .stieltjes import DEFAULT_RESOLUTION, MeanFunction

#: Drifts within this are treated as zero by the classifier.
DRIFT_TOL = 1e-12

MARTINGALE = "martingale"
SUBMARTINGALE = "submartingale"
SUPERMARTINGALE = "supermartingale"
NEITHER = "neither"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class MartingaleVerdict:
    """Classification with witnesses (s, t, drift) backing a 'neither' verdict."""

    verdict: str
    witnesses: tuple = ()

    def to_json(self) -> str:
        return json.dumps({
            "verdict": self.verdict,
            "witnesses": [
                {"s": s, "t": t, "drift": d} for (s, t, d) in self.witnesses
            ],
        })


def conditional_increment_mean(f, lam: MeanFunction, s: float, t: float,
                               resolution: int = DEFAULT_RESOLUTION) -> float:
    """E[M(t) | F_s] - M(s): the integral of f against d(lambda) over [s, t].

    Exact closed form for step integrands; quadrature otherwise.  Additive
    over adjacent intervals.
    """
    a, b = lam.interval.a, lam.interval.b
    if not (a <= s <= t <= b):
        raise OutOfDomainError(f"need {a} <= s <= t <= {b}, got s={s}, t={t}")
    return stieltjes_integral(f, lam, s, t, resolution)


def classify(f, lam: MeanFunction, probes,
             resolution: int = DEFAULT_RESOLUTION) -> MartingaleVerdict:
    """Classify the running integral of f as a (sub/super)martingale.

    Probe pairs showing strictly positive and strictly negative drifts prove
    'neither' outright, with both probes as witnesses.  Otherwise the verdict
    needs a sign certificate on f and a monotone drift: increasing lambda with
    nonnegative f gives a submartingale, and flipping either sign flips the
    verdict; zero total drift mass gives a martingale.  Without certificates
    the probes alone are inconclusive and the verdict is 'undetermined'.
    """
    f = as_integrand(f)
    drifts = [(float(s), float(t),
               conditional_increment_mean(f, lam, s, t, resolution))
              for s, t in probes]
    positive = [w for w in drifts if w[2] > DRIFT_TOL]
    negative = [w for w in drifts if w[2] < -DRIFT_TOL]
    if positive and negative:
        worst_pos = max(positive, key=lambda w: w[2])
        worst_neg = min(negative, key=lambda w: w[2])
        return MartingaleVerdict(NEITHER, (worst_neg, worst_pos))
    direction = lam.monotone_direction
    if f.sign is None or direction is None:
        return MartingaleVerdict(UNDETERMINED, tuple(positive + negative))
    if f.sign == 0 or direction == 0:
        return MartingaleVerdict(MARTINGALE)
    total = conditional_increment_mean(f, lam, lam.interval.a, lam.interval.b,
                                       resolution)
    if abs(total) <= DRIFT_TOL:
        return MartingaleVerdict(MARTINGALE)
    if f.sign * direction > 0:
        return MartingaleVerdict(SUBMARTINGALE, tuple(positive))
    return MartingaleVerdict(SUPERMARTINGALE, tuple(negative))


def mc_martingale_test(spec: YehSpec, f: StepFunction, s: float, t: float,
                       count: int, seed: int, first_index: int = 0) -> MCEstimate:
    """Monte Carlo estimate of E[M(t) - M(s)] over `count` paths.

    M(t) - M(s) is the integral of f.restrict(s, t).  Later increments are
    independent of the past, so this unconditional mean must agree with
    conditional_increment_mean within Monte Carlo error.
    """
    if count < 100:
        raise ValueError("need at least 100 paths")
    a, b = spec.interval.a, spec.interval.b
    if not (a <= s < t <= b):
        raise OutOfDomainError(f"need {a} <= s < t <= {b}, got s={s}, t={t}")
    cells = step_cells([f.restrict(s, t)], spec.interval)
    samples = increment_functionals(spec, *cells, seed, count, first_index)[:, 0]
    return mc_from_samples(samples, seed=seed, first_index=first_index)

