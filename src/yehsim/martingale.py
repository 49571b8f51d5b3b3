"""Drift-based martingale classification of running Wiener integrals.

Conditioning on the past reduces to the independence of later increments:
E[M(t) | F_s] - M(s) equals the integral of f against d(lambda) over [s, t].
The filtration is never materialized; classification is exact via that drift
formula (funcspace.stieltjes_integral).  Its Monte Carlo cross-check is a
verify.moments_battery row: the mean of the integral of the step cut to
[s, t] (StepFunction.restrict).
"""

from __future__ import annotations

from dataclasses import dataclass

from .funcspace import StepFunction, stieltjes_integral
from .stieltjes import MeanFunction

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


def classify(f, lam: MeanFunction, probes) -> MartingaleVerdict:
    """Classify the running integral of f as a (sub/super)martingale.

    Probe pairs showing strictly positive and strictly negative drifts prove
    'neither' outright, with both probes as witnesses.  Otherwise the verdict
    needs the sign of f and a monotone drift: increasing lambda with
    nonnegative f gives a submartingale, and flipping either sign flips the
    verdict; zero total drift mass gives a martingale.  Only a StepFunction
    carries a sign (StepFunction.sign); for a callable f, or a mixed-sign
    step, the probes alone are inconclusive and the verdict is
    'undetermined'.
    """
    drifts = [(float(s), float(t), stieltjes_integral(f, lam, s, t)) for s, t in probes]
    positive = [w for w in drifts if w[2] > DRIFT_TOL]
    negative = [w for w in drifts if w[2] < -DRIFT_TOL]
    if positive and negative:
        worst_pos = max(positive, key=lambda w: w[2])
        worst_neg = min(negative, key=lambda w: w[2])
        return MartingaleVerdict(NEITHER, (worst_neg, worst_pos))
    direction = lam.monotone_direction
    sign = f.sign if isinstance(f, StepFunction) else None
    if sign is None or direction is None:
        return MartingaleVerdict(UNDETERMINED, tuple(positive + negative))
    if sign == 0 or direction == 0:
        return MartingaleVerdict(MARTINGALE)
    total = stieltjes_integral(f, lam)
    if abs(total) <= DRIFT_TOL:
        return MartingaleVerdict(MARTINGALE)
    if sign * direction > 0:
        return MartingaleVerdict(SUBMARTINGALE, tuple(positive))
    return MartingaleVerdict(SUPERMARTINGALE, tuple(negative))
