"""Multi-seed statistics: means, deviations, 90% confidence intervals.

The paper: "All measures were averaged over 25 runs [...] We computed 90%
confidence intervals but they were negligible". We reproduce the same
aggregation — Student-t confidence intervals over per-seed samples — so
EXPERIMENTS.md can report both the mean and the interval half-width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigurationError

#: Two-sided 90% Student-t quantiles, ``t(0.95, dof)`` for dof 1..30. A fixed
#: table keeps every committed ± column independent of the environment; the
#: ci scale's 2 seeds use dof 1 and the full scale's 25 seeds dof 24.
_T90 = (
    6.313751514675037, 2.9199855803537242, 2.3533634348018233,
    2.1318467863266495, 2.0150483733330233, 1.9431802805153042,
    1.8945786050900062, 1.8595480375308973, 1.833112932656237,
    1.8124611228116756, 1.7958848187040433, 1.782287555649319,
    1.7709333959868725, 1.761310135774891, 1.753050355692572,
    1.7458836762762495, 1.7396067260750725, 1.7340636066175388,
    1.7291328115213682, 1.7247182429207866, 1.720742902811878,
    1.7171443743802424, 1.713871527747048, 1.710882079909428,
    1.7081407612518986, 1.7056179197592727, 1.7032884457221265,
    1.7011309342659313, 1.6991270265334972, 1.697260886593957,
)


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean; raises on an empty sample set."""
    if not samples:
        raise ConfigurationError("mean of an empty sample set")
    return sum(samples) / len(samples)


def std(samples: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator); 0.0 for n < 2."""
    n = len(samples)
    if n < 2:
        return 0.0
    mu = mean(samples)
    return math.sqrt(sum((x - mu) ** 2 for x in samples) / (n - 1))


def confidence_half_width(samples: Sequence[float]) -> float:
    """Half-width of the two-sided 90% interval on the mean.

    Past 30 degrees of freedom the dof-30 quantile is used, which overstates
    the interval by under 3.2%.
    """
    n = len(samples)
    if n < 2:
        return 0.0
    return _T90[min(n - 1, len(_T90)) - 1] * std(samples) / math.sqrt(n)


@dataclass(frozen=True)
class Stats:
    """Summary of one metric across seeds."""

    mean: float
    std: float
    ci90: float
    n: int
    failures: int = 0

    def __str__(self) -> str:
        if self.n == 0:
            return "n/a"
        suffix = f" ({self.failures} failed)" if self.failures else ""
        return f"{self.mean:.1f} ±{self.ci90:.1f}{suffix}"


def summarize(samples: Sequence[Optional[float]]) -> Stats:
    """Aggregate per-seed samples, tolerating ``None`` (non-converged runs).

    ``None`` entries are counted as failures and excluded from the moments —
    the honest treatment for timeout runs (they would otherwise silently
    bias the mean toward the budget).
    """
    values = [float(x) for x in samples if x is not None]
    failures = len(samples) - len(values)
    if not values:
        return Stats(mean=float("nan"), std=0.0, ci90=0.0, n=0, failures=failures)
    return Stats(
        mean=mean(values),
        std=std(values),
        ci90=confidence_half_width(values),
        n=len(values),
        failures=failures,
    )
