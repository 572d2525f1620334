"""Run-off triangle reserving with per-cell sensitivity analysis.

Chain-ladder / Mack and Bornhuetter-Ferguson reserve statistics from
incremental claims triangles, plus closed-form impact functions (first
derivatives) of reserves, prediction MSEs, and lognormal reserve
quantiles with respect to every observed incremental cell. A
complex-step oracle cross-checks every analytic derivative. Each module
declares its public names in its __all__, re-exported here eagerly.
"""

from runoff import bornhuetter, chainladder, impact, oracle, quantile, triangle
from runoff.triangle import *  # noqa: F403
from runoff.chainladder import *  # noqa: F403
from runoff.bornhuetter import *  # noqa: F403
from runoff.impact import *  # noqa: F403
from runoff.quantile import *  # noqa: F403
from runoff.oracle import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (triangle, chainladder, bornhuetter, impact, quantile, oracle)
           for name in module.__all__]
