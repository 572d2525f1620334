"""An exact second reference for the reserve impacts: forward-mode duals
over decimal at 60 digits.

A Dual carries a number and its derivative in one direction, both
Decimals, through +, -, * and /, which is all the chain-ladder and
Bornhuetter-Ferguson reserves need. reference() makes one pass per
observed cell, its increment seeded with derivative 1 and every other
with 0: it cumulates the increments, sums the columns into A_s and B_s,
divides them into f_s, multiplies F_i = f_{I-i+1} ... f_{I-1}, and takes
every year's reserve L_i F_i - L_i and BF reserve mu_i - mu_i / F_i, the
priors mu frozen, and both totals. It reads nothing of runoff: not its
fitted sums, its chain rule from them to the cells (impact._effects) nor
its Fit. The doubles it starts from convert to Decimal exactly, so its
only error is the rounding at 60 digits, far below a double's.
"""

from __future__ import annotations

import decimal
import itertools
import operator
from decimal import Decimal
from typing import NamedTuple

import numpy as np

CONTEXT = decimal.Context(prec=60)
ZERO, ONE = Decimal(0), Decimal(1)


class Dual:
    """value + derivative * eps, eps^2 = 0, each rounded to CONTEXT."""

    __slots__ = ("value", "derivative")

    def __init__(self, value: Decimal, derivative: Decimal = ZERO):
        self.value, self.derivative = value, derivative

    def __add__(self, other: Dual) -> Dual:
        return Dual(CONTEXT.add(self.value, other.value), CONTEXT.add(self.derivative, other.derivative))

    def __sub__(self, other: Dual) -> Dual:
        return Dual(CONTEXT.subtract(self.value, other.value),
                    CONTEXT.subtract(self.derivative, other.derivative))

    def __mul__(self, other: Dual) -> Dual:
        derivative = CONTEXT.add(CONTEXT.multiply(self.derivative, other.value),
                                 CONTEXT.multiply(self.value, other.derivative))
        return Dual(CONTEXT.multiply(self.value, other.value), derivative)

    def __truediv__(self, other: Dual) -> Dual:
        quotient = CONTEXT.divide(self.value, other.value)
        derivative = CONTEXT.subtract(self.derivative, CONTEXT.multiply(quotient, other.derivative))
        return Dual(quotient, CONTEXT.divide(derivative, other.value))


class Reference(NamedTuple):
    """The exact statistics, each rounded to a double once: the per-year
    reserves and BF reserves, (I,), their totals, and the derivatives over
    every observed cell of each, named after the runoff.impact function
    that computes them: (I, I, I) indexed [i-1, k-1, j-1] per year, (I, I)
    for a total, NaN off the observed cells."""

    reserves: np.ndarray
    reserve_total: float
    bf: np.ndarray
    bf_total: float
    impact_reserve_ay: np.ndarray
    impact_reserve_total: np.ndarray
    impact_bf_ay: np.ndarray
    impact_bf_total: np.ndarray


def _sum(duals: list) -> Dual:
    return sum(duals[1:], duals[0])


def _statistics(x: list, mu: list) -> list:
    """The I reserves, their total, the I BF reserves and their total, as
    Duals, of the increments x (ragged rows of Duals) under the priors mu."""
    dim = len(x)
    cum = [list(itertools.accumulate(row)) for row in x]
    f = [_sum([c[s] for c in cum[: dim - s]]) / _sum([c[s - 1] for c in cum[: dim - s]]) for s in range(1, dim)]
    fprod = list(itertools.accumulate(reversed(f), operator.mul, initial=Dual(ONE)))  # F_1 = 1, F_2 = f_{I-1}, ...
    reserves = [row[-1] * big - row[-1] for row, big in zip(cum, fprod)]
    bf = [prior - prior / big for prior, big in zip(mu, fprod)]
    return [*reserves, _sum(reserves), *bf, _sum(bf)]


def reference(rows: list, priors) -> Reference:
    """The exact reserves and BF reserves of the incremental rows (row i
    holds I - i + 1 doubles) under the frozen priors (I doubles), and their
    derivatives over every observed increment, one Dual pass per cell."""
    dim = len(rows)
    values = [[Decimal(float(v)) for v in row] for row in rows]
    mu = [Dual(Decimal(float(m))) for m in priors]
    grads = np.full((2 * dim + 2, dim, dim), np.nan)
    for k, row in enumerate(values):
        for j in range(len(row)):
            x = [[Dual(v, ONE if (n, c) == (k, j) else ZERO) for c, v in enumerate(r)] for n, r in enumerate(values)]
            stats = _statistics(x, mu)
            grads[:, k, j] = [float(d.derivative) for d in stats]
    got = np.array([float(d.value) for d in stats])
    return Reference(got[:dim], got[dim], got[dim + 1 : -1], got[-1],
                     grads[:dim], grads[dim], grads[dim + 1 : -1], grads[-1])
