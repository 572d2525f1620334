"""An exact second reference for the reserve impacts and the Mack
statistics: forward-mode duals, and values, over decimal at 60 digits.

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

mack() takes the values alone, in one pass, with the same cumulation and
factors: Mack's sigma^2 with the min rule for the last, Mack's (1993)
two-reciprocal MSE of every year, the total MSE with its cross
covariances, and the lognormal quantile of the total reserve and MSE
through Decimal's ln, exp and sqrt. The normal quantile z_q is given as a
double, the one number it does not compute.
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


def _fitted(x: list) -> tuple:
    """The cumulated rows of the increments x (ragged rows of Duals), the
    column sums B_s over n <= I-s, the factors f_s, s = 1..I-1, and the
    products F_i = f_{I-i+1} ... f_{I-1} (F_1 = 1)."""
    dim = len(x)
    cum = [list(itertools.accumulate(row)) for row in x]
    den = [_sum([c[s - 1] for c in cum[: dim - s]]) for s in range(1, dim)]
    f = [_sum([c[s] for c in cum[: dim - s]]) / b for s, b in enumerate(den, 1)]
    fprod = list(itertools.accumulate(reversed(f), operator.mul, initial=Dual(ONE)))  # F_1 = 1, F_2 = f_{I-1}, ...
    return cum, den, f, fprod


def _statistics(x: list, mu: list) -> list:
    """The I reserves, their total, the I BF reserves and their total, as
    Duals, of the increments x (ragged rows of Duals) under the priors mu."""
    cum, _, _, fprod = _fitted(x)
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


class Mack(NamedTuple):
    """The exact Mack statistics, each rounded to a double once: sigma^2,
    (I-1,), the MSE of every year, (I,), the total MSE, and the lognormal
    quantile of the total reserve."""

    sigma2: np.ndarray
    mse_by_year: np.ndarray
    mse_total: float
    quantile: float


def mack(rows: list, z: float) -> Mack:
    """The exact Mack statistics of the incremental rows (I >= 4), the
    quantile at the standard normal quantile z.

    sigma^2_k, k <= I-2, is the sum of C_{i,k} (C_{i,k+1} / C_{i,k} - f_k)^2
    over i <= I-k, over I-k-1; the last is min(sigma^4_{I-2} / sigma^2_{I-3},
    sigma^2_{I-3}, sigma^2_{I-2}), 0/0 read as 0. With Chat_{i,k} the
    projection of C_{i,I-i+1} by f_{I-i+1} ... f_{k-1}, year i's MSE is
    Chat_{i,I}^2 times the sum over k >= I-i+1 of sigma^2_k / f_k^2 times
    (1 / Chat_{i,k} + 1 / B_k), and the total adds, per year i,
    Chat_{i,I} (the sum of Chat_{j,I} over j > i) times the sum over the same
    k of 2 sigma^2_k / (f_k^2 B_k). The quantile matches LN(m, s^2) to the
    total reserve R and total MSE: s^2 = ln(1 + MSE / R^2),
    m = ln R - s^2 / 2, and it is exp(m + z s)."""
    dim = len(rows)
    cum, den, f, fprod = _fitted([[Dual(Decimal(float(v))) for v in row] for row in rows])
    cum = [[d.value for d in row] for row in cum]
    den, f, fprod = ([d.value for d in part] for part in (den, f, fprod))
    with decimal.localcontext(CONTEXT):
        sigma2 = [sum(c[k - 1] * (c[k] / c[k - 1] - f[k - 1]) ** 2 for c in cum[: dim - k]) / (dim - k - 1)
                  for k in range(1, dim - 1)]
        a, b = sigma2[-2:]
        sigma2.append(min(b * b / a, a, b) if a > 0 else ZERO)
        ult = [row[-1] * big for row, big in zip(cum, fprod)]
        mse, weights = [], []  # weights: per year, the sum of 2 sigma^2_k / (f_k^2 B_k) over k ahead
        for i, row in enumerate(cum, 1):
            chat, two_reciprocal, weight = row[-1], ZERO, ZERO
            for k in range(dim - i + 1, dim):
                scale = sigma2[k - 1] / f[k - 1] ** 2
                two_reciprocal += scale * (1 / chat + 1 / den[k - 1])
                weight += 2 * scale / den[k - 1]
                chat *= f[k - 1]
            mse.append(ult[i - 1] ** 2 * two_reciprocal)
            weights.append(weight)
        total = sum(mse) + sum(u * sum(ult[i:]) * w for i, (u, w) in enumerate(zip(ult, weights), 1))
        reserve = sum(u - row[-1] for u, row in zip(ult, cum))
        s2 = (1 + total / reserve**2).ln()
        quantile = (reserve.ln() - s2 / 2 + Decimal(z) * s2.sqrt()).exp()
    return Mack(np.array([float(v) for v in sigma2]), np.array([float(v) for v in mse]), float(total),
                float(quantile))
