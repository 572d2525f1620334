"""Reference values for the bundled Belgian triangle, recorded to 4 decimals.

Ragged rows follow the observed region: row k holds columns j = 1..I-k+1.
"""

RESERVE_AY8 = 226_403_952
RESERVE_TOTAL = 1_463_388_942
RMSE_AY8 = 9_448_925
RMSE_TOTAL = 45_480_914

IF_RESERVE_TOTAL_1_1 = -1.3875
IF_RESERVE_TOTAL_1_10 = 9.3050

# IF_{k,j} of the year-8 reserve
IMPACT_RESERVE_AY8 = [
    [-0.1762, -0.1762, -0.1762, 0.0649, 0.0955, 0.1346, 0.1961, 0.2899, 0.4679, 0.9748],
    [-0.1479, -0.1479, -0.1479, 0.0932, 0.1238, 0.1628, 0.2244, 0.3182, 0.4962],
    [-0.1262, -0.1262, -0.1262, 0.1149, 0.1455, 0.1845, 0.2461, 0.3398],
    [-0.1067, -0.1067, -0.1067, 0.1344, 0.1650, 0.2040, 0.2656],
    [-0.0878, -0.0878, -0.0878, 0.1533, 0.1839, 0.2229],
    [-0.0667, -0.0667, -0.0667, 0.1744, 0.2050],
    [-0.0394, -0.0394, -0.0394, 0.2017],
    [0.8037, 0.8037, 0.8037],
    [0.0, 0.0],
    [0.0],
]

# IF_{k,j} of the year-8 reserve's root mean squared error
IMPACT_RMSE_AY8 = [
    [0.0863, 0.0863, 0.0863, -0.0318, -0.0468, -0.0659, -0.0960, -0.1419, -0.2291, -0.4773],
    [0.0724, 0.0724, 0.0724, -0.0456, -0.0606, -0.0797, -0.1099, -0.1558, -0.2429],
    [0.0618, 0.0618, 0.0618, -0.0562, -0.0712, -0.0903, -0.1205, -0.1664],
    [0.0522, 0.0522, 0.0522, -0.0658, -0.0808, -0.0999, -0.1300],
    [0.0430, 0.0430, 0.0430, -0.0751, -0.0900, -0.1092],
    [0.0327, 0.0327, 0.0327, -0.0854, -0.1004],
    [0.0193, 0.0193, 0.0193, -0.0988],
    [0.0208, 0.0208, 0.0208],
    [0.0, 0.0],
    [0.0],
]

# IF_{k,j} of the 99.5% quantile of the lognormal total-reserve fit.
# Derived by the oracle, not by impact_quantile: each value is the
# `numeric` column of verify_quantile_impacts(belgian, 0.995) rounded to
# 4 dp, i.e. one complex step of the quantile map, its reserve and MSE
# arguments stepped with the total reserve and with the total's frozen
# MSE, the MSE with the coefficients impact_mse_total holds fixed frozen
# at the baseline. The hand chain of the map's two partials and the
# central differences the oracle used before round to the same 55 values.
# The MSE-total impact has no reference table of its own and its oracle
# steps the frozen MSE that impact_mse_total is the gradient of, so this
# table also fixes impact_mse_total on the bundled triangle.
IMPACT_QUANTILE_995 = [
    [-0.9761, -0.7198, -0.5064, -0.2924, -0.0581, 0.2372, 0.6981, 1.4126, 2.7622, 6.7779],
    [-0.7275, -0.4711, -0.2577, -0.0437, 0.1906, 0.4858, 0.9468, 1.6613, 3.0109],
    [-0.5228, -0.2665, -0.0530, 0.1610, 0.3952, 0.6905, 1.1515, 1.8659],
    [-0.3553, -0.0990, 0.1144, 0.3284, 0.5627, 0.8580, 1.3189],
    [-0.1872, 0.0691, 0.2826, 0.4966, 0.7308, 1.0261],
    [0.0081, 0.2645, 0.4779, 0.6919, 0.9262],
    [0.2652, 0.5215, 0.7349, 0.9489],
    [0.6484, 0.9047, 1.1182],
    [1.3375, 1.5938],
    [3.2280],
]
