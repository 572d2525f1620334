"""Two published Mack examples: their increments, in the CLI's input
format, and the Mack figures that runoff and the literature, as recalled,
agree on.

Taylor-Ashe is the example of Mack (1993), ASTIN Bulletin 23(2), from
Taylor & Ashe (1983); RAA is the example of Mack (1994), CAS Forum
(Spring), and the R package ChainLadder's RAA, given there as cumulative
values. The printed tables are not cited: each figure is the value
runoff gives, rounded as the literature prints it (a unit for reserves
and standard errors, 0.1 for sigma, 3 decimals for factors), and it
equals the published figure as recalled. A figure found to differ from
a printed table is a finding to report, not a bound to loosen.

RAA holds one negative increment, row 2's -103 at development year 7,
and no negative cumulative cell, so validate and the CLI take it.
"""

from typing import NamedTuple


class Example(NamedTuple):
    """A published triangle (text, as a file holds it) and its figures: the
    total reserve, the total Mack standard error, the standard error of
    years 2..I, and the sigmas or the factors, where given."""

    text: str
    reserve_total: int
    se_total: int
    se_by_year: tuple
    sigma: tuple | None = None
    factors: tuple | None = None

    def rows(self) -> list:
        """The increments, one list of floats per accident year."""
        return [[float(x) for x in line.split(",")] for line in self.text.splitlines()[1:]]


TAYLOR_ASHE = Example(
    """I=10
357848,766940,610542,482940,527326,574398,146342,139950,227229,67948
352118,884021,933894,1183289,445745,320996,527804,266172,425046
290507,1001799,926219,1016654,750816,146923,495992,280405
310608,1108250,776189,1562400,272482,352053,206286
443160,693190,991983,769488,504851,470639
396132,937085,847498,805037,705960
440832,847631,1131398,1063269
359480,1061648,1443370
376686,986608
344014
""",
    reserve_total=18_680_856,
    se_total=2_447_095,
    se_by_year=(75_535, 121_699, 133_549, 261_406, 411_010, 558_317, 875_328, 971_258, 1_363_155),
    sigma=(400.4, 194.3, 204.9, 123.2, 117.2, 90.5, 21.1, 33.9, 21.1),
)

RAA = Example(
    """I=10
5012,3257,2638,898,1734,2642,1828,599,54,172
106,4179,1111,5270,3116,1817,-103,673,535
3410,5582,4881,2268,2594,3479,649,603
5655,5900,4211,5500,2159,2658,984
1092,8473,6271,6333,3786,225
1513,4932,5257,1233,2917
557,3463,6926,1368
1351,5596,6165
3133,2262
2063
""",
    reserve_total=52_135,
    se_total=26_909,
    se_by_year=(206, 623, 747, 1_469, 2_002, 2_209, 5_358, 6_333, 24_566),
    factors=(2.999, 1.624, 1.271, 1.172, 1.113, 1.042, 1.033, 1.017, 1.009),
)

EXAMPLES = {"taylor-ashe": TAYLOR_ASHE, "raa": RAA}
