"""The census's contradicted counts, pinned as a ratchet.

A change that makes a certificate agree with the exact dynamics lowers its
count here with it; no change may raise one.  ``tests/census.py`` prints the
rows behind them.
"""

import census

CONTRADICTED = {"lifetime": 5, "criterion_1d": 0}


def test_contradicted_counts():
    rows = census.census()
    by_output = census.counts(rows)
    assert {output: by_class["contradicted"] for output, by_class in by_output.items()} == CONTRADICTED
    # every lifetime K that certifies a revolution (0.02 to 0.12) overshoots
    # the exact time; from K = 0.15 on none is certified
    assert by_output["lifetime"] == {"agrees": 0, "contradicted": 5, "not covered": 9}
    assert by_output["criterion_1d"] == {"agrees": 300, "contradicted": 0, "not covered": 0}
    # the control decides both ways: 187 starts smooth, 113 breaking
    assert sum(row.printed for row in rows if row.output == "criterion_1d") == 187


def test_lifetime_at_the_smallest_pulse():
    row = census.lifetime_rows()[0]
    assert row.case == "K=0.02 n=5" and row.verdict == "contradicted"
    assert abs(row.printed - 31.416146) < 1e-6 and abs(row.exact - 31.414821) < 1e-6
