"""The census's contradicted counts, pinned as a ratchet.

A change that makes a certificate agree with the exact dynamics lowers its
count here with it; no change may raise one.  ``tests/census.py`` prints the
rows behind them.
"""

import census

CONTRADICTED = {"lifetime": 5, "criterion_1d": 0, "first_period": 23, "gauss_pulse": 4}


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
    # 5 of 111 admissible d = 2 starts and 18 of 66 d = 3 starts break
    # within their own period, the two examples among them
    assert by_output["first_period"] == {"agrees": 154, "contradicted": 23, "not covered": 0}
    broken = [row.case[:3] for row in rows if row.output == "first_period" and row.verdict == "contradicted"]
    assert (broken.count("d=2"), broken.count("d=3")) == (5, 18)
    # smooth 0.05 to 0.15 and none breaks; indeterminate 0.2 and 0.25; a
    # blow-up verdict from 0.29 on, where nothing breaks up to 0.4, and
    # from 0.45 on 6, 14, 20 and 22 of the 31 radii do
    pulses = [row for row in rows if row.output == "gauss_pulse"]
    assert [row.exact for row in pulses] == [0] * 9 + [6, 14, 20, 22]
    assert [row.verdict for row in pulses] == (["agrees"] * 3 + ["not covered"] * 2 + ["contradicted"] * 4
                                               + ["agrees"] * 4)


def test_lifetime_at_the_smallest_pulse():
    row = census.lifetime_rows()[0]
    assert row.case == "K=0.02 n=5" and row.verdict == "contradicted"
    assert abs(row.printed - 31.416146) < 1e-6 and abs(row.exact - 31.414821) < 1e-6
