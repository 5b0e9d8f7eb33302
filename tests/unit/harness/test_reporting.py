"""Report formatting."""

from repro.faults import CampaignResult, RunResult
from repro.harness.configs import TABLE1_CONFIGS, ConfigRow
from repro.harness.measure import Measurement
from repro.harness.reporting import (
    format_acid,
    format_campaign,
    format_fig4,
    format_fig5,
    format_table1,
)


def fake_measurement(name, tps):
    return Measurement(
        name=name,
        tps=tps,
        mean_latency_ns=1e6,
        p50_latency_ns=900_000,
        p99_latency_ns=3_000_000,
        completed=int(tps),
        retransmissions=0,
        view_changes=0,
        duration_s=1.0,
    )


def fake_table1():
    return [
        (row, fake_measurement(row.name, row.paper_tps or 100.0))
        for row in TABLE1_CONFIGS
    ]


def test_table1_format_contains_all_rows_and_paper_values():
    text = format_table1(fake_table1())
    for row in TABLE1_CONFIGS:
        assert row.name in text
        assert f"{row.paper_tps:.0f}" in text
    assert "100.0%" in text  # the best row


def test_fig4_format_has_one_column_per_size():
    sweep = {size: fake_table1() for size in (256, 1024)}
    text = format_fig4(sweep)
    assert "256B" in text and "1024B" in text
    assert text.count("sta_mac_allbig_batch") == 1


def test_fig5_format_percentages():
    rows = [
        (ConfigRow("a", True, True, True, True), fake_measurement("a", 1000.0)),
        (ConfigRow("b", True, False, True, True), fake_measurement("b", 430.0)),
    ]
    text = format_fig5(rows)
    assert "100.0%" in text and "43.0%" in text


def test_acid_format_reports_speedup():
    text = format_acid(fake_measurement("acid", 500.0), fake_measurement("noacid", 1000.0))
    assert "2.00x" in text
    assert "534" in text and "1155" in text  # the paper anchors


def test_campaign_format_sizes_schedule_column_to_longest_name():
    names = ["shard-baseline", "rebalance-driver-crash-after-activate"]
    campaign = CampaignResult(
        runs=[
            RunResult(
                schedule=name, seed=1, violations=[], invoked_ops=10,
                completed_ops=10, max_view=0, sim_time_ns=1_000_000,
            )
            for name in names
        ]
    )
    header, rule, *rows, summary = format_campaign(campaign).splitlines()
    # Every row's seed sits under the header's, the longest name included.
    seed_col = header.index("Seed")
    assert [row[seed_col:seed_col + 4] for row in rows] == ["   1"] * 2
    assert len(rule) == len(header)
    assert summary == "2/2 runs passed all invariants"
