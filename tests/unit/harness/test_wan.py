"""WAN profile plumbing (the sweep itself runs in benchmarks)."""

from repro.harness.wan import (
    CONTINENTAL,
    INTERCONTINENTAL,
    LAN,
    METRO,
    PROFILES,
    format_wan,
    net_config_for,
    run_wan_sweep,
)


def test_profiles_ordered_by_distance():
    latencies = [p.one_way_latency_ns for p in PROFILES]
    assert latencies == sorted(latencies)


def test_net_config_carries_profile():
    config = net_config_for(METRO)
    assert config.default_link.latency_ns == METRO.one_way_latency_ns
    assert config.default_link.bandwidth_bps == METRO.bandwidth_bps


def test_sweep_single_profile_smoke():
    results = run_wan_sweep(profiles=(LAN,), measure_s=0.1)
    assert len(results) == 1
    profile, measurement = results[0]
    assert profile is LAN
    assert measurement.tps > 1000


def test_format_wan():
    results = run_wan_sweep(profiles=(LAN,), measure_s=0.1)
    text = format_wan(results)
    assert "lan-1gbe" in text and "TPS" in text


def test_sweep_intercontinental_profile_smoke():
    # 20 x RTT (3 s) exceeds the default 2 s retransmit backoff cap, so the
    # sweep must raise the cap with the interval for the config to be valid.
    results = run_wan_sweep(profiles=(INTERCONTINENTAL,), measure_s=1.0)
    profile, measurement = results[0]
    assert profile is INTERCONTINENTAL
    assert measurement.completed > 0
    assert measurement.p50_latency_ns > 3 * profile.one_way_latency_ns
