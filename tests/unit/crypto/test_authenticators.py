"""Authenticators: per-replica MAC vectors."""

from repro.crypto.authenticators import (
    make_authenticator,
    verify_authenticator,
)
from repro.crypto.mac import MacKey
from repro.sim.rng import RngStreams


def keys_for(n=4, seed=3):
    rng = RngStreams(seed).stream("auth")
    return {rid: MacKey.generate(rng) for rid in range(n)}


def test_each_replica_verifies_its_own_entry():
    keys = keys_for()
    auth = make_authenticator(keys, b"message")
    for rid, k in keys.items():
        assert verify_authenticator(k, rid, b"message", auth)


def test_wrong_replica_entry_fails():
    keys = keys_for()
    auth = make_authenticator(keys, b"message")
    # Replica 0's key cannot validate replica 1's entry.
    assert not verify_authenticator(keys[0], 1, b"message", auth)


def test_missing_entry_fails():
    keys = keys_for(2)
    auth = make_authenticator(keys, b"m")
    outsider = MacKey.generate(RngStreams(99).stream("x"))
    assert not verify_authenticator(outsider, 7, b"m", auth)


def test_tampered_message_fails_for_everyone():
    keys = keys_for()
    auth = make_authenticator(keys, b"original")
    assert not any(
        verify_authenticator(k, rid, b"tampered", auth) for rid, k in keys.items()
    )


def test_wire_size_is_six_bytes_per_entry():
    auth = make_authenticator(keys_for(4), b"m")
    assert auth.size == 4 * 6
    assert len(auth) == 4


def test_mac_cache_hits_and_misses():
    from repro.crypto.authenticators import MacCache
    from repro.crypto.mac import compute_mac

    cache = MacCache()
    k = MacKey.generate(RngStreams(5).stream("c"))
    tag = cache.tag(k, b"data")
    assert tag == compute_mac(k, b"data")
    assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
    assert cache.tag(k, b"data") == tag
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.verify(k, b"data", tag)
    assert not cache.verify(k, b"data", b"\x00" * 4 if tag != b"\x00" * 4 else b"\x01" * 4)
    assert cache.stats() == {"hits": cache.hits, "misses": cache.misses, "entries": 1}


def test_mac_cache_evicts_oldest_first_and_stays_bounded():
    from repro.crypto.authenticators import MacCache

    cache = MacCache(max_entries=4)
    k = MacKey.generate(RngStreams(6).stream("c"))
    for i in range(10):
        cache.tag(k, bytes([i]))
        assert len(cache) <= 4
    # The newest four survive; the oldest were evicted (re-tagging
    # one of them is a miss, a recent one is a hit).
    hits = cache.hits
    cache.tag(k, bytes([9]))
    assert cache.hits == hits + 1
    misses = cache.misses
    cache.tag(k, bytes([0]))
    assert cache.misses == misses + 1


def test_mac_cache_authenticator_matches_uncached():
    from repro.crypto.authenticators import MacCache

    keys = keys_for()
    direct = make_authenticator(keys, b"msg")
    cache = MacCache()
    cached = cache.authenticator(keys, b"msg")
    for rid, k in keys.items():
        assert cached.tag_for(rid) == direct.tag_for(rid)
        assert cache.verify_authenticator(k, rid, b"msg", cached)
    assert not cache.verify_authenticator(keys[0], 99, b"msg", cached)
    # A warm cache (every tag a hit) still matches the uncached vector.
    assert cache.authenticator(keys, b"msg").tags == direct.tags
    assert cache.hits >= len(keys)
