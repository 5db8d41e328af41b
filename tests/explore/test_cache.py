"""Cache backends: LRU bounds, disk persistence, corruption tolerance.

Backend-level tests use synthetic payloads (no oracle); the
integration tests at the bottom drive a real FIR design space through
the explorer, including a warm-start from a *separate process*.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    DesignSpace,
    DiskCache,
    EvaluationCache,
    ExhaustiveSweep,
    Explorer,
    MemoryCache,
    ProgramBuilder,
)
from repro.costs.report import COMPACT_MAGIC
from repro.explore.cache import (
    COMPACT_SUFFIX,
    JSON_SUFFIX,
    RemoteCache,
    parse_remote_url,
    resolve_backend,
)


def _payload(value: int) -> dict:
    return {"value": value}


# ----------------------------------------------------------------------
# MemoryCache: LRU bound and stats
# ----------------------------------------------------------------------
def test_memory_cache_round_trip_and_stats():
    cache = MemoryCache()
    assert cache.get("a") is None
    cache.put("a", _payload(1))
    assert cache.get("a") == {"value": 1}
    assert len(cache) == 1
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1
    assert cache.stats.hit_rate == 0.5


def test_memory_cache_lru_eviction_counts():
    cache = MemoryCache(max_entries=2)
    cache.put("a", _payload(1))
    cache.put("b", _payload(2))
    cache.get("a")  # refresh recency: b is now least recently used
    cache.put("c", _payload(3))
    assert cache.get("b") is None
    assert cache.get("a") is not None
    assert cache.get("c") is not None
    assert len(cache) == 2
    assert cache.stats.evictions == 1


def test_memory_cache_put_refreshes_recency():
    cache = MemoryCache(max_entries=2)
    cache.put("a", _payload(1))
    cache.put("b", _payload(2))
    cache.put("a", _payload(10))  # rewrite refreshes: b becomes the victim
    cache.put("c", _payload(3))
    assert cache.keys() == ("a", "c")
    assert cache.get("a") == {"value": 10}


def test_memory_cache_rejects_bad_bound():
    with pytest.raises(ValueError):
        MemoryCache(max_entries=0)


def test_memory_cache_clear_resets_stats():
    cache = MemoryCache()
    cache.put("a", _payload(1))
    cache.get("a")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.hits == 0
    assert cache.stats.stores == 0


# ----------------------------------------------------------------------
# DiskCache: persistence, sharding, corruption, eviction
# ----------------------------------------------------------------------
def test_disk_cache_round_trip_across_instances(tmp_path):
    first = DiskCache(tmp_path / "cache")
    first.put("ab12", _payload(7))
    second = DiskCache(tmp_path / "cache")
    assert len(second) == 1
    assert second.get("ab12") == {"value": 7}
    assert second.stats.hits == 1


def test_disk_cache_shards_by_prefix(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("abcd", _payload(1))
    cache.put("efgh", _payload(2))
    assert (tmp_path / "ab" / f"abcd{COMPACT_SUFFIX}").exists()
    assert (tmp_path / "ef" / f"efgh{COMPACT_SUFFIX}").exists()


def test_disk_cache_compact_records_carry_magic(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("abcd", _payload(1))
    data = (tmp_path / "ab" / f"abcd{COMPACT_SUFFIX}").read_bytes()
    assert data.startswith(COMPACT_MAGIC)


def test_disk_cache_tolerates_corrupted_shard(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("abcd", _payload(1))
    shard = tmp_path / "ab" / f"abcd{COMPACT_SUFFIX}"
    shard.write_bytes(COMPACT_MAGIC + b"\x01")  # truncated compact record
    fresh = DiskCache(tmp_path)  # reads the corrupted file
    assert fresh.get("abcd") is None
    assert fresh.stats.corrupt == 1
    # The bad file is discarded so a rewrite repairs the entry.
    assert not shard.exists()
    fresh.put("abcd", _payload(2))
    assert DiskCache(tmp_path).get("abcd") == {"value": 2}


def test_disk_cache_tolerates_non_object_payload(tmp_path):
    cache = DiskCache(tmp_path)
    shard = tmp_path / "ab"
    shard.mkdir()
    (shard / "abcd.json").write_text("[1, 2]", encoding="utf-8")
    assert cache.get("abcd") is None
    assert cache.stats.corrupt == 1


def test_disk_cache_atomic_writes_leave_no_temp_files(tmp_path):
    cache = DiskCache(tmp_path)
    for index in range(5):
        cache.put(f"k{index:03d}", _payload(index))
    leftovers = list(tmp_path.rglob("*.tmp"))
    assert leftovers == []


def test_disk_cache_max_entries_prunes_files(tmp_path):
    cache = DiskCache(tmp_path, max_entries=2)
    cache.put("aa01", _payload(1))
    cache.put("bb02", _payload(2))
    cache.put("cc03", _payload(3))
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert not (tmp_path / "aa" / f"aa01{COMPACT_SUFFIX}").exists()
    assert DiskCache(tmp_path).get("cc03") == {"value": 3}


def test_disk_cache_clear_removes_entries(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("abcd", _payload(1))
    cache.clear()
    assert len(cache) == 0
    assert DiskCache(tmp_path).get("abcd") is None


def test_disk_cache_clear_removes_sibling_shards_and_empty_dirs(
    tmp_path, legacy_json_shard
):
    """The clear() fix: shards written by siblings since the last
    refresh are cleared too, and emptied shard dirs are removed."""
    cache = DiskCache(tmp_path)
    cache.put("abcd", _payload(1))
    # A legacy sibling's shard, unknown to `cache` until a refresh.
    legacy_json_shard(tmp_path, "efgh", _payload(2))
    cache.clear()
    assert len(cache) == 0
    assert sorted(tmp_path.iterdir()) == []  # no shard dirs left behind
    fresh = DiskCache(tmp_path)
    assert fresh.get("abcd") is None
    assert fresh.get("efgh") is None


def test_disk_cache_refresh_orders_sibling_shards_by_mtime(tmp_path):
    """The index-recency fix: absorbing sibling-written shards must
    order them by mtime, so eviction drops the *oldest* entry — a
    name-ordered absorb could evict a sibling's newest store."""
    reader = DiskCache(tmp_path, max_entries=2)
    sibling = DiskCache(tmp_path)
    # Written zz -> aa (name order is the exact reverse of store order).
    sibling.put("zz01", _payload(1))
    sibling.put("aa02", _payload(2))
    old = (tmp_path / "zz" / f"zz01{COMPACT_SUFFIX}", 1_000_000_000)
    new = (tmp_path / "aa" / f"aa02{COMPACT_SUFFIX}", 1_000_000_500)
    for path, stamp in (old, new):
        os.utime(path, (stamp, stamp))
    assert len(reader.lookup_many(["zz01", "aa02"])) == 2  # absorb both
    reader.put("ff03", _payload(3))  # bound is 2: one eviction
    assert reader.stats.evictions == 1
    # The mtime-oldest shard (zz01) is the victim, not the newest store.
    assert not old[0].exists()
    assert new[0].exists()
    assert DiskCache(tmp_path).get("aa02") == {"value": 2}


# ----------------------------------------------------------------------
# Bulk hooks: lookup_many / store_many
# ----------------------------------------------------------------------
def test_memory_cache_lookup_many_counts_like_get():
    cache = MemoryCache()
    cache.store_many({"aa": _payload(1), "bb": _payload(2)})
    found = cache.lookup_many(["aa", "bb", "cc", "aa"])  # duplicate probed once
    assert found == {"aa": {"value": 1}, "bb": {"value": 2}}
    assert cache.stats.hits == 2
    assert cache.stats.misses == 1
    assert cache.stats.stores == 2


def test_disk_cache_lookup_many_warm_batch(tmp_path):
    warm = DiskCache(tmp_path)
    warm.store_many({f"k{i:03d}": _payload(i) for i in range(6)})
    fresh = DiskCache(tmp_path)  # entries come off disk
    keys = [f"k{i:03d}" for i in range(6)] + ["missing1", "missing2"]
    found = fresh.lookup_many(keys)
    assert found == {f"k{i:03d}": _payload(i) for i in range(6)}
    assert fresh.stats.hits == 6
    assert fresh.stats.misses == 2
    # A second bulk probe reads the shards again, with the same stats.
    again = fresh.lookup_many([f"k{i:03d}" for i in range(6)])
    assert again == found
    assert fresh.stats.hits == 12


def test_disk_cache_lookup_many_tolerates_corrupt_shards(tmp_path):
    warm = DiskCache(tmp_path)
    warm.store_many({"aaaa": _payload(1), "bbbb": _payload(2), "cccc": _payload(3)})
    shard = tmp_path / "bb" / f"bbbb{COMPACT_SUFFIX}"
    shard.write_bytes(COMPACT_MAGIC[:2])  # not even a whole header
    fresh = DiskCache(tmp_path)
    found = fresh.lookup_many(["aaaa", "bbbb", "cccc"])
    # The corrupt entry is tolerated as a miss; the rest still resolve.
    assert found == {"aaaa": _payload(1), "cccc": _payload(3)}
    assert fresh.stats.corrupt == 1
    assert fresh.stats.misses == 1
    # The bad file was discarded so a rewrite repairs the entry.
    assert not shard.exists()


def test_disk_cache_lookup_many_mixed_format_directory(tmp_path, legacy_json_shard):
    """Legacy JSON shards and compact records resolve side by side."""
    legacy_json_shard(tmp_path, "aaaa", _payload(1))
    legacy_json_shard(tmp_path, "bbbb", _payload(2))
    compact = DiskCache(tmp_path)
    compact.store_many({"cccc": _payload(3), "dddd": _payload(4)})
    fresh = DiskCache(tmp_path)
    assert len(fresh) == 4
    found = fresh.lookup_many(["aaaa", "bbbb", "cccc", "dddd", "eeee"])
    assert found == {
        "aaaa": _payload(1),
        "bbbb": _payload(2),
        "cccc": _payload(3),
        "dddd": _payload(4),
    }
    assert fresh.stats.hits == 4
    assert fresh.stats.misses == 1
    assert fresh.stats.corrupt == 0
    # Per-key gets resolve both formats too.
    again = DiskCache(tmp_path)
    assert again.get("aaaa") == {"value": 1}
    assert again.get("cccc") == {"value": 3}


def test_disk_cache_corrupt_legacy_shard_in_mixed_directory(
    tmp_path, legacy_json_shard
):
    """A truncated legacy .json next to healthy compact records is
    tolerated exactly like a corrupt compact record, in get and in
    lookup_many, with the same stats accounting."""
    legacy_json_shard(tmp_path, "aaaa", _payload(1))
    compact = DiskCache(tmp_path)
    compact.put("cccc", _payload(3))
    (tmp_path / "aa" / "aaaa.json").write_text("{truncated", encoding="utf-8")
    fresh = DiskCache(tmp_path)
    assert fresh.lookup_many(["aaaa", "cccc"]) == {"cccc": _payload(3)}
    assert fresh.stats.corrupt == 1
    assert fresh.stats.misses == 1
    assert fresh.stats.hits == 1
    assert not (tmp_path / "aa" / "aaaa.json").exists()
    legacy_json_shard(tmp_path, "bbbb", _payload(2))
    (tmp_path / "bb" / "bbbb.json").write_text("[1, 2]", encoding="utf-8")
    probe = DiskCache(tmp_path)
    assert probe.get("bbbb") is None
    assert probe.stats.corrupt == 1


def test_disk_cache_corrupt_shard_falls_back_to_healthy_sibling_format(
    tmp_path, legacy_json_shard
):
    """A corrupt record in one format must not destroy the entry when a
    healthy shard of the other format exists: only the bad file is
    discarded, and the probe still resolves."""
    legacy_json_shard(tmp_path, "abcd", _payload(1))
    bad = tmp_path / "ab" / f"abcd{COMPACT_SUFFIX}"
    bad.write_bytes(COMPACT_MAGIC + b"\x01")  # truncated compact record
    fresh = DiskCache(tmp_path)  # indexes the newer (corrupt) shard first
    assert fresh.get("abcd") == {"value": 1}
    assert fresh.stats.corrupt == 1
    assert fresh.stats.hits == 1
    assert fresh.stats.misses == 0
    assert not bad.exists()  # the corrupt file was discarded...
    assert (tmp_path / "ab" / "abcd.json").exists()  # ...the healthy one kept
    assert fresh.lookup_many(["abcd"]) == {"abcd": _payload(1)}


def test_disk_cache_put_supersedes_other_format_shard(tmp_path, legacy_json_shard):
    """Rewriting an entry removes its other-format shard, so one key
    can never be backed by two live files."""
    legacy_json_shard(tmp_path, "abcd", _payload(1))
    compact = DiskCache(tmp_path)
    compact.put("abcd", _payload(2))
    assert not (tmp_path / "ab" / "abcd.json").exists()
    assert (tmp_path / "ab" / f"abcd{COMPACT_SUFFIX}").exists()
    assert DiskCache(tmp_path).get("abcd") == {"value": 2}
    assert len(DiskCache(tmp_path)) == 1


def test_disk_cache_rewrite_over_legacy_shards_leaves_only_rpc(
    tmp_path, legacy_json_shard
):
    """Both write paths replace a legacy .json shard with one .rpc
    record: no JSON is ever written, and nothing stale is left."""
    legacy_json_shard(tmp_path, "abcd", _payload(1))
    legacy_json_shard(tmp_path, "abef", _payload(2))
    cache = DiskCache(tmp_path)  # indexes both keys under .json
    cache.put("abcd", _payload(3))
    cache.store_many({"abef": _payload(4)})
    names = sorted(path.name for path in (tmp_path / "ab").iterdir())
    assert names == [f"abcd{COMPACT_SUFFIX}", f"abef{COMPACT_SUFFIX}"]
    fresh = DiskCache(tmp_path)
    assert fresh.lookup_many(["abcd", "abef"]) == {
        "abcd": _payload(3),
        "abef": _payload(4),
    }
    assert fresh.stats.corrupt == 0


def test_disk_cache_lookup_many_sees_sibling_writes(tmp_path):
    reader = DiskCache(tmp_path)
    assert reader.lookup_many(["abcd"]) == {}
    DiskCache(tmp_path).put("abcd", _payload(9))  # a sibling process writes
    # The next bulk probe's single directory refresh picks it up.
    assert reader.lookup_many(["abcd"]) == {"abcd": _payload(9)}


def test_disk_cache_lookup_many_tolerates_vanished_file(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("abcd", _payload(1))
    fresh = DiskCache(tmp_path)  # indexes the entry
    (tmp_path / "ab" / f"abcd{COMPACT_SUFFIX}").unlink()
    assert fresh.lookup_many(["abcd"]) == {}
    assert fresh.stats.misses == 1
    assert len(fresh) == 0  # the stale index entry is dropped


def test_evaluation_cache_lookup_many_decodes_failures(tmp_path):
    shared = EvaluationCache(path=tmp_path)
    shared.backend.put("good", {"label": "x", "memories": []})
    shared.store_failure("bad", "infeasible corner")
    resolved = shared.lookup_many(["good", "bad", "absent"])
    report, error = resolved["good"]
    assert report is not None and error is None
    report, error = resolved["bad"]
    assert report is None and error == "infeasible corner"
    assert "absent" not in resolved


def test_negative_entries_round_trip_through_compact_format(tmp_path):
    """__infeasible__ markers survive the compact codec on disk, and
    stats account them exactly like positive entries."""
    shared = EvaluationCache(path=tmp_path)
    shared.store_failure("badf", "infeasible corner")
    data = (tmp_path / "ba" / f"badf{COMPACT_SUFFIX}").read_bytes()
    assert data.startswith(COMPACT_MAGIC)
    fresh = EvaluationCache(path=tmp_path)
    report, error = fresh.lookup("badf")
    assert report is None and error == "infeasible corner"
    assert fresh.backend.stats.hits == 1
    resolved = fresh.lookup_many(["badf", "absent"])
    assert resolved["badf"] == (None, "infeasible corner")
    # The second probe was served by the decoded tier, not the backend.
    assert fresh.decoded_hits == 1
    assert fresh.backend.stats.hits == 1
    assert fresh.backend.stats.misses == 1  # "absent"


# ----------------------------------------------------------------------
# The decoded-report tier
# ----------------------------------------------------------------------
def test_decoded_tier_absorbs_repeat_probes():
    shared = EvaluationCache()
    shared.backend.put("good", {"label": "x", "memories": []})
    first, _ = shared.lookup("good")
    assert shared.decoded_hits == 0
    assert shared.backend.stats.hits == 1
    second, _ = shared.lookup("good")
    assert second is first  # the decoded object itself, no re-decode
    assert shared.decoded_hits == 1
    assert shared.backend.stats.hits == 1  # backend untouched
    bulk = shared.lookup_many(["good"])
    assert bulk["good"][0] is first
    assert shared.decoded_hits == 2
    assert shared.backend.stats.hits == 1


def test_decoded_tier_filled_by_stores():
    from repro.costs.report import CostReport

    shared = EvaluationCache()
    report = CostReport(label="stored")
    shared.store("fp", report)
    looked, error = shared.lookup("fp")
    assert looked is report and error is None
    assert shared.decoded_hits == 1
    assert shared.backend.stats.hits == 0  # never probed

    bulk_cache = EvaluationCache()
    bulk_cache.store_many({"fp1": report, "fp2": report})
    resolved = bulk_cache.lookup_many(["fp1", "fp2"])
    assert resolved["fp1"][0] is report and resolved["fp2"][0] is report
    assert bulk_cache.decoded_hits == 2
    assert bulk_cache.backend.stats.hits == 0


def test_decoded_tier_shares_backend_bound():
    from repro.costs.report import CostReport

    shared = EvaluationCache(max_entries=2)
    for index in range(4):
        shared.store(f"fp{index}", CostReport(label=f"r{index}"))
    assert shared.decoded_entries == 2
    # The survivors are the most recently stored, same as the backend.
    assert shared.lookup("fp3")[0] is not None
    assert shared.decoded_hits == 1
    assert len(shared.backend) == 2


def test_decoded_tier_cleared_with_cache():
    shared = EvaluationCache()
    shared.backend.put("good", {"label": "x", "memories": []})
    shared.lookup("good")
    shared.lookup("good")
    assert shared.decoded_hits == 1
    shared.clear()
    assert shared.decoded_entries == 0
    assert shared.decoded_hits == 0
    assert shared.lookup("good") == (None, None)


def test_stats_reads_backend_under_the_lock():
    """stats() honours the facade contract: backend traffic (its
    __len__ included) runs under the cache lock."""

    class LockCheckingBackend(MemoryCache):
        def __len__(self):
            assert shared.lock._is_owned(), "backend read outside the lock"
            return super().__len__()

    shared = EvaluationCache(backend=LockCheckingBackend())
    shared.backend.put("good", {"label": "x", "memories": []})
    assert shared.stats() == "1 entries, 0 hits, 0 misses"
    assert shared.stats_dict()["entries"] == 1


def test_stats_dict_reports_decoded_tier():
    shared = EvaluationCache()
    shared.backend.put("good", {"label": "x", "memories": []})
    shared.lookup("good")
    shared.lookup("good")
    stats = shared.stats_dict()
    assert stats["decoded_hits"] == 1
    assert stats["decoded_entries"] == 1


# ----------------------------------------------------------------------
# In-memory result store bound
# ----------------------------------------------------------------------
def test_results_store_bounded_with_lru_recency():
    """The decoded tier, the only in-memory result store, is LRU-bounded."""
    from repro.costs.report import CostReport

    shared = EvaluationCache(max_entries=2)
    for index in range(3):
        shared.store(f"fp{index}", CostReport(label=f"r{index}"))
    assert shared.decoded_entries == 2
    assert shared.lookup("fp1")[0].label == "r1"  # refreshes recency
    assert shared.decoded_hits == 1
    shared.store("fp3", CostReport(label="r3"))
    # fp2 was least recently used after the fp1 probe above: it left
    # the tier, while fp1 and fp3 still resolve without the backend.
    assert shared.decoded_entries == 2
    shared.lookup("fp1")
    shared.lookup("fp3")
    assert shared.decoded_hits == 3
    shared.lookup("fp2")
    assert shared.decoded_hits == 3


# ----------------------------------------------------------------------
# resolve_backend / EvaluationCache wiring
# ----------------------------------------------------------------------
def test_resolve_backend_variants(tmp_path):
    assert isinstance(resolve_backend(None), MemoryCache)
    assert isinstance(resolve_backend(tmp_path / "c"), DiskCache)
    backend = MemoryCache()
    assert resolve_backend(backend) is backend
    with pytest.raises(ValueError):
        resolve_backend(backend, max_entries=3)
    with pytest.raises(TypeError):
        resolve_backend(42)


def test_evaluation_cache_rejects_path_plus_backend(tmp_path):
    with pytest.raises(ValueError):
        EvaluationCache(path=tmp_path, backend=MemoryCache())


# ----------------------------------------------------------------------
# DiskCache read-path regressions: mirror bound, negative probes
# ----------------------------------------------------------------------
def test_disk_cache_does_not_serve_entries_a_sibling_cleared(tmp_path):
    """A cleared corpus stays cleared for every reader of the directory.

    ``DiskCache`` keeps no in-memory payload copy: a reader that has
    already served a key must report a miss once a sibling clears the
    directory, on the single-key and the bulk path alike.
    """
    reader = DiskCache(tmp_path / "c")
    reader.put("abcd", _payload(1))
    assert reader.get("abcd") == _payload(1)
    assert reader.lookup_many(["abcd"]) == {"abcd": _payload(1)}

    DiskCache(tmp_path / "c").clear()  # a sibling process clears

    assert reader.get("abcd") is None
    assert reader.lookup_many(["abcd"]) == {}
    assert len(reader) == 0


def test_disk_cache_negative_get_does_not_probe_files(tmp_path, monkeypatch):
    """A repeated single-key miss must stay off the filesystem read path.

    Regression: ``get`` used to bypass the directory index and probe
    both suffix files, paying two failed ``read_bytes`` syscalls per
    negative lookup, every time.
    """
    cache = DiskCache(tmp_path / "c")
    cache.put("present", _payload(1))

    reads = []
    original = Path.read_bytes

    def counting_read_bytes(self):
        reads.append(self)
        return original(self)

    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    for _ in range(5):
        assert cache.get("absent") is None
    assert reads == []  # misses resolved from the index alone
    assert cache.stats.misses == 5

    # Present keys still read from disk.
    assert cache.get("present") == _payload(1)
    assert len(reads) == 1


def test_disk_cache_get_sees_sibling_writes(tmp_path):
    """The indexed miss path still absorbs writes by other processes."""
    reader = DiskCache(tmp_path / "c")
    assert reader.get("late") is None
    DiskCache(tmp_path / "c").put("late", _payload(9))
    assert reader.get("late") == _payload(9)


# ----------------------------------------------------------------------
# resolve_backend: remote URLs
# ----------------------------------------------------------------------
def test_parse_remote_url_variants():
    assert parse_remote_url("remote://host:123") == ("host", 123, None)
    assert parse_remote_url("remote://10.0.0.1:8712/var/fb") == (
        "10.0.0.1",
        8712,
        "/var/fb",
    )
    for bad in ("remote://host", "remote://:123", "remote://host:abc", "x://h:1"):
        with pytest.raises(ValueError):
            parse_remote_url(bad)


def test_parse_remote_url_strips_ipv6_brackets():
    assert parse_remote_url("remote://[::1]:8712") == ("::1", 8712, None)
    assert parse_remote_url("remote://[fe80::2%eth0]:9/var/fb") == (
        "fe80::2%eth0",
        9,
        "/var/fb",
    )
    for bad in ("remote://[::1]", "remote://[::1]:", "remote://[]:80"):
        with pytest.raises(ValueError):
            parse_remote_url(bad)


def test_resolve_backend_remote_variants(tmp_path):
    backend = resolve_backend("remote://127.0.0.1:1")
    assert isinstance(backend, RemoteCache)
    assert backend.fallback is None
    backend.close(timeout=0.1)

    # max_entries bounds only local stores; the server bounds the corpus.
    bounded = resolve_backend("remote://127.0.0.1:1", max_entries=16)
    assert isinstance(bounded, RemoteCache)
    bounded.close(timeout=0.1)

    root = tmp_path / "fb"
    with_fallback = resolve_backend(f"remote://127.0.0.1:1{root}")
    assert isinstance(with_fallback.fallback, DiskCache)
    assert with_fallback.fallback.root == root
    with_fallback.close(timeout=0.1)


def test_evaluation_cache_remote_url_passthrough():
    cache = EvaluationCache("remote://127.0.0.1:1")
    assert isinstance(cache.backend, RemoteCache)
    assert cache.path is None  # no disk root to report
    cache.close_backend()


# ----------------------------------------------------------------------
# Explorer integration over a real design space
# ----------------------------------------------------------------------
def _program(taps=8):
    builder = ProgramBuilder(f"fir{taps}")
    builder.array("samples", shape=(4096,), bitwidth=12)
    builder.array("coeffs", shape=(32,), bitwidth=16)
    builder.array("output", shape=(4096,), bitwidth=16)
    nest = builder.nest("filter", iterators=("i",), trips=(4096,))
    sample = nest.read("samples", index=("i",))
    taps_read = nest.read("coeffs", mult=float(taps), after=[sample], label="taps")
    nest.write("output", index=("i",), after=[taps_read])
    return builder.build()


def _space():
    space = DesignSpace(
        "fir",
        cycle_budget=50_000,
        frame_time_s=1e-3,
        budget_fractions=(1.0, 0.9),
        onchip_counts=(None, 2),
    )
    space.add_variant("taps8", build=lambda: _program(8))
    return space


def test_explorer_accepts_path_as_cache(tmp_path):
    cache_dir = tmp_path / "cache"
    first = Explorer(_space(), cache=cache_dir)
    first.explore(ExhaustiveSweep())
    assert isinstance(first.cache.backend, DiskCache)
    assert first.cache.misses == 4
    second = Explorer(_space(), cache=cache_dir)
    second.explore(ExhaustiveSweep())
    assert second.cache.misses == 0
    assert second.cache.hits == 4


def test_explorer_accepts_bare_backend():
    backend = MemoryCache(max_entries=64)
    explorer = Explorer(_space(), cache=backend)
    explorer.explore(ExhaustiveSweep())
    assert explorer.cache.backend is backend
    assert backend.stats.stores == 4
    # One backend probe per cold point: misses are not double-counted.
    assert backend.stats.misses == 4


def test_explorer_memo_stays_bounded_under_long_runs():
    """The unbounded-growth fix: a bounded memo never exceeds its cap."""
    backend = MemoryCache(max_entries=2)
    explorer = Explorer(_space(), cache=backend)
    for _ in range(3):  # repeated strategy runs over 4 points
        explorer.explore(ExhaustiveSweep())
    assert len(backend) == 2
    assert backend.stats.evictions >= 2
    # Evicted points simply re-evaluate: correctness is unaffected.
    rerun = explorer.explore(ExhaustiveSweep())
    assert len(rerun.records) == 4


def test_evaluation_cache_failures_persist_to_disk(tmp_path):
    cache_dir = tmp_path / "cache"
    space = _space()
    space.onchip_counts = (2, 10)  # 10 is infeasible for a 3-group program
    first = Explorer(space, cache=cache_dir, on_error="skip")
    first.explore(ExhaustiveSweep())
    assert first.failures
    # A fresh explorer over the same directory re-runs *nothing*: both
    # the reports and the negative results are warm.
    second = Explorer(_space(), cache=cache_dir, on_error="skip")
    space2 = second.space
    space2.onchip_counts = (2, 10)
    second.explore(ExhaustiveSweep())
    assert second.cache.misses == 0
    assert len(second.failures) == len(first.failures)


def test_persisted_failure_raises_in_raise_mode(tmp_path):
    """A failure cached by a skip-mode run must still raise elsewhere."""
    from repro.api import ExplorationError

    cache_dir = tmp_path / "cache"
    space = _space()
    space.onchip_counts = (10,)  # infeasible for a 3-group program
    skip = Explorer(space, cache=cache_dir, on_error="skip")
    skip.explore(ExhaustiveSweep())
    assert skip.failures

    strict_space = _space()
    strict_space.onchip_counts = (10,)
    strict = Explorer(strict_space, cache=cache_dir)
    with pytest.raises(ExplorationError):
        strict.evaluate_many(strict_space.points()[:1])


_WARM_SCRIPT = """
import sys

from repro.api import DesignSpace, ExhaustiveSweep, Explorer, ProgramBuilder

builder = ProgramBuilder("fir8")
builder.array("samples", shape=(4096,), bitwidth=12)
builder.array("coeffs", shape=(32,), bitwidth=16)
builder.array("output", shape=(4096,), bitwidth=16)
nest = builder.nest("filter", iterators=("i",), trips=(4096,))
sample = nest.read("samples", index=("i",))
taps = nest.read("coeffs", mult=8.0, after=[sample], label="taps")
nest.write("output", index=("i",), after=[taps])

space = DesignSpace(
    "fir",
    cycle_budget=50_000,
    frame_time_s=1e-3,
    budget_fractions=(1.0, 0.9),
    onchip_counts=(None, 2),
)
space.add_variant("taps8", program=builder.build())

explorer = Explorer(space, cache=sys.argv[1])
explorer.explore(ExhaustiveSweep())
print(f"misses={explorer.cache.misses} hits={explorer.cache.hits}")
"""


def test_disk_cache_warm_start_across_processes(tmp_path):
    """A spawned subprocess reuses the cache dir: zero re-evaluations."""
    cache_dir = tmp_path / "cache"
    script = tmp_path / "warm.py"
    script.write_text(_WARM_SCRIPT, encoding="utf-8")
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")

    cold = subprocess.run(
        [sys.executable, str(script), str(cache_dir)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert "misses=4 hits=0" in cold.stdout

    warm = subprocess.run(
        [sys.executable, str(script), str(cache_dir)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert "misses=0 hits=4" in warm.stdout

    # The on-disk entries are compact payload records under sharded dirs.
    files = sorted(cache_dir.rglob(f"*{COMPACT_SUFFIX}"))
    assert len(files) == 4
    assert sorted(cache_dir.rglob(f"*{JSON_SUFFIX}")) == []
    for file in files:
        assert file.read_bytes().startswith(COMPACT_MAGIC)


def test_preexisting_json_cache_dir_stays_warm_under_compact(
    tmp_path, legacy_json_shard
):
    """The migration guarantee: a cache directory written entirely in
    the legacy JSON format is read by the compact codec with zero
    oracle re-evaluations."""
    cache_dir = tmp_path / "cache"
    legacy = Explorer(_space())
    legacy.explore(ExhaustiveSweep())
    assert legacy.cache.misses == 4
    for key in legacy.cache.backend.keys():
        legacy_json_shard(cache_dir, key, legacy.cache.backend.get(key))
    assert len(sorted(cache_dir.rglob("*.json"))) == 4

    modern = Explorer(_space(), cache=cache_dir)
    modern.explore(ExhaustiveSweep())
    assert modern.cache.misses == 0
    assert modern.cache.hits == 4
    assert modern.cache.backend.stats.corrupt == 0
