"""The sharded synthesis store: appends, compaction, migration, contention.

The claims under test, in roughly escalating order of paranoia:

* shard bucketing is deterministic and filesystem-safe for any key;
* append → load round-trips, later records win, saves append rather
  than rewrite, and every ``SynthesisCache`` path is a sharded
  directory;
* compaction drops dead weight (rewrites, stale versions, damage)
  without losing a live entry;
* opening a store file in the retired single-JSON format migrates it
  atomically and idempotently, preserving the original (or, if it is
  corrupt, quarantining it and starting empty);
* a writer SIGKILLed mid-append (faultinject) leaves the store
  *loadable* and its shard lock reclaimable;
* many concurrent writer processes lose zero entries while compaction
  runs under contention;
* lift reports served warm from a sharded store — or from a migrated
  single-JSON file — are byte-identical (``report_signature``) to the
  cold run's.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.cache import (
    CODE_VERSION,
    CacheIntegrityWarning,
    ShardedStore,
    StaleVersionWarning,
    SynthesisCache,
    shard_path,
    shard_prefix,
)
from repro.pipeline import PipelineOptions, report_signature
from repro.application.translate import translate_application
from repro.testing import write_spec
from repro.testing.faultinject import ENV_VAR


def _entry(message: str) -> dict:
    return {"status": "failure", "payload": {"message": message}, "kernel": "k", "created": 1.0}


def _fp(n: int) -> str:
    """Deterministic fingerprints spread over many shards."""
    return hashlib.sha256(str(n).encode("utf-8")).hexdigest()


class TestShardPrefix:
    def test_hex_keys_bucket_by_leading_chars(self):
        assert shard_prefix("abcdef", 2) == "ab"
        assert shard_prefix("ABCDEF", 2) == "ab"

    def test_unsafe_keys_bucket_by_digest(self):
        weird = shard_prefix("/../evil", 2)
        assert len(weird) == 2 and weird.isalnum()
        assert shard_prefix("/../evil", 2) == weird  # deterministic

    def test_short_keys_still_bucket(self):
        assert len(shard_prefix("a", 2)) == 2

    def test_shard_path_is_under_root(self, tmp_path):
        path = shard_path(tmp_path, "c0ffee")
        assert path == tmp_path / "c0"


class TestShardedStore:
    def test_append_load_roundtrip(self, tmp_path):
        store = ShardedStore(tmp_path / "store")
        leftover = store.append({_fp(1): _entry("one"), _fp(2): _entry("two")})
        assert leftover == {}
        assert store.load_all() == {_fp(1): _entry("one"), _fp(2): _entry("two")}

    def test_later_record_wins(self, tmp_path):
        store = ShardedStore(tmp_path / "store")
        store.append({_fp(1): _entry("old")})
        store.append({_fp(1): _entry("new")})
        assert store.load_all()[_fp(1)] == _entry("new")
        assert store.record_count() == 2  # append-only until compaction

    def test_damaged_line_skipped_with_warning(self, tmp_path):
        store = ShardedStore(tmp_path / "store")
        store.append({_fp(1): _entry("keep"), _fp(2): _entry("also")})
        shard = store.shard_file(_fp(1))
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write('{"fp": "torn...\n')
        with pytest.warns(CacheIntegrityWarning, match="undecodable"):
            entries = store.load_all()
        assert entries[_fp(1)] == _entry("keep")
        assert entries[_fp(2)] == _entry("also")

    def test_stale_version_records_warn_and_drop(self, tmp_path):
        old = ShardedStore(tmp_path / "store", code_version=CODE_VERSION + "-old")
        old.append({_fp(1): _entry("stale")})
        new = ShardedStore(tmp_path / "store")
        new.append({_fp(2): _entry("live")})
        with pytest.warns(StaleVersionWarning, match="1 entries from"):
            entries = new.load_all()
        assert entries == {_fp(2): _entry("live")}

    def test_torn_tail_healed_before_next_append(self, tmp_path):
        first, second = "0" * 64, "0" * 63 + "1"  # same shard, distinct keys
        store = ShardedStore(tmp_path / "store")
        store.append({first: _entry("first")})
        shard = store.shard_file(first)
        # Simulate a writer killed mid-append: no trailing newline.
        with open(shard, "ab") as handle:
            handle.write(b'{"fp": "half')
        store.append({second: _entry("second")})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            entries = store.load_all()
        assert entries[first] == _entry("first")
        assert entries[second] == _entry("second")

    def test_compaction_drops_dead_records(self, tmp_path):
        store = ShardedStore(tmp_path / "store", compact_min_records=4, compact_factor=2)
        # Rewrite one fingerprint until the shard is mostly dead weight.
        for round_number in range(12):
            store.append({_fp(1): _entry(f"round {round_number}")})
        assert store.compactions >= 1
        assert store.load_all()[_fp(1)] == _entry("round 11")
        assert store.record_count() < 12

    def test_forced_compact_reports_counts(self, tmp_path):
        store = ShardedStore(tmp_path / "store")
        store.append({_fp(1): _entry("a")})
        store.append({_fp(1): _entry("b")})
        result = store.compact()
        assert result["records_before"] == 2
        assert result["records_after"] == 1
        assert store.load_all()[_fp(1)] == _entry("b")


class TestSuffixRule:
    """Any path, ``.json`` suffix or not, is a sharded directory."""

    def test_directory_path_is_sharded(self, tmp_path):
        cache = SynthesisCache(tmp_path / "store", autosave=False)
        cache.record_failure(_fp(1), "m")
        cache.save()
        assert (tmp_path / "store").is_dir()
        assert list((tmp_path / "store").glob("shard-*.jsonl"))

    def test_sharded_save_appends_only_new_entries(self, tmp_path):
        cache = SynthesisCache(tmp_path / "store", autosave=False)
        cache.record_failure(_fp(1), "one")
        cache.save()
        store = ShardedStore(tmp_path / "store")
        assert store.record_count() == 1
        cache.record_failure(_fp(2), "two")
        cache.save()
        assert store.record_count() == 2  # not rewritten, appended

    def test_two_instances_merge_through_shards(self, tmp_path):
        a = SynthesisCache(tmp_path / "store", autosave=False)
        b = SynthesisCache(tmp_path / "store", autosave=False)
        a.record_failure(_fp(1), "from a")
        b.record_failure(_fp(2), "from b")
        a.save()
        b.save()
        assert b.get(_fp(1)) is not None  # merge-save folded a's entry in
        reread = SynthesisCache(tmp_path / "store", autosave=False)
        assert len(reread) == 2


class TestMigration:
    def _legacy(self, path: Path, count: int = 3) -> None:
        entries = {_fp(n): _entry(f"legacy {n}") for n in range(1, count + 1)}
        path.write_text(
            json.dumps({"version": CODE_VERSION, "entries": entries}),
            encoding="utf-8",
        )

    def test_roundtrip_preserves_entries_and_original(self, tmp_path):
        legacy = tmp_path / "store"
        self._legacy(legacy)
        original_bytes = legacy.read_bytes()
        cache = SynthesisCache(legacy, autosave=False)
        assert len(cache) == 3
        assert cache.get(_fp(2)).failure_message == "legacy 2"
        migrated = Path(str(legacy) + ".migrated")
        assert migrated.read_bytes() == original_bytes
        assert legacy.is_dir()

    def test_migration_is_idempotent(self, tmp_path):
        legacy = tmp_path / "store"
        self._legacy(legacy)
        SynthesisCache(legacy, autosave=False)
        again = SynthesisCache(legacy, autosave=False)
        assert len(again) == 3
        # New entries keep flowing into the migrated store.
        again.record_failure(_fp(9), "post-migration")
        again.save()
        assert len(SynthesisCache(legacy, autosave=False)) == 4

    def test_version_skewed_legacy_migrates_to_empty(self, tmp_path):
        legacy = tmp_path / "store"
        entries = {_fp(1): _entry("stale")}
        legacy.write_text(
            json.dumps({"version": "older", "entries": entries}), encoding="utf-8"
        )
        with pytest.warns(StaleVersionWarning):
            cache = SynthesisCache(legacy, autosave=False)
        assert len(cache) == 0
        assert Path(str(legacy) + ".migrated").is_file()

    def test_corrupt_legacy_file_quarantines_to_empty_store(self, tmp_path):
        legacy = tmp_path / "store"
        legacy.write_text('{"version": "torn', encoding="utf-8")
        with pytest.warns(CacheIntegrityWarning, match="quarantined"):
            cache = SynthesisCache(legacy, autosave=False)
        assert len(cache) == 0
        assert legacy.is_dir()
        assert Path(str(legacy) + ".corrupt-1").read_text(encoding="utf-8") == '{"version": "torn'
        assert not Path(str(legacy) + ".migrated").exists()
        assert not list(tmp_path.glob("*.migrating-*"))
        # The empty store is a working one.
        cache.record_failure(_fp(1), "fresh")
        cache.save()
        assert len(SynthesisCache(legacy, autosave=False)) == 1


WRITER_SCRIPT = r"""
import hashlib, sys
from repro.cache import ShardedStore
root, writer_id, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
store = ShardedStore(root, compact_min_records=8, compact_factor=2)
def entry(msg):
    return {"status": "failure", "payload": {"message": msg}, "kernel": "k", "created": 1.0}
for n in range(rounds):
    fp = hashlib.sha256(("w%d-%d" % (writer_id, n)).encode()).hexdigest()
    # One unique entry plus a contended rewrite of a shared fingerprint:
    # the rewrites are the dead weight that forces compaction under load.
    leftover = store.append({fp: entry("w%d n%d" % (writer_id, n))})
    assert not leftover, leftover
    store.append({"ff" * 32: entry("hot w%d n%d" % (writer_id, n))})
print(store.compactions)
"""


class TestConcurrentWriters:
    def test_multiprocess_stress_loses_nothing(self, tmp_path):
        root = tmp_path / "store"
        writers, rounds = 4, 24
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[1] / "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", WRITER_SCRIPT, str(root), str(writer_id), str(rounds)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for writer_id in range(writers)
        ]
        compactions = 0
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            compactions += int(out.strip() or 0)
        store = ShardedStore(root)
        entries = store.load_all()
        # Every unique entry from every writer survived...
        for writer_id in range(writers):
            for n in range(rounds):
                fp = hashlib.sha256(f"w{writer_id}-{n}".encode()).hexdigest()
                assert fp in entries, (writer_id, n)
        # ...the contended fingerprint holds one of the racers' values...
        assert entries["ff" * 32]["payload"]["message"].startswith("hot w")
        # ...and compaction really ran while writers contended.
        assert compactions > 0

    def test_kill_mid_append_leaves_store_loadable(self, tmp_path):
        root = tmp_path / "store"
        ShardedStore(root).append({_fp(1): _entry("survivor")})
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "faults-state",
            [{"site": "shard-append", "kind": "kill", "occurrences": [1]}],
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[1] / "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        env[ENV_VAR] = str(spec)
        script = (
            "from repro.cache import ShardedStore\n"
            f"store = ShardedStore({str(root)!r})\n"
            "store.append({'d' * 64: {'status': 'failure', "
            "'payload': {'message': 'doomed'}, 'kernel': 'k', 'created': 1.0}})\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, timeout=60
        )
        assert proc.returncode == -9  # SIGKILL, holding the shard lock
        store = ShardedStore(root, lock_timeout=5.0)
        assert store.load_all() == {_fp(1): _entry("survivor")}
        # The dead writer's shard lock is reclaimed, not a deadlock.
        leftover = store.append({_fp(2): _entry("after the crash")})
        assert leftover == {}
        assert len(store.load_all()) == 2

    def test_injected_torn_append_recovers_other_records(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        store = ShardedStore(root)
        survivor, doomed = "a" * 64, "b" * 64  # distinct shards
        store.append({survivor: _entry("before")})
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "faults-state",
            [{"site": "shard-log", "kind": "truncate", "occurrences": [1]}],
        )
        monkeypatch.setenv(ENV_VAR, str(spec))
        store.append({doomed: _entry("torn mid-write")})  # shard torn in half
        monkeypatch.delenv(ENV_VAR)
        with pytest.warns(CacheIntegrityWarning, match="undecodable"):
            entries = ShardedStore(root).load_all()
        assert entries == {survivor: _entry("before")}
        # The torn shard heals on the next append and compacts away the
        # damaged line once the shard crosses the compaction threshold.
        healed = ShardedStore(root, compact_min_records=2, compact_factor=100)
        healed.append({doomed: _entry("retried")})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert healed.load_all()[doomed] == _entry("retried")
        assert healed.compactions >= 1  # damage triggers the rewrite


class TestReportParity:
    SOURCE = (
        "subroutine doubler(n, a, b)\n"
        "real (kind=8), dimension(1:n) :: a\n"
        "real (kind=8), dimension(1:n) :: b\n"
        "integer :: n\n"
        "do i = 2, n-1\n"
        "  a(i) = b(i-1) + b(i+1)\n"
        "enddo\n"
        "end subroutine doubler\n"
    )

    def test_sharded_and_legacy_reports_are_byte_identical(self, tmp_path):
        options = PipelineOptions(verifier_environments=1, inductive=False)
        cold_cache = SynthesisCache(tmp_path / "sharded", autosave=False)
        cold = translate_application(
            self.SOURCE, options, cache=cold_cache, driver="doubler"
        )
        cold_cache.save()
        expected = [report_signature(tk.report) for tk in cold.translated]
        assert expected and cold.cache_misses > 0
        # Warm through the sharded store: same bytes, zero synthesis.
        warm = translate_application(
            self.SOURCE,
            options,
            cache=SynthesisCache(tmp_path / "sharded", autosave=False),
            driver="doubler",
        )
        assert warm.cache_misses == 0
        assert [report_signature(tk.report) for tk in warm.translated] == expected
        # The same entries written in the retired single-JSON format are
        # imported on open and replay the same bytes.
        legacy = tmp_path / "legacy.json"
        legacy.write_text(
            json.dumps({"version": CODE_VERSION, "entries": cold_cache.snapshot_entries()}),
            encoding="utf-8",
        )
        migrated = translate_application(
            self.SOURCE,
            options,
            cache=SynthesisCache(legacy, autosave=False),
            driver="doubler",
        )
        assert migrated.cache_misses == 0
        assert [report_signature(tk.report) for tk in migrated.translated] == expected
