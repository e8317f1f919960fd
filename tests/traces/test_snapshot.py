"""Unit tests for persisted closure snapshots.

The cache's core safety property: a snapshot is *never trusted*.  Every
decoded node goes back through the arena interner (so it is canonical by
construction), and any structural defect — corrupt JSON, unaligned or
undecodable packed segments, dangling indices, wrong format version,
wrong content key — silently discards the file and rebuilds from
scratch.  That includes format-1 (pre-arena) files under the same
content key: a cache is never truth, so an old layout simply misses.
"""

import hashlib
import json

import pytest

from repro.errors import BudgetExceeded
from repro.process.ast import Name
from repro.process.parser import parse_definitions
from repro.runtime.governor import Budget, activate
from repro.semantics.config import SemanticsConfig
from repro.semantics.denotation import denote
from repro.semantics.engine import DenotationEngine
from repro.serialize import pack_ints, pack_ints64, unpack_ints, unpack_ints64
from repro.systems import buffer, copier, philosophers, protocol
from repro.traces.snapshot import (
    FORMAT_VERSION,
    SnapshotCache,
    SnapshotError,
    cache_key,
    decode_roots,
    encode_roots,
)
from repro.traces.trie import private_state

CFG = SemanticsConfig(depth=3, sample=2)
DEFS = parse_definitions("copier = input?x:NAT -> wire!x -> copier")


def _closure():
    defs = parse_definitions("p = a!0 -> b!1 -> p")
    return denote(Name("p"), defs, config=CFG)


class TestRoundTrip:
    def test_same_interner_identity(self):
        closure = _closure()
        decoded = decode_roots(encode_roots({"p": closure.root}))
        assert decoded["p"] is closure.root

    def test_cold_interner_decodes_to_canonical_nodes(self):
        closure = _closure()
        payload = json.loads(json.dumps(encode_roots({"p": closure.root})))
        with private_state():
            decoded = decode_roots(payload)
            rebuilt = denote(
                Name("p"), parse_definitions("p = a!0 -> b!1 -> p"), config=CFG
            )
            # decoding re-interns: the snapshot node IS the node a fresh
            # denotation builds, pointer-identically
            assert decoded["p"] is rebuilt.root

    def test_shared_subtrees_written_once(self):
        closure = _closure()
        data = encode_roots({"p": closure.root, "q": closure.root})
        assert data["roots"]["p"] == data["roots"]["q"]


class TestDecodeRejectsDefects:
    def test_dangling_child_index(self):
        data = encode_roots({"p": _closure().root})
        children = unpack_ints(data["edge_children"])
        children[-1] = 10_000
        data["edge_children"] = pack_ints(children)
        with pytest.raises(SnapshotError, match="post-order"):
            decode_roots(data)

    def test_bad_event_index(self):
        data = encode_roots({"p": _closure().root})
        events = unpack_ints(data["edge_events"])
        events[0] = 10_000
        data["edge_events"] = pack_ints(events)
        with pytest.raises(SnapshotError, match="bad event index"):
            decode_roots(data)

    def test_arity_segment_mismatch(self):
        data = encode_roots({"p": _closure().root})
        arity = unpack_ints(data["arity"])
        arity[-1] += 1
        data["arity"] = pack_ints(arity)
        with pytest.raises(SnapshotError, match="arity"):
            decode_roots(data)

    def test_edge_segments_disagree(self):
        data = encode_roots({"p": _closure().root})
        children = unpack_ints(data["edge_children"])
        data["edge_children"] = pack_ints(children[:-1])
        with pytest.raises(SnapshotError, match="disagree"):
            decode_roots(data)

    def test_unaligned_buffer_bytes(self):
        data = encode_roots({"p": _closure().root})
        # valid base64, but not a whole number of 32-bit items
        data["edge_children"] = "AAAA" + data["edge_children"]
        with pytest.raises(SnapshotError):
            decode_roots(data)

    def test_non_base64_buffer(self):
        data = encode_roots({"p": _closure().root})
        data["arity"] = "!!! not base64 !!!"
        with pytest.raises(SnapshotError):
            decode_roots(data)

    def test_corrupt_counts_rejected_cold(self):
        data = encode_roots({"p": _closure().root})
        counts = unpack_ints64(data["counts"])
        counts[-1] += 5
        data["counts"] = pack_ints64(counts)
        with private_state():  # cold arena: every node interned fresh
            with pytest.raises(SnapshotError, match="counts"):
                decode_roots(data)

    def test_corrupt_counts_rejected_warm(self):
        data = encode_roots({"p": _closure().root})
        counts = unpack_ints64(data["counts"])
        counts[-1] += 5
        data["counts"] = pack_ints64(counts)
        # nodes already interned: the sequential path cross-checks the
        # stored metadata against the interner's own derived values
        with pytest.raises(SnapshotError, match="counts"):
            decode_roots(data)

    def test_corrupt_heights_rejected(self):
        data = encode_roots({"p": _closure().root})
        heights = unpack_ints(data["heights"])
        heights[-1] += 1
        data["heights"] = pack_ints(heights)
        with private_state():
            with pytest.raises(SnapshotError, match="heights"):
                decode_roots(data)
        with pytest.raises(SnapshotError, match="heights"):
            decode_roots(data)

    def test_counts_segment_length_mismatch(self):
        data = encode_roots({"p": _closure().root})
        counts = unpack_ints64(data["counts"])
        data["counts"] = pack_ints64(counts[:-1])
        with pytest.raises(SnapshotError, match="counts"):
            decode_roots(data)

    def test_bad_root_index(self):
        data = encode_roots({"p": _closure().root})
        data["roots"]["p"] = 10_000
        with pytest.raises(SnapshotError, match="bad root entry"):
            decode_roots(data)

    def test_non_event_in_event_table(self):
        data = encode_roots({"p": _closure().root})
        data["events"] = [{"__kind__": "Channel", "name": "a", "index": None}]
        with pytest.raises(SnapshotError):
            decode_roots(data)

    def test_garbage_payload(self):
        with pytest.raises(SnapshotError):
            decode_roots({"events": "nope", "arity": 3, "roots": []})


class TestGovernedDecode:
    """Re-interned nodes are charged to --max-nodes.  A load the budget
    cannot pay for in full is a budget trip, not a defect, and is
    refused before it interns or charges anything."""

    def test_load_over_budget_is_refused_up_front(self):
        payload = encode_roots({"p": _closure().root})
        with private_state() as state:
            arena = state.arena
            before = (arena.node_count(), len(arena.interner))
            governor = Budget(max_nodes=1).start()
            with activate(governor):
                with pytest.raises(BudgetExceeded):
                    decode_roots(payload)
            assert governor.nodes_interned == 0 and not governor.exhausted
            assert (arena.node_count(), len(arena.interner)) == before

    def test_load_within_budget_is_charged_per_fresh_node(self):
        payload = encode_roots({"p": _closure().root})
        fresh = len(unpack_ints(payload["arity"])) - 1  # all but the leaf
        with private_state():
            governor = Budget(max_nodes=fresh).start()
            with activate(governor):
                decode_roots(payload)
            assert governor.nodes_interned == fresh


class TestCodec:
    """One codec for files and shipped frames.  On every shipped system
    a payload decodes back to the views that built it, re-encodes to
    itself from a cold arena, and hashes to a pinned SHA-256: the bytes
    must not drift, or caches already on disk would stop loading."""

    SYSTEMS = [
        pytest.param(
            copier, {}, 7,
            "a09a35d51221da78c8a72111aa77049fa865109d4dd3e25ceadc3c6e32c80409",
            id="copier-d7",
        ),
        pytest.param(
            protocol, {}, 6,
            "830df6d656709ef164f5258c184d77d09bc286eb075f4a771dfff92e4fad8e93",
            id="protocol-d6",
        ),
        pytest.param(
            philosophers, {"seats": 3}, 6,
            "c44e0a03fd573d3d3ad23e257a9babd7a8c32fd77ce867acee319a75fd136735",
            id="philosophers3-d6",
        ),
        pytest.param(
            buffer, {"places": 3}, 6,
            "915fc56abe3cc36489c1eac56f7aeaa2a5ea07626722f16e224aa88e13d62b8d",
            id="buffer3-d6",
        ),
    ]

    @pytest.mark.parametrize("system, size, depth, digest", SYSTEMS)
    def test_round_trip_and_pinned_payload(self, system, size, depth, digest):
        # A fresh arena: event ids, and so the payload's event order,
        # depend on what the arena interned before.
        with private_state():
            engine = DenotationEngine(
                system.definitions(**size),
                system.environment(),
                SemanticsConfig(depth=depth),
            )
            roots = {
                f"{name}[{sub}]": closure.root
                for name, value in engine.fixpoint().items()
                for sub, closure in (
                    value.items() if isinstance(value, dict) else [(None, value)]
                )
            }
            payload = encode_roots(roots)
            # Into the arena that built them: the very same views.
            decoded = decode_roots(payload)
            assert all(decoded[slot] is roots[slot] for slot in roots)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == digest
        # Into a cold arena: the decoded roots re-encode to the payload.
        with private_state():
            assert encode_roots(decode_roots(payload)) == payload


class TestLegacyFormat:
    """Format-1 files (the pre-arena object-walk layout) share the
    content key with current files.  There is no legacy codec: a cache
    is never truth, so any format-1 file, whole or corrupt, misses and
    is rebuilt."""

    def _write_legacy(self, tmp_path, key, nodes, roots):
        data = {
            "format": 1,
            "key": key,
            "events": [],
            "nodes": nodes,
            "roots": roots,
        }
        path = tmp_path / f"snapshot-{key}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    def test_corrupt_legacy_rebuilt(self, tmp_path):
        key = cache_key(DEFS, CFG)
        # the root points past the truncated node list
        self._write_legacy(tmp_path, key, [[]], {"fix:p": 3})
        cache = SnapshotCache(tmp_path, key)
        assert cache.rebuilt and not cache.loaded
        assert cache.quarantined
        assert cache.get("fix:p") is None

    def test_whole_legacy_rebuilt(self, tmp_path):
        key = cache_key(DEFS, CFG)
        self._write_legacy(tmp_path, key, [[]], {"fix:p": 0})
        cache = SnapshotCache(tmp_path, key)
        assert cache.rebuilt and not cache.loaded
        assert cache.quarantined
        assert cache.get("fix:p") is None


class TestFilesWithBlobTable:
    """Format-2 files written while the operational engine persisted
    explorer frontiers carry a ``blobs`` table and ``frontier:``/
    ``forall:`` slot names.  Their root layout is the current one, so
    they load as they are: the closure slots are served, and the blob
    table is ignored and dropped by the next save."""

    #: A frontier blob and a ``forall`` receipt as those writers stored
    #: them for ``p = a!0 -> b!1 -> p``.
    BLOBS = {
        "frontier:operational:p@level2": {
            "level": 2,
            "complete": False,
            "events": [
                {"kind": "Event", "channel": {"kind": "Channel", "name": "a",
                                              "index": None}, "message": 0},
                {"kind": "Event", "channel": {"kind": "Channel", "name": "b",
                                              "index": None}, "message": 1},
            ],
            "states": [{"kind": "LeafState", "term": {"kind": "Name", "name": "p"}}],
            "frontier": [[[0, 1], [0]]],
        },
        "forall:operational:claim:v@instance0": {
            "holds": True,
            "traces_checked": 4,
            "verified_depth": 3,
        },
    }

    def test_loads_serves_closure_slots_and_drops_blobs_on_save(self, tmp_path):
        key = cache_key(DEFS, CFG)
        closure = _closure()
        shallow = closure.truncate(2)
        data = encode_roots(
            {
                "traces:operational:p:d3": closure.root,
                "fix:operational:p@level2": shallow.root,
                "frontier:operational:p@level2": shallow.root,
            }
        )
        data.update(format=FORMAT_VERSION, key=key, blobs=self.BLOBS)
        path = tmp_path / f"snapshot-{key}.json"
        path.write_text(json.dumps(data), encoding="utf-8")

        cache = SnapshotCache(tmp_path, key)
        assert cache.loaded and not cache.rebuilt and not cache.quarantined
        assert cache.get("traces:operational:p:d3") is closure.root

        cache.put("traces:operational:p:d2", shallow.root)
        cache.save()
        saved = json.loads(path.read_text(encoding="utf-8"))
        assert "blobs" not in saved
        # No run reads the old ``fix:`` and ``frontier:`` slots; the merge
        # before a write carries them along.
        assert {
            "fix:operational:p@level2", "frontier:operational:p@level2"
        } <= set(saved["roots"])
        assert not (tmp_path / "quarantine").exists()
        reloaded = SnapshotCache(tmp_path, key)
        assert reloaded.get("traces:operational:p:d3") is closure.root
        assert reloaded.get("traces:operational:p:d2") is shallow.root


class TestCacheKey:
    def test_sensitive_to_definitions(self):
        other = parse_definitions("copier = input?x:NAT -> out!x -> copier")
        assert cache_key(DEFS, CFG) != cache_key(other, CFG)

    def test_sensitive_to_config(self):
        assert cache_key(DEFS, CFG) != cache_key(
            DEFS, SemanticsConfig(depth=4, sample=2)
        )

    def test_sensitive_to_extra(self):
        assert cache_key(DEFS, CFG, extra={"sets": ["M={0,1}"]}) != cache_key(
            DEFS, CFG, extra=None
        )

    def test_deterministic(self):
        assert cache_key(DEFS, CFG) == cache_key(
            parse_definitions("copier = input?x:NAT -> wire!x -> copier"), CFG
        )


class TestSnapshotCache:
    def test_save_and_reload(self, tmp_path):
        key = cache_key(DEFS, CFG)
        cache = SnapshotCache(tmp_path, key)
        closure = _closure()
        cache.put("fix:p", closure.root)
        cache.save()
        warm = SnapshotCache(tmp_path, key)
        assert warm.loaded and not warm.rebuilt
        assert warm.get("fix:p") is closure.root
        assert warm.hits == 1

    def test_miss_counts(self, tmp_path):
        cache = SnapshotCache(tmp_path, "k" * 32)
        assert cache.get("fix:ghost") is None
        assert cache.misses == 1

    def test_corrupted_file_rebuilt_never_trusted(self, tmp_path):
        key = cache_key(DEFS, CFG)
        cache = SnapshotCache(tmp_path, key)
        cache.put("fix:p", _closure().root)
        cache.save()
        cache.path.write_text("{not json", encoding="utf-8")
        reopened = SnapshotCache(tmp_path, key)
        assert reopened.rebuilt and not reopened.loaded
        assert reopened.get("fix:p") is None  # nothing salvaged

    def test_truncated_payload_rebuilt(self, tmp_path):
        key = cache_key(DEFS, CFG)
        cache = SnapshotCache(tmp_path, key)
        cache.put("fix:p", _closure().root)
        cache.save()
        data = json.loads(cache.path.read_text(encoding="utf-8"))
        arity = unpack_ints(data["arity"])
        data["arity"] = pack_ints(arity[:1])
        cache.path.write_text(json.dumps(data), encoding="utf-8")
        reopened = SnapshotCache(tmp_path, key)
        assert reopened.rebuilt
        assert reopened.get("fix:p") is None

    def test_stale_format_version_rebuilt(self, tmp_path):
        key = cache_key(DEFS, CFG)
        cache = SnapshotCache(tmp_path, key)
        cache.put("fix:p", _closure().root)
        cache.save()
        data = json.loads(cache.path.read_text(encoding="utf-8"))
        data["format"] = FORMAT_VERSION + 1
        cache.path.write_text(json.dumps(data), encoding="utf-8")
        reopened = SnapshotCache(tmp_path, key)
        assert reopened.rebuilt and reopened.quarantined
        assert reopened.get("fix:p") is None

    def test_foreign_key_rebuilt(self, tmp_path):
        key = cache_key(DEFS, CFG)
        cache = SnapshotCache(tmp_path, key)
        cache.put("fix:p", _closure().root)
        cache.save()
        # same file served for a different key: contents must be ignored
        other = "f" * 32
        cache.path.rename(tmp_path / f"snapshot-{other}.json")
        reopened = SnapshotCache(tmp_path, other)
        assert reopened.rebuilt
        assert reopened.get("fix:p") is None

    def test_unwritable_directory_degrades_silently(self, tmp_path):
        target = tmp_path / "file-not-dir"
        target.write_text("occupied", encoding="utf-8")
        cache = SnapshotCache(target / "sub", "k" * 32)
        cache.put("fix:p", _closure().root)
        cache.save()  # must not raise

    def test_clean_cache_not_rewritten(self, tmp_path):
        key = cache_key(DEFS, CFG)
        cache = SnapshotCache(tmp_path, key)
        cache.put("fix:p", _closure().root)
        cache.save()
        stamp = cache.path.stat().st_mtime_ns
        warm = SnapshotCache(tmp_path, key)
        warm.save()  # nothing dirty: no write
        assert cache.path.stat().st_mtime_ns == stamp


class TestSelfHealing:
    """PR 7 robustness: corrupt files are quarantined (kept for autopsy,
    never trusted, never fatal), writes are atomic + durable, and
    concurrent writers merge instead of clobbering."""

    def _saved_cache(self, tmp_path):
        key = cache_key(DEFS, CFG)
        cache = SnapshotCache(tmp_path, key)
        cache.put("fix:p", _closure().root)
        cache.save()
        return key, cache

    def test_corrupt_file_quarantined_not_deleted(self, tmp_path):
        key, cache = self._saved_cache(tmp_path)
        cache.path.write_text("{not json", encoding="utf-8")
        reopened = SnapshotCache(tmp_path, key)
        assert reopened.rebuilt and reopened.quarantined
        assert not cache.path.exists()  # out of the trust path…
        moved = tmp_path / "quarantine" / cache.path.name
        assert moved.exists()  # …but kept for post-mortem
        assert moved.read_text(encoding="utf-8") == "{not json"

    def test_stale_format_quarantined(self, tmp_path):
        key, cache = self._saved_cache(tmp_path)
        data = json.loads(cache.path.read_text(encoding="utf-8"))
        data["format"] = FORMAT_VERSION + 1
        cache.path.write_text(json.dumps(data), encoding="utf-8")
        reopened = SnapshotCache(tmp_path, key)
        assert reopened.quarantined
        assert (tmp_path / "quarantine" / cache.path.name).exists()

    def test_quarantined_cache_heals_on_next_save(self, tmp_path):
        key, cache = self._saved_cache(tmp_path)
        cache.path.write_text("garbage", encoding="utf-8")
        reopened = SnapshotCache(tmp_path, key)
        reopened.put("fix:p", _closure().root)
        reopened.save()
        healed = SnapshotCache(tmp_path, key)
        assert healed.loaded and not healed.rebuilt
        assert healed.get("fix:p") is _closure().root

    def test_clean_load_is_not_quarantined(self, tmp_path):
        key, _ = self._saved_cache(tmp_path)
        assert not SnapshotCache(tmp_path, key).quarantined

    def test_write_fault_before_tempfile_leaves_old_file(self, tmp_path):
        from repro.runtime import faults

        key, cache = self._saved_cache(tmp_path)
        before = cache.path.read_text(encoding="utf-8")
        cache.put("fix:q", _closure().root)
        with pytest.raises(faults.FaultInjected):
            with faults.inject(faults.FaultPlan("snapshot.write", after=1)):
                cache.save()
        assert cache.path.read_text(encoding="utf-8") == before
        assert not list(tmp_path.glob("*.tmp"))  # no litter

    def test_write_fault_between_write_and_rename_is_atomic(self, tmp_path):
        from repro.runtime import faults

        key, cache = self._saved_cache(tmp_path)
        before = cache.path.read_text(encoding="utf-8")
        cache.put("fix:q", _closure().root)
        with pytest.raises(faults.FaultInjected):
            with faults.inject(faults.FaultPlan("snapshot.write", after=2)):
                cache.save()
        # the temp file was fully written, but never renamed into place:
        # readers still see the old complete snapshot, and the temp file
        # was unlinked on the way out
        assert cache.path.read_text(encoding="utf-8") == before
        assert not list(tmp_path.glob("*.tmp"))
        assert SnapshotCache(tmp_path, key).loaded

    def test_aborted_save_stays_dirty_and_retries(self, tmp_path):
        from repro.runtime import faults

        key, cache = self._saved_cache(tmp_path)
        cache.put("fix:q", _closure().root)
        with pytest.raises(faults.FaultInjected):
            with faults.inject(faults.FaultPlan("snapshot.write", after=1)):
                cache.save()
        cache.save()  # clean retry persists everything
        warm = SnapshotCache(tmp_path, key)
        assert warm.get("fix:p") is _closure().root
        assert warm.get("fix:q") is _closure().root

    def test_concurrent_writers_merge_instead_of_clobber(self, tmp_path):
        key = cache_key(DEFS, CFG)
        first = SnapshotCache(tmp_path, key)
        second = SnapshotCache(tmp_path, key)  # opened before first saves
        first.put("fix:a", _closure().root)
        second.put("fix:b", _closure().root)
        first.save()
        second.save()  # naive write-back would drop fix:a here
        merged = SnapshotCache(tmp_path, key)
        assert merged.get("fix:a") is _closure().root
        assert merged.get("fix:b") is _closure().root

    def test_merge_skips_defective_disk_state(self, tmp_path):
        key = cache_key(DEFS, CFG)
        cache = SnapshotCache(tmp_path, key)
        cache.put("fix:p", _closure().root)
        cache.path.parent.mkdir(parents=True, exist_ok=True)
        cache.path.write_text("scribbled mid-merge", encoding="utf-8")
        cache.save()  # defective disk state contributes nothing
        warm = SnapshotCache(tmp_path, key)
        assert warm.loaded
        assert warm.get("fix:p") is _closure().root


class TestConcurrentGovernedWriters:
    """Satellite: two governed CLI invocations race on the *same*
    snapshot file (same definitions, config, bindings — different
    processes, hence disjoint ``traces:{engine}:{name}:d{k}`` slots).
    The flock + merge-on-save discipline must keep the union: a lost
    update would silently discard one client's checkpoints."""

    def test_no_lost_update_between_concurrent_clients(self, tmp_path):
        import os
        import subprocess
        import sys

        source = tmp_path / "copier.csp"
        source.write_text(
            "copier = input?x:NAT -> wire!x -> copier;\n"
            "recopier = wire?y:NAT -> output!y -> recopier;\n"
            "network = chan wire; (copier || recopier)\n"
        )
        cache_dir = tmp_path / "cache"
        env = dict(os.environ)
        import repro

        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "traces", str(source),
                    "--process", name, "--depth", "3",
                    "--deadline", "60",  # governed: a slot per depth
                    "--cache-dir", str(cache_dir),
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            for name in ("copier", "recopier")
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        snapshots = list(cache_dir.glob("snapshot-*.json"))
        assert len(snapshots) == 1  # same key: both raced on this file
        roots = json.loads(snapshots[0].read_text(encoding="utf-8"))["roots"]
        assert set(roots) == {
            f"traces:denotational:{name}:d{k}"
            for name in ("copier", "recopier")
            for k in range(4)
        }
