"""Fixture suite for ``repro.staticcheck``.

Each rule gets at least one minimal *flagged* and one *not-flagged*
snippet (the positive proves the rule fires, the negative pins its
escape hatches), plus framework coverage: suppression semantics, the
CLI gate, and a self-run over ``src/`` asserting the tree has no
active finding.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.staticcheck import (
    Finding,
    all_rules,
    get_rule,
    parse_suppressions,
    scan_source,
)
from repro.staticcheck.cli import main as cli_main
from repro.staticcheck.rules.pickle_safety import CHECKPOINTED_CLASS_NAMES

REPO_ROOT = Path(__file__).resolve().parents[1]


def check(source: str, relpath: str, *rules: str) -> list[Finding]:
    """Active findings for one snippet, optionally restricted to rules."""
    selected = [get_rule(r) for r in rules] if rules else None
    return scan_source(relpath, textwrap.dedent(source), rules=selected).findings


def rules_hit(findings) -> set:
    return {f.rule for f in findings}


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
class TestDeterminismRule:
    def test_flags_unseeded_rng_wall_clock_and_set_iteration(self):
        findings = check(
            """
            import random
            import time
            import numpy as np

            def sample():
                rng = np.random.default_rng()
                legacy = np.random.shuffle([1, 2])
                stamp = time.time()
                toss = random.random()
                names = set(["b", "a"])
                return [n for n in names], rng, legacy, stamp, toss
            """,
            "core/mod.py",
            "determinism",
        )
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 5
        assert "without a seed" in messages
        assert "global-state sampler" in messages
        assert "wall-clock read" in messages
        assert "process-seeded global RNG" in messages
        assert "hash order" in messages
        assert all(f.rule == "determinism" for f in findings)

    def test_allows_seeded_rng_perf_counter_and_sorted_sets(self):
        findings = check(
            """
            import time
            import numpy as np

            def sample(seed, now):
                rng = np.random.default_rng(seed)
                started = time.perf_counter()
                names = set(["b", "a"])
                ordered = sorted(names)
                hit = "a" in names
                count = len(names)
                return rng, started, ordered, hit, count, now
            """,
            "core/mod.py",
            "determinism",
        )
        assert findings == []

    def test_tracks_set_valued_attributes_and_members(self):
        findings = check(
            """
            class Track:
                def __init__(self):
                    self._seen = set()

                def names(self):
                    return frozenset(self._seen)

            def leak(track):
                return list(track.names)
            """,
            "testbed/mod.py",
            "determinism",
        )
        assert len(findings) == 1
        assert "hash order" in findings[0].message

    def test_scoped_to_deterministic_paths(self):
        source = """
        import time

        def sample():
            return time.time()
        """
        assert check(source, "core/mod.py", "determinism")
        assert check(source, "viz/mod.py", "determinism") == []


# ---------------------------------------------------------------------------
# pickle-safety
# ---------------------------------------------------------------------------
class TestPickleSafetyRule:
    def test_flags_undropped_lock_file_and_lambda(self):
        findings = check(
            """
            import threading

            class Snapshotter:
                def __init__(self, path):
                    self._lock = threading.Lock()
                    self._log = open(path, "a")
                    self._thunk = lambda x: x + 1

                def __getstate__(self):
                    state = self.__dict__.copy()
                    state.pop("_lock")
                    return state
            """,
            "core/mod.py",
            "pickle-safety",
        )
        assert len(findings) == 2
        assert any("_log" in f.message for f in findings)
        assert any("_thunk" in f.message for f in findings)
        assert all("_lock" not in f.message for f in findings)

    def test_flags_known_checkpointed_class_without_getstate(self):
        findings = check(
            """
            class AttackTagger:
                def __init__(self):
                    self._rebuild = lambda: None
            """,
            "core/mod.py",
            "pickle-safety",
        )
        assert len(findings) == 1
        assert "AttackTagger._rebuild" in findings[0].message

    def test_allows_dropped_attrs_and_unpickled_classes(self):
        findings = check(
            """
            import threading

            class Snapshotter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._gen = (x for x in range(3))

                def __getstate__(self):
                    state = self.__dict__.copy()
                    del state["_lock"]
                    state["_gen"] = None
                    return state

            class EphemeralWorker:  # never pickled: no __getstate__, not registered
                def __init__(self):
                    self._lock = threading.Lock()

            class SelfReducing:
                def __init__(self):
                    self._lock = threading.Lock()

                def __reduce__(self):
                    return (SelfReducing, ())
            """,
            "core/mod.py",
            "pickle-safety",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# asyncio-blocking
# ---------------------------------------------------------------------------
class TestAsyncioBlockingRule:
    def test_flags_sleep_sync_io_and_pipeline_touch(self):
        findings = check(
            """
            import time

            async def handler():
                time.sleep(1)

            async def reader(sock):
                return sock.recv(10)

            class Svc:
                async def _dispatch(self):
                    return self.pipeline.submit_alerts([])
            """,
            "service/mod.py",
            "asyncio-blocking",
        )
        assert len(findings) == 3
        messages = "\n".join(f.message for f in findings)
        assert "blocking call time.sleep()" in messages
        assert ".recv()" in messages
        assert "only the consumer owns the pipeline" in messages

    def test_allows_awaited_io_consumer_and_nested_sync_defs(self):
        findings = check(
            """
            import asyncio
            import time

            async def handler():
                await asyncio.sleep(1)

            class Svc:
                async def _consume(self):
                    self.pipeline.submit_alerts([])

                async def stream(self, reader):
                    return await reader.readline()

                def sync_helper(self):
                    time.sleep(0.1)

            async def spawner():
                def blocking():
                    time.sleep(1)
                return await asyncio.to_thread(blocking)
            """,
            "service/mod.py",
            "asyncio-blocking",
        )
        assert findings == []

    def test_scoped_to_service(self):
        source = """
        import time

        async def handler():
            time.sleep(1)
        """
        assert check(source, "service/mod.py", "asyncio-blocking")
        assert check(source, "core/mod.py", "asyncio-blocking") == []


# ---------------------------------------------------------------------------
# shard-boundary
# ---------------------------------------------------------------------------
class TestShardBoundaryRule:
    def test_flags_lambda_closure_and_local_def(self):
        findings = check(
            """
            import multiprocessing

            from repro.testbed.sharding import ShardedDetectorPool

            def build(detector):
                factory = lambda: detector.clone()
                pool = ShardedDetectorPool(factory, n_shards=2)
                direct = ShardedDetectorPool(lambda: detector.clone())

                def local_factory():
                    return detector.clone()

                proc = multiprocessing.Process(target=local_factory)
                return pool, direct, proc
            """,
            "testbed/mod.py",
            "shard-boundary",
        )
        assert len(findings) == 3
        messages = "\n".join(f.message for f in findings)
        assert "lambda" in messages
        assert "nested in build()" in messages

    def test_allows_module_level_factories(self):
        findings = check(
            """
            from repro.testbed.sharding import DetectorTemplate, ShardedDetectorPool

            def module_factory():
                return object()

            def build(detector):
                pool = ShardedDetectorPool(DetectorTemplate(detector), n_shards=2)
                named = ShardedDetectorPool(module_factory)
                return pool, named
            """,
            "testbed/mod.py",
            "shard-boundary",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# semiring-discipline
# ---------------------------------------------------------------------------
class TestSemiringDisciplineRule:
    def test_flags_contaminated_accumulator_and_nested_mix(self):
        findings = check(
            """
            from repro.core.factor_graph import logsumexp_matmul, maxplus_matmul

            def contaminated(a, b, c):
                acc = maxplus_matmul(a, b)
                acc = logsumexp_matmul(acc, c)
                return acc

            def nested(a, b, c):
                return logsumexp_matmul(maxplus_matmul(a, b), c)
            """,
            "core/mod.py",
            "semiring-discipline",
        )
        assert len(findings) == 2
        messages = "\n".join(f.message for f in findings)
        assert "receives both max-plus and log-sum-exp" in messages
        assert "nests a" in messages

    def test_allows_dual_track_and_semiring_parameter(self):
        findings = check(
            """
            from repro.core.factor_graph import logsumexp_matmul, maxplus_matmul

            def dual_track(a, b):
                back_max = [maxplus_matmul(a, b)]
                back_lse = [logsumexp_matmul(a, b)]
                back_max.append(maxplus_matmul(a, b))
                back_lse.append(logsumexp_matmul(a, b))
                return back_max, back_lse

            def generic(a, b, semiring):
                acc = maxplus_matmul(a, b)
                acc = logsumexp_matmul(acc, b)
                return acc
            """,
            "core/mod.py",
            "semiring-discipline",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# shm-lifecycle
# ---------------------------------------------------------------------------
class TestShmLifecycleRule:
    def test_flags_owner_without_close_path_unlink(self):
        findings = check(
            """
            from multiprocessing import shared_memory

            class LeakyRing:
                def __init__(self):
                    self._segment = shared_memory.SharedMemory(
                        name="x", create=True, size=64
                    )

                def close(self):
                    self._segment.close()  # unmap only: still linked!

            class UnlinkOffThePath:
                def __init__(self):
                    self._segment = shared_memory.SharedMemory(
                        name="y", create=True, size=64
                    )

                def poke(self):
                    self._segment.unlink()  # not a close-path method
            """,
            "testbed/mod.py",
            "shm-lifecycle",
        )
        assert len(findings) == 2
        assert all(f.rule == "shm-lifecycle" for f in findings)
        assert "leaks in /dev/shm" in findings[0].message

    def test_allows_owner_with_unlink_and_reader_attach(self):
        findings = check(
            """
            from multiprocessing.shared_memory import SharedMemory

            class OwnedRing:
                def __init__(self):
                    self._segment = SharedMemory(name="x", create=True, size=64)

                def close(self):
                    self._segment.close()
                    self._segment.unlink()

            class ReaderRing:
                def __init__(self, name):
                    self._segment = SharedMemory(name=name)  # attach only

                def close(self):
                    self._segment.close()  # readers must NOT unlink
            """,
            "testbed/mod.py",
            "shm-lifecycle",
        )
        assert findings == []

    def test_module_level_creation_audits_the_module(self):
        flagged = check(
            """
            from multiprocessing.shared_memory import SharedMemory

            def build(name):
                return SharedMemory(name=name, create=True, size=64)
            """,
            "testbed/mod.py",
            "shm-lifecycle",
        )
        assert len(flagged) == 1
        clean = check(
            """
            from multiprocessing.shared_memory import SharedMemory

            def build(name):
                return SharedMemory(name=name, create=True, size=64)

            def teardown(segment):
                segment.close()
                segment.unlink()
            """,
            "testbed/mod.py",
            "shm-lifecycle",
        )
        assert clean == []

    def test_scoped_to_testbed(self):
        findings = check(
            """
            from multiprocessing.shared_memory import SharedMemory

            def build(name):
                return SharedMemory(name=name, create=True, size=64)
            """,
            "core/mod.py",
            "shm-lifecycle",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------
class TestSuppressions:
    SOURCE = """
    import time

    def sample():
        a = time.time()  # staticcheck: disable=determinism -- pinned: display only
        # staticcheck: disable=determinism -- next-line form
        b = time.time()
        c = time.time()  # staticcheck: disable=determinism
        d = time.time()  # staticcheck: disable=pickle-safety -- wrong rule
        return a, b, c, d
    """

    def test_justified_suppressions_apply_bare_and_mismatched_do_not(self):
        result = scan_source(
            "core/mod.py", textwrap.dedent(self.SOURCE), rules=[get_rule("determinism")]
        )
        # a and b suppressed; c (bare) and d (wrong rule) stay active,
        # plus the hygiene finding for the bare suppression.
        assert len(result.suppressed) == 2
        by_rule = rules_hit(result.findings)
        assert by_rule == {"determinism", "suppression-hygiene"}
        determinism = [f for f in result.findings if f.rule == "determinism"]
        assert len(determinism) == 2
        assert result.suppressions_used == 2
        assert result.suppressions_bare == 1
        assert result.suppressions_unused == 1  # the wrong-rule one

    def test_parse_extracts_rules_and_reason(self):
        parsed = parse_suppressions(
            "x = 1  # staticcheck: disable=determinism,pickle-safety -- because\n"
        )
        assert len(parsed) == 1
        assert parsed[0].rules == frozenset({"determinism", "pickle-safety"})
        assert parsed[0].reason == "because"
        assert parsed[0].governed_line == 1

    def test_hash_inside_string_is_not_a_suppression(self):
        parsed = parse_suppressions(
            'x = "# staticcheck: disable=determinism -- not a comment"\n'
        )
        assert parsed == []

    def test_disable_all(self):
        source = """
        import time

        def sample():
            return time.time()  # staticcheck: disable=all -- fixture
        """
        assert check(source, "core/mod.py", "determinism") == []


# ---------------------------------------------------------------------------
# CLI gate
# ---------------------------------------------------------------------------
class TestCli:
    BAD = "import time\n\n\ndef sample():\n    return time.time()\n"
    GOOD = "def sample(now):\n    return now\n"

    @pytest.fixture()
    def project(self, tmp_path, monkeypatch):
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "mod.py").write_text(self.BAD)
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_any_active_finding_fails_the_gate_and_a_fix_passes(self, project, capsys):
        assert cli_main(["core"]) == 1
        assert "determinism" in capsys.readouterr().out
        (project / "core" / "mod.py").write_text(self.GOOD)
        assert cli_main(["core"]) == 0
        assert "no active findings" in capsys.readouterr().out

    def test_an_inline_reasoned_suppression_accepts_a_finding(self, project, capsys):
        accepted = self.BAD.replace(
            "time.time()\n", "time.time()  # staticcheck: disable=determinism -- fixture\n"
        )
        (project / "core" / "mod.py").write_text(accepted)
        assert cli_main(["core"]) == 0

    def test_there_is_no_findings_ledger(self, project):
        for flag in ("--check-baseline", "--write-baseline"):
            with pytest.raises(SystemExit):
                cli_main(["core", flag])
        assert not (REPO_ROOT / "staticcheck_baseline.json").exists()

    def test_stats_and_json_output(self, project, capsys):
        assert cli_main(["core", "--stats"]) == 1
        out = capsys.readouterr().out
        assert "files scanned" in out and "determinism" in out
        assert cli_main(["core", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] and payload["stats"]["files_scanned"] == 1

    def test_list_rules_catalogue(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out


# ---------------------------------------------------------------------------
# self-run: the tree stays clean
# ---------------------------------------------------------------------------
class TestSelfRun:
    def test_src_tree_is_clean(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert cli_main(["src", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "no active findings" in out

    def test_seeded_violation_in_service_coroutine_fails_gate(self, monkeypatch):
        """The acceptance probe: a time.sleep seeded into a server.py
        coroutine must surface as an active finding (the CI gate would
        go red)."""
        server = REPO_ROOT / "src" / "repro" / "service" / "server.py"
        source = server.read_text()
        anchor = "            item = await self._queue.get()"
        assert anchor in source
        seeded = source.replace(
            anchor, "            time.sleep(0.1)\n" + anchor, 1
        )
        result = scan_source("src/repro/service/server.py", seeded)
        assert any(
            f.rule == "asyncio-blocking" and "time.sleep" in f.message
            for f in result.findings
        )

    def test_checkpointed_class_registry_matches_real_classes(self):
        """Every registered checkpointed class name still exists in the
        tree (guards the rule config against renames)."""
        import repro.core.attack_tagger
        import repro.core.baselines
        import repro.core.rule_based
        import repro.testbed.sharding

        modules = [
            repro.core.attack_tagger,
            repro.core.baselines,
            repro.core.rule_based,
            repro.testbed.sharding,
        ]
        for name in sorted(CHECKPOINTED_CLASS_NAMES):
            assert any(hasattr(m, name) for m in modules), name
