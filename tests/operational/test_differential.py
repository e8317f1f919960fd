"""Cross-semantics differential harness for cached exploration.

An operational closure at depth n is the same §3 bounded trace set as
the denotational one, so both engines cache it under the same
``traces:{engine}:{name}:d{n}`` slots, governed or not.  The claim checked here is an *equivalence*: a warm operational
run served from those slots is state-set- and verdict-identical to a
cold exploration, which is in turn identical to the denotational engine
— on the paper's systems suite, on randomly generated networks, under
fault injection, and after the source is edited.  Closure equality
below is pointer equality of interned trie roots, so "identical" means
byte-identical snapshots too.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operational.explorer import Explorer
from repro.operational.step import OperationalSemantics
from repro.process.ast import Name
from repro.process.definitions import DefinitionList, ProcessDef
from repro.process.parser import parse_definitions
from repro.runtime import faults
from repro.runtime.faults import FaultInjected, FaultPlan
from repro.runtime.governor import Budget, activate
from repro.sat.checker import SatChecker
from repro.semantics.config import SemanticsConfig
from repro.semantics.denotation import denote
from repro.soundness.generators import AssertionGenerator, ProcessGenerator
from repro.systems import copier, protocol
from repro.traces.prefix_closure import FiniteClosure
from repro.traces.snapshot import SnapshotCache, cache_key
from repro.values.environment import Environment

pytestmark = pytest.mark.differential

CFG = SemanticsConfig(depth=4, sample=2)

SYSTEMS = [
    ("copier", copier.definitions(), copier.environment(), "copier"),
    ("recopier", copier.definitions(), copier.environment(), "recopier"),
    ("copier-net", copier.definitions(), copier.environment(), "network"),
    ("sender", protocol.definitions(), protocol.environment(), "sender"),
    ("receiver", protocol.definitions(), protocol.environment(), "receiver"),
    ("protocol", protocol.definitions(), protocol.environment(), "protocol"),
]


def _checker(defs, env, directory=None, engine="operational"):
    cache = None
    if directory is not None:
        cache = SnapshotCache(Path(directory), cache_key(defs, CFG))
    return SatChecker(defs, env, CFG, engine=engine, cache=cache)


class TestWarmEqualsColdAcrossSystems:
    @pytest.mark.parametrize("label,defs,env,name", SYSTEMS)
    def test_state_sets_and_verdicts_agree(self, label, defs, env, name, tmp_path):
        cold = _checker(defs, env).traces_of(Name(name))

        first = _checker(defs, env, tmp_path)
        assert first.traces_of(Name(name)) == cold, label
        first.cache.save()

        second = _checker(defs, env, tmp_path)
        warm = second.traces_of(Name(name))
        assert warm == cold, label  # pointer equality of interned roots
        assert warm.traces == cold.traces, label
        # Served from the closure slot: a cache hit, and no explorer built.
        assert second.cache.hits == 1, label
        assert second._operational is None, label

        denotational = denote(Name(name), defs, env=env, config=CFG)
        assert warm == denotational, label

    @pytest.mark.parametrize("label,defs,env,name", SYSTEMS)
    def test_shallower_warm_request_truncates(self, label, defs, env, name, tmp_path):
        # A warm run at a *shallower* depth must serve the truncation of
        # the cached closure, not the deeper slot that happens to be there.
        deep = _checker(defs, env, tmp_path)
        full = deep.traces_of(Name(name))
        deep.cache.save()
        warm = _checker(defs, env, tmp_path)
        shallow = warm.traces_of(Name(name), depth=2)
        assert shallow == full.truncate(2), label


class TestVerdictsByteIdentical:
    SPECS = [
        "wire <= input",
        "input <= wire",  # false: the counterexample path must agree too
        "#wire <= #input",
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_cold_warm_denotational_verdicts(self, spec, tmp_path):
        defs, env = copier.definitions(), copier.environment()
        cold = _checker(defs, env).check(Name("copier"), spec)

        first = _checker(defs, env, tmp_path)
        first.check(Name("copier"), spec)
        first.cache.save()
        warm = _checker(defs, env, tmp_path).check(Name("copier"), spec)

        deno = _checker(defs, env, engine="denotational").check(
            Name("copier"), spec
        )
        for other in (warm, deno):
            assert other.holds == cold.holds, spec
            assert other.traces_checked == cold.traces_checked, spec
            if cold.counterexample is not None:
                assert other.counterexample.trace == cold.counterexample.trace


@pytest.mark.slow
class TestGeneratedNetworks:
    """Random binary networks (synchronisation + hiding — where the two
    semantics could genuinely diverge), checked cold vs warm vs
    denotational with a generated assertion per system."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_differential_on_random_network(self, seed):
        term = ProcessGenerator(seed=seed, max_depth=3).network()
        defs = DefinitionList([ProcessDef("sys", term)])
        spec = AssertionGenerator(seed=seed).formula()

        cold = _checker(defs, Environment()).traces_of(Name("sys"))
        denotational = denote(Name("sys"), defs, config=CFG)
        assert cold == denotational
        assert cold.traces == denotational.traces

        directory = Path(tempfile.mkdtemp(prefix="repro-diff-"))
        try:
            first = _checker(defs, Environment(), directory)
            cold_verdict = first.check(Name("sys"), spec)
            first.cache.save()
            warm_checker = _checker(defs, Environment(), directory)
            assert warm_checker.traces_of(Name("sys")) == cold
            warm_verdict = warm_checker.check(Name("sys"), spec)
            assert warm_verdict.holds == cold_verdict.holds
            assert warm_verdict.traces_checked == cold_verdict.traces_checked
        finally:
            shutil.rmtree(directory, ignore_errors=True)


@pytest.mark.slow
class TestFrontierFaultInjection:
    """Abort safety of a cached operational run: a fault while exploring
    (``explorer.step``) or while writing the snapshot (``snapshot.write``)
    leaves only closures of completed depths behind — each a sound
    truncation of the full answer — and a rerun computes exactly the
    cold closure from whatever survived."""

    DEFS = copier.definitions()

    def _cold(self):
        semantics = OperationalSemantics(
            self.DEFS, copier.environment(), sample=CFG.sample
        )
        return Explorer(semantics).visible_traces(Name("network"), CFG.depth)

    def _checker(self, directory):
        return _checker(self.DEFS, copier.environment(), directory)

    def _traces(self, checker, governed):
        # A governed run deepens level by level, caching each completed
        # depth under its ``traces:…:d{k}`` slot; an ungoverned one
        # caches only the full-depth slot.
        with activate(Budget(max_states=10**9).start() if governed else None):
            return checker.traces_partial(Name("network")).closure

    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from(("explorer.step", "snapshot.write")),
        st.integers(min_value=1, max_value=6),
        st.booleans(),
    )
    def test_abort_then_rerun_matches_cold(self, site, after, governed):
        cold = self._cold()
        directory = Path(tempfile.mkdtemp(prefix="repro-cachefault-"))
        try:
            crashed = self._checker(directory)
            try:
                with faults.inject(FaultPlan(site=site, after=after)):
                    self._traces(crashed, governed)
                    crashed.cache.save()
            except FaultInjected:
                pass
            # The CLI's finally-block saves whatever completed.
            crashed.cache.save()

            # What survived on disk loads cleanly, and every slot holds a
            # sound truncation of the full answer.
            probe = SnapshotCache(directory, cache_key(self.DEFS, CFG))
            assert not probe.quarantined and not probe.rebuilt
            for level in range(CFG.depth + 1):
                node = probe.get(f"traces:operational:network:d{level}")
                if node is not None:
                    assert FiniteClosure.from_node(node) == cold.truncate(level)

            # A clean rerun computes exactly the cold answer, and again
            # once its own slots are saved.
            warm = self._checker(directory)
            assert self._traces(warm, governed) == cold
            assert not warm.cache.quarantined
            warm.cache.save()
            rewarm = self._checker(directory)
            assert self._traces(rewarm, governed).traces == cold.traces
        finally:
            shutil.rmtree(directory, ignore_errors=True)


SOURCE = (
    "copier = input?x:NAT -> wire!x -> copier;"
    "recopier = wire?y:NAT -> output!y -> recopier;"
    "network = chan wire; (copier || recopier)"
)

EDITED = SOURCE.replace("output!y", "output!y -> output!y")


def _network_check(source, directory=None):
    """Check ``output <= input`` on ``source``'s network, cached in
    ``directory`` when given; returns the checker and the result."""
    checker = _checker(parse_definitions(source), Environment(), directory)
    return checker, checker.check(Name("network"), "output <= input")


class TestStaleClosureInvalidation:
    """A ``traces:operational:`` slot keyed by an edited system is never
    reused: the edit changes the cache key, and a stale file copied over
    the new key's name is quarantined, never decoded."""

    def test_edited_source_never_reuses_old_closure(self, tmp_path):
        # First run on the original system caches its closure.
        source_file = tmp_path / "network.csp"
        source_file.write_text(SOURCE)
        checker, result = _network_check(source_file.read_text(), tmp_path)
        assert result.holds
        checker.cache.save()
        old_path = checker.cache.path
        assert old_path.exists()

        # Editing the .csp changes the cache key: the old file is
        # orphaned, the new run misses and explores from scratch.
        source_file.write_text(EDITED)
        edited, result = _network_check(source_file.read_text(), tmp_path)
        assert edited.cache.path != old_path
        assert old_path.exists()  # orphaned, not clobbered
        assert edited.cache.hits == 0
        assert edited._operational is not None
        # The verdict is the edited system's own (here a refutation —
        # doubled output breaks the prefix property), identical to a
        # cold cacheless run; a stale closure would have kept it green.
        _, cold = _network_check(EDITED)
        assert result.holds == cold.holds is False
        assert result.counterexample.trace == cold.counterexample.trace

    def test_key_mismatched_file_is_quarantined_not_reused(self, tmp_path):
        # A stale snapshot copied over the new key's filename (wrong
        # key *inside* the payload) must be quarantined, never decoded
        # into closures.
        checker, _ = _network_check(SOURCE, tmp_path)
        checker.cache.save()
        edited_key = cache_key(parse_definitions(EDITED), CFG)
        shutil.copy(checker.cache.path, tmp_path / f"snapshot-{edited_key}.json")

        edited, result = _network_check(EDITED, tmp_path)
        assert edited.cache.rebuilt
        assert edited.cache.quarantined
        assert (tmp_path / "quarantine").exists()
        assert edited.cache.hits == 0
        _, cold = _network_check(EDITED)
        assert result.holds == cold.holds
        assert result.traces_checked == cold.traces_checked
