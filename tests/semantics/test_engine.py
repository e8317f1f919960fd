"""Unit tests for the dependency-graph denotation engine.

The engine's contract is *exact* reproduction of the monolithic
:class:`~repro.semantics.fixpoint.ApproximationChain` — pointer-identical
roots per definition (and per sampled array subscript) — while spending
strictly fewer definition-level denotations.  These tests check that
contract on the full systems suite at two depths, plus the
engine-specific behaviours: SCC plans, level accounting, budget
soundness, and loud failure on unscheduled bindings.
"""

import pytest

from repro.errors import BudgetExceeded, SemanticsError
from repro.process.parser import parse_definitions
from repro.runtime.governor import Budget, activate
from repro.semantics.config import SemanticsConfig
from repro.semantics.engine import DenotationEngine
from repro.semantics.fixpoint import ApproximationChain, fixpoint_denotation
from repro.systems import buffer, copier, multiplier, philosophers, protocol, register

# sample=3 covers every subscript the systems suite consults (multiplier's
# network reaches mult[3]); depth 4 keeps the suite fast.
CFG = SemanticsConfig(depth=4, sample=3)
#: Deep enough that uneven SCCs outlive their fastest members (protocol's
#: sender stabilises before the q entries it feeds).
DEEP = SemanticsConfig(depth=5, sample=3)

SYSTEMS = [
    pytest.param(copier, id="copier"),
    pytest.param(multiplier, id="multiplier"),
    pytest.param(protocol, id="protocol"),
    pytest.param(buffer, id="buffer"),
    pytest.param(philosophers, id="philosophers"),
    pytest.param(register, id="register"),
]


def _assert_pointer_identical(chain_fix, engine):
    for name, value in chain_fix.items():
        if isinstance(value, dict):
            for subscript, closure in value.items():
                assert engine.closure_for(name, subscript).root is closure.root
        else:
            assert engine.closure_for(name).root is value.root


#: Every system at depth 4 (ids as before) and at depth 5.
EQUIVALENCE = [
    pytest.param(param.values[0], config, id=param.id + suffix)
    for config, suffix in ((CFG, ""), (DEEP, "-d5"))
    for param in SYSTEMS
]


class TestChainEquivalence:
    @pytest.mark.parametrize("system, config", EQUIVALENCE)
    def test_pointer_identical_to_chain(self, system, config):
        defs, env = system.definitions(), system.environment()
        chain = ApproximationChain(defs, env, config)
        engine = DenotationEngine(defs, env, config)
        _assert_pointer_identical(chain.fixpoint(), engine)

    def test_fixpoint_shape_matches_chain(self):
        defs, env = multiplier.definitions(), multiplier.environment()
        chain_fix = ApproximationChain(defs, env, CFG).fixpoint()
        engine_fix = DenotationEngine(defs, env, CFG).fixpoint()
        assert set(chain_fix) == set(engine_fix)
        assert set(chain_fix["mult"]) == set(engine_fix["mult"])

    def test_fixpoint_denotation_matches_the_chain(self):
        defs, env = protocol.definitions(), protocol.environment()
        via_engine = fixpoint_denotation(defs, "sender", env=env, config=CFG)
        via_chain = ApproximationChain(defs, env, CFG).closure_for("sender")
        assert via_engine.root is via_chain.root

    def test_engine_spends_fewer_definition_levels(self):
        defs, env = multiplier.definitions(), multiplier.environment()
        chain = ApproximationChain(defs, env, CFG)
        chain.run_until_stable()
        naive_levels = (chain.levels_computed() - 1) * len(
            list(DenotationEngine(defs, env, CFG).plan())
        )
        engine = DenotationEngine(defs, env, CFG)
        engine.run()
        assert engine.redenoted_entries < chain.redenoted_entries + chain.delta_skipped
        assert engine.redenoted_entries <= naive_levels


class TestScheduling:
    def test_non_recursive_scc_denoted_once(self):
        defs = parse_definitions("leaf = a!0 -> leaf; top = b!0 -> leaf")
        engine = DenotationEngine(defs, config=CFG)
        engine.run()
        top = next(r for r in engine.reports if r.entries == ("top",))
        assert not top.recursive
        assert top.redenoted == 1

    def test_recursive_scc_runs_local_chain(self):
        defs = parse_definitions("p = a!0 -> p")
        engine = DenotationEngine(defs, config=CFG)
        engine.run()
        (report,) = engine.reports
        assert report.recursive
        assert report.levels >= 2  # at least one growth + one stable level
        assert report.redenoted == report.levels

    def test_plan_orders_dependencies_first(self):
        defs = parse_definitions("top = a!0 -> mid; mid = b!0 -> leaf; leaf = c!0 -> leaf")
        plan = DenotationEngine(defs, config=CFG).plan()
        names = [scc.entries[0].name for _, scc in plan]
        assert names.index("leaf") < names.index("mid") < names.index("top")
        ranks = {scc.entries[0].name: rank for rank, scc in plan}
        assert ranks["leaf"] == 0 and ranks["top"] == 2

    def test_explain_mentions_plan_and_totals(self):
        defs, env = multiplier.definitions(), multiplier.environment()
        engine = DenotationEngine(defs, env, CFG)
        text = engine.explain()
        assert "engine plan:" in text
        assert "rank 0" in text
        assert "definition-levels denoted" in text

    def test_levels_computed_comparable_to_chain(self):
        defs, env = copier.definitions(), copier.environment()
        chain = ApproximationChain(defs, env, CFG)
        chain.run_until_stable()
        engine = DenotationEngine(defs, env, CFG)
        engine.run()
        # The engine's deepest local chain never outruns the monolithic
        # chain, and a recursive definition always needs at least one
        # growth level beyond the bottom.
        assert 2 <= engine.levels_computed() <= chain.levels_computed()


class TestErrors:
    def test_missing_array_subscript(self):
        defs, env = multiplier.definitions(), multiplier.environment()
        engine = DenotationEngine(defs, env, CFG)
        with pytest.raises(SemanticsError, match="no sampled subscript"):
            engine.closure_for("mult", 99)

    def test_subscript_on_plain_name(self):
        defs, env = copier.definitions(), copier.environment()
        engine = DenotationEngine(defs, env, CFG)
        with pytest.raises(SemanticsError, match="not a process array"):
            engine.closure_for("copier", 1)

    def test_out_of_sample_lookup_matches_chain_message(self):
        # Consulting an out-of-sample subscript through engine bindings
        # raises the same guidance the chain gives.
        defs, env = multiplier.definitions(), multiplier.environment()
        engine = DenotationEngine(defs, env, CFG)
        bindings = engine.bindings()
        with pytest.raises(SemanticsError, match="raise config.sample"):
            bindings["mult"](99)

    def test_worker_errors_keep_their_class(self):
        # multiplier's environment carries the vector host function; drop
        # it so every SCC's denotation fails.  The caller must see the
        # *original* exception class, never a plain ReproError.
        from repro.errors import UnboundVariableError
        from repro.values.environment import Environment

        defs = multiplier.definitions()
        engine = DenotationEngine(defs, Environment(), CFG)
        with pytest.raises(UnboundVariableError, match="'v'"):
            engine.run()


class TestBudgets:
    def test_budget_trip_carries_engine_checkpoint(self):
        # A private kernel state makes every node newly interned, so the
        # node budget bites regardless of what earlier tests built.
        from repro.traces.trie import private_state

        defs, env = multiplier.definitions(), multiplier.environment()
        with private_state(), activate(Budget(max_nodes=40).start()):
            engine = DenotationEngine(defs, env, CFG)
            with pytest.raises(BudgetExceeded) as excinfo:
                engine.run()
        checkpoint = excinfo.value.checkpoint
        assert checkpoint is not None
        assert checkpoint.phase == "engine"

    def test_deadline_trip_is_budget_exceeded(self):
        defs, env = protocol.definitions(), protocol.environment()
        with activate(Budget(deadline=0.0).start()):
            engine = DenotationEngine(defs, env, CFG)
            with pytest.raises(BudgetExceeded):
                engine.run()

    def test_unbudgeted_run_unaffected(self):
        defs, env = copier.definitions(), copier.environment()
        engine = DenotationEngine(defs, env, CFG)
        engine.run()
        assert engine.reports
