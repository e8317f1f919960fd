"""Unit tests for the bounded sat checker (the §2 example claims)."""

import pytest

from repro.process.ast import ArrayRef, Name
from repro.process.parser import parse_definitions, parse_process
from repro.sat.checker import SatChecker, check_sat
from repro.semantics.config import SemanticsConfig
from repro.values.domains import FiniteDomain
from repro.values.environment import Environment
from repro.values.expressions import const

CFG = SemanticsConfig(depth=5, sample=2)

COPIER_DEFS = parse_definitions(
    "copier = input?x:NAT -> wire!x -> copier;"
    "recopier = wire?y:NAT -> output!y -> recopier;"
    "protocolnet = chan wire; (copier || recopier)"
)


class TestPaperClaims:
    """The example claims stated in §2."""

    def test_copier_sat_wire_le_input(self):
        assert check_sat(Name("copier"), "wire <= input", COPIER_DEFS, config=CFG)

    def test_recopier_sat_output_le_wire(self):
        assert check_sat(Name("recopier"), "output <= wire", COPIER_DEFS, config=CFG)

    def test_network_sat_output_le_input(self):
        assert check_sat(Name("protocolnet"), "output <= input", COPIER_DEFS, config=CFG)

    def test_copier_sat_length_bound(self):
        # copier sat #input ≤ #wire + 1 (§2 item 2)
        assert check_sat(
            Name("copier"), "#input <= #wire + 1", COPIER_DEFS, config=CFG
        )

    def test_stop_sats_everything_satisfiable(self):
        # §4: STOP satisfies any satisfiable invariant.  (STOP mentions no
        # channels, so the assertion is built explicitly rather than parsed
        # with inferred channel names.)
        from repro.assertions.builders import chan_, le_

        assert check_sat(parse_process("STOP"), le_(chan_("wire"), chan_("input")))


class TestViolations:
    def test_false_claim_yields_counterexample(self):
        result = check_sat(Name("copier"), "input <= wire", COPIER_DEFS, config=CFG)
        assert not result.holds
        assert result.counterexample is not None
        # shortest violation: a single input
        assert len(result.counterexample.trace) == 1

    def test_counterexample_describes_histories(self):
        result = check_sat(Name("copier"), "input <= wire", COPIER_DEFS, config=CFG)
        text = str(result.counterexample)
        assert "input" in text and "violated" in text

    def test_evaluation_error_counts_as_violation(self):
        # input_1 is undefined on the empty trace: not invariantly true
        result = check_sat(Name("copier"), "input@1 = 0", COPIER_DEFS, config=CFG)
        assert not result.holds
        assert result.counterexample.error is not None

    def test_traces_checked_counted(self):
        result = check_sat(Name("copier"), "wire <= input", COPIER_DEFS, config=CFG)
        assert result.traces_checked == len(
            SatChecker(COPIER_DEFS, config=CFG).traces_of(Name("copier"))
        )


class TestBindingsAndForall:
    ENV = Environment().bind("M", FiniteDomain({0, 1}))
    DEFS = parse_definitions(
        "sender = input?y:M -> q[y];"
        "q[x:M] = wire!x -> (wire?y:{ACK} -> sender | wire?y:{NACK} -> q[x])"
    )

    def _checker(self):
        from repro.assertions.sequences import cancel_protocol

        env = self.ENV.bind("f", cancel_protocol)
        return SatChecker(self.DEFS, env, SemanticsConfig(depth=5, sample=3))

    def test_table1_invariant_for_fixed_x(self):
        checker = self._checker()
        result = checker.check(
            ArrayRef("q", const(1)), "f(wire) <= x ^ input", bindings={"x": 1}
        )
        assert result.holds

    def test_table1_invariant_forall_x(self):
        checker = self._checker()
        result = checker.check_forall(
            "x",
            FiniteDomain({0, 1}),
            lambda v: ArrayRef("q", const(v)),
            "f(wire) <= x ^ input",
        )
        assert result.holds

    def test_sender_invariant(self):
        checker = self._checker()
        assert checker.check(Name("sender"), "f(wire) <= input").holds

    def test_forall_reports_failing_instance(self):
        checker = self._checker()
        result = checker.check_forall(
            "x",
            FiniteDomain({0, 1}),
            lambda v: ArrayRef("q", const(v)),
            "f(wire) <= <>",  # wrong for every x once the wire fires
        )
        assert not result.holds
        assert result.counterexample.bindings["x"] in (0, 1)


class TestEngines:
    def test_operational_engine_agrees(self):
        for engine in ("denotational", "operational"):
            assert check_sat(
                Name("protocolnet"),
                "output <= input",
                COPIER_DEFS,
                config=SemanticsConfig(depth=4, sample=2),
                engine=engine,
            ).holds

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            SatChecker(COPIER_DEFS, engine="symbolic")

    def test_multiplier_invariant_operationally(self):
        defs = parse_definitions(
            "mult[i:{1..3}] = row[i]?x:NAT -> col[i-1]?y:NAT ->"
            " col[i]!(v[i]*x + y) -> mult[i];"
            "zeroes = col[0]!0 -> zeroes;"
            "last = col[3]?y:NAT -> output!y -> last;"
            "network = zeroes || mult[1] || mult[2] || mult[3] || last;"
            "multiplier = chan col[0..3]; network"
        )
        v = [0, 2, 3, 5]
        env = Environment().bind("v", lambda i: v[i])
        checker = SatChecker(
            defs, env, SemanticsConfig(depth=4, sample=2), engine="operational"
        )
        # the paper's §2 multiplier invariant
        spec = (
            "forall i : NAT . 1 <= i & i <= #output =>"
            " output@i = (sum j : 1..3 . v(j) * row[j]@i)"
        )
        assert checker.check(Name("multiplier"), spec).holds


class TestTrieWalk:
    """The trie-walking mode must agree with the flat per-trace loop —
    same verdict, same counterexample, same traces_checked count."""

    def test_holding_spec_agrees(self):
        trie = SatChecker(COPIER_DEFS, config=CFG, trie_walk=True)
        flat = SatChecker(COPIER_DEFS, config=CFG, trie_walk=False)
        a = trie.check(Name("protocolnet"), "output <= input")
        b = flat.check(Name("protocolnet"), "output <= input")
        assert a.holds and b.holds
        assert a.traces_checked == b.traces_checked

    def test_violated_spec_same_counterexample(self):
        trie = SatChecker(COPIER_DEFS, config=CFG, trie_walk=True)
        flat = SatChecker(COPIER_DEFS, config=CFG, trie_walk=False)
        a = trie.check(Name("copier"), "input <= wire")
        b = flat.check(Name("copier"), "input <= wire")
        assert not a.holds and not b.holds
        assert a.counterexample.trace == b.counterexample.trace
        assert a.traces_checked == b.traces_checked

    def test_evaluation_error_same_counterexample(self):
        trie = SatChecker(COPIER_DEFS, config=CFG, trie_walk=True)
        flat = SatChecker(COPIER_DEFS, config=CFG, trie_walk=False)
        a = trie.check(Name("copier"), "input@3 = 0")
        b = flat.check(Name("copier"), "input@3 = 0")
        assert not a.holds and not b.holds
        assert a.counterexample.trace == b.counterexample.trace


class TestEngineEligibility:
    """The systems the checker once served from engine bindings: arrays
    and chan targets unfold through the checker's one Denoter, with the
    roots of a fresh unfold and, where it solves, of the §3.3 chain."""

    def _pure_unfold(self, defs, env, cfg, process, depth):
        from repro.semantics.denotation import Denoter

        return Denoter(defs, env if env is not None else Environment(), cfg).denote(
            process, depth
        )

    def _chain(self, defs, env, cfg):
        from repro.semantics.fixpoint import ApproximationChain

        return ApproximationChain(defs, env, cfg)

    def test_array_out_of_sample_subscript_unfolds(self):
        # The target consults arr[7], outside the sample of 2: it unfolds
        # on demand, and matches the chain run over the whole domain.
        from repro.traces.events import event
        from repro.traces.operations import prefix

        cfg = SemanticsConfig(depth=5, sample=2)
        defs = parse_definitions("arr[i:{0..9}] = tick[i]!0 -> arr[i]")
        target = parse_process("go!0 -> arr[7]")
        checker = SatChecker(defs, config=cfg)
        got = checker.traces_of(target)
        want = self._pure_unfold(defs, None, cfg, target, cfg.depth)
        assert got.root is want.root
        whole = self._chain(defs, None, SemanticsConfig(depth=4, sample=10))
        assert got.root is prefix(event("go", 0), whole.closure_for("arr", 7)).root

    def test_system_the_chain_cannot_solve_unfolds(self):
        # philosophers at sample 2 references phil[2]/fork[2] *inside the
        # fixpoint itself*: the sampled chain refuses it, and the checker
        # unfolds exactly what it reaches.
        from repro.errors import SemanticsError
        from repro.systems import philosophers

        cfg = SemanticsConfig(depth=4, sample=2)
        defs, env = philosophers.definitions(), philosophers.environment()
        checker = SatChecker(defs, env=env, config=cfg)
        got = checker.traces_of(Name("table"))
        want = self._pure_unfold(defs, env, cfg, Name("table"), cfg.depth)
        assert got.root is want.root
        with pytest.raises(SemanticsError):
            self._chain(defs, env, cfg).fixpoint()

    def test_in_sample_array_system_matches_chain(self):
        from repro.systems import philosophers

        cfg = SemanticsConfig(depth=4, sample=3)
        defs, env = philosophers.definitions(), philosophers.environment()
        checker = SatChecker(defs, env=env, config=cfg)
        got = checker.traces_of(Name("table"))
        want = self._pure_unfold(defs, env, cfg, Name("table"), cfg.depth)
        assert got.root is want.root
        assert got.root is self._chain(defs, env, cfg).closure_for("table").root

    def test_chan_target_solved_at_hide_depth(self):
        # protocolnet hides wire: its body is denoted at hide_depth and
        # truncated to the request depth, as the chain solves it.
        cfg = SemanticsConfig(depth=5, sample=2)
        checker = SatChecker(COPIER_DEFS, config=cfg)
        got = checker.traces_of(Name("protocolnet"))
        want = self._pure_unfold(
            COPIER_DEFS, None, cfg, Name("protocolnet"), cfg.depth
        )
        assert got.root is want.root
        chain = self._chain(COPIER_DEFS, None, cfg)
        assert got.root is chain.closure_for("protocolnet").root

    def test_chan_target_respects_shallow_hide_depth(self):
        # An explicit hide_depth below the request depth: the chan body
        # is denoted at the request depth, on both sides.
        cfg = SemanticsConfig(depth=5, sample=2, hide_depth=3)
        checker = SatChecker(COPIER_DEFS, config=cfg)
        got = checker.traces_of(Name("protocolnet"))
        want = self._pure_unfold(
            COPIER_DEFS, None, cfg, Name("protocolnet"), cfg.depth
        )
        assert got.root is want.root
        chain = self._chain(COPIER_DEFS, None, cfg)
        assert got.root is chain.closure_for("protocolnet").root


class TestGovernedCheckpointResume:
    """Budget trips persist ``fix:{engine}:{name}@level{k}`` slots; the
    next invocation resumes from them and reaches the ungoverned verdict.
    Both engines share the mechanism: the denotational run trips on
    interned nodes, the operational one on explored states."""

    # Unique channel names keep the interner cold for this system, so the
    # node budget below trips at the same depth regardless of test order.
    RELAY = (
        "relay = feedq?x:NAT -> passq!x -> relay;"
        "drain = passq?y:NAT -> sink!y -> drain"
    )

    def _setup(self, tmp_path, engine):
        from repro.traces.snapshot import SnapshotCache, cache_key

        cfg = SemanticsConfig(depth=5, sample=2)
        defs = parse_definitions(self.RELAY)
        key = cache_key(defs, cfg)
        cache = SnapshotCache(tmp_path, key, checkpoint_only=True)
        return cfg, defs, SatChecker(defs, config=cfg, engine=engine, cache=cache)

    @pytest.mark.parametrize(
        "engine,resource,limit",
        [("denotational", "max_nodes", 5), ("operational", "max_states", 2)],
    )
    def test_trip_persists_slots_and_resume_reaches_same_verdict(
        self, tmp_path, engine, resource, limit
    ):
        from repro.errors import BudgetExceeded
        from repro.runtime.governor import Budget, activate
        from repro.traces.snapshot import is_checkpoint_slot

        cfg, defs, checker = self._setup(tmp_path, engine)
        with pytest.raises(BudgetExceeded) as exc_info:
            with activate(Budget(**{resource: limit}).start()):
                checker.check(Name("relay"), "passq <= feedq")
        checkpoint = exc_info.value.checkpoint
        slots = checkpoint.resume_slots
        assert slots and all(is_checkpoint_slot(s) for s in slots)
        assert all(s.startswith(f"fix:{engine}:relay@level") for s in slots)
        assert checkpoint.completed_depth is not None
        checker.cache.save()
        assert checker.cache.path.exists()

        # Second invocation, same key: resumes from the persisted slots.
        cfg2, defs2, resumed = self._setup(tmp_path, engine)
        assert resumed.cache.loaded
        with activate(Budget(**{resource: 10_000}).start()):
            governed = resumed.check(Name("relay"), "passq <= feedq")
        assert resumed.cache.hits > 0

        ungoverned = SatChecker(defs2, config=cfg2, engine=engine).check(
            Name("relay"), "passq <= feedq"
        )
        assert governed.holds == ungoverned.holds is True
        # Deepening reached the full configured depth despite resuming.
        assert governed.verified_depth == cfg2.depth
