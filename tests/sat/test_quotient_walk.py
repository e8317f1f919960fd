"""The quotiented sat walk against the flat per-trace oracle.

``SatChecker`` judges ``R`` once per distinct pair (trie node, ``ch(s)``);
``trie_walk=False`` judges it once per trace.  Both must report the same
verdict, the same ``traces_checked`` (for holding and violated specs)
and the same counterexample — trace and evaluation-error text alike.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.process import parse_definitions
from repro.process.ast import Name, Parallel
from repro.process.definitions import NO_DEFINITIONS
from repro.query import environment_from_options
from repro.runtime.governor import Budget, activate
from repro.sat.checker import SatChecker
from repro.semantics.config import SemanticsConfig
from repro.soundness.generators import AssertionGenerator, ProcessGenerator
from repro.systems import buffer, copier, philosophers, protocol


def _report(result):
    counterexample = result.counterexample
    return (
        result.holds,
        result.traces_checked,
        None if counterexample is None else counterexample.trace,
        None if counterexample is None else counterexample.error,
        None if counterexample is None else counterexample.describe(),
    )


def _agree(defs, env, config, process, spec):
    """Quotiented and flat reports for one check; asserts they match."""
    fast = SatChecker(defs, env, config).check(process, spec)
    flat = SatChecker(defs, env, config, trie_walk=False).check(process, spec)
    assert _report(fast) == _report(flat)
    return fast


def _walked(defs, env, config, process, spec):
    """The trie walk's result and how many traces or pairs it judged:
    one governor tick each (the supply is solved first, so its ticks
    are not counted)."""
    checker = SatChecker(defs, env, config)
    closure = checker.traces_of(process)
    formula = checker._coerce(spec, process)
    governor = Budget().start()
    with activate(governor):
        result = checker._check_trie(closure, formula, checker.env, None)
    return result, governor.ticks


#: Network shapes: the generator's own binary ``network()``, and
#: compositions of independent draws on separate channels, whose
#: interleavings reach one trie node by many paths with equal histories.
SHAPES = ("network", (("a",), ("b", "wire")), (("a",), ("b",), ("wire",)))


def _system(seed, shape):
    if shape == "network":
        return ProcessGenerator(seed=seed, allow_networks=True).network()
    process = None
    for k, channels in enumerate(shape):
        part = ProcessGenerator(
            seed=seed + k, channels=channels, allow_networks=True
        ).process()
        process = part if process is None else Parallel(process, part)
    return process


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(SHAPES))
def test_generated_networks_agree_with_flat_walk(seed, shape):
    formula = AssertionGenerator(seed=seed).formula()
    config = SemanticsConfig(depth=8)
    _agree(NO_DEFINITIONS, None, config, _system(seed, shape), formula)


class TestFixedSystems:
    def test_protocol_merges_and_agrees(self):
        defs = protocol.definitions()
        env = environment_from_options(["M=0,1"])
        config = SemanticsConfig(depth=10, sample=2)
        target = Name("protocol")
        held = _agree(defs, env, config, target, "output <= input")
        violated = _agree(defs, env, config, target, "input <= output")
        assert held.holds and held.traces_checked == 2729
        assert not violated.holds and violated.traces_checked == 2
        # violations below merged pairs: the first output of a 1, and
        # the third output
        for spec in (
            "forall i : NAT . 1 <= i & i <= #output => output@i = 0",
            "#output <= 2",
        ):
            deep = _agree(defs, env, config, target, spec)
            assert not deep.holds and len(deep.counterexample.trace) > 1
        # the walk is quotiented: far fewer pairs than traces
        result, pairs = _walked(defs, env, config, target, "output <= input")
        assert result.holds and pairs < held.traces_checked // 10
        # a refutation met after a skip is walked again for its count
        result, ticks = _walked(defs, env, config, target, "#output <= 2")
        assert ticks > result.traces_checked

    def test_refutation_without_merges_walks_once(self):
        # sequential copier: no two same-length traces share a pair, so
        # the quotiented walk is the canonical one and is not repeated
        defs, env = copier.definitions(), copier.environment()
        config = SemanticsConfig(depth=12, sample=2)
        for spec in ("#input <= 4", "3 <= #wire => wire@3 = 0"):
            violated = _agree(defs, env, config, Name("copier"), spec)
            result, ticks = _walked(defs, env, config, Name("copier"), spec)
            assert not violated.holds and violated.traces_checked > 1
            assert ticks == result.traces_checked == violated.traces_checked

    def test_quantified_formulas(self):
        defs = protocol.definitions()
        env = environment_from_options(["M=0,1"])
        config = SemanticsConfig(depth=9, sample=2)
        for spec in (
            "forall i : NAT . 1 <= i & i <= #output => output@i = input@i",
            "exists i : NAT . i = #input & i <= #output + 1",
            "forall i : NAT . 1 <= i & i <= #input => input@i = 0",
        ):
            _agree(defs, env, config, Name("protocol"), spec)

    def test_evaluation_error_formula(self):
        defs = protocol.definitions()
        env = environment_from_options(["M=0,1"])
        config = SemanticsConfig(depth=9, sample=2)
        result = _agree(defs, env, config, Name("protocol"), "output@3 = 0")
        assert not result.holds and result.counterexample.error

    def test_with_cancel(self):
        defs = protocol.definitions()
        env = environment_from_options(["M=0,1"], "f")
        config = SemanticsConfig(depth=9, sample=2)
        for target, spec in (
            ("sender", "f(wire) <= input"),
            ("sender", "input <= f(wire)"),
            ("protocol", "output <= input"),
        ):
            _agree(defs, env, config, Name(target), spec)

    def test_channel_arrays(self):
        config = SemanticsConfig(depth=8, sample=2)
        defs = buffer.definitions(3)
        for spec in (
            "link[3] <= link[0]",
            "#link[0] <= #link[3] + 3",
            "#link[0] <= #link[3] + 1",
        ):
            _agree(defs, None, config, Name("buffer"), spec)
        config = SemanticsConfig(depth=6, sample=3)
        defs, env = philosophers.definitions(), philosophers.environment()
        for spec in ("eat <= grab", "grab <= eat"):
            _agree(defs, env, config, Name("table"), spec)

    def test_governed_path_equals_ungoverned(self):
        defs = protocol.definitions()
        env = environment_from_options(["M=0,1"])
        config = SemanticsConfig(depth=9, sample=2)
        for spec in ("output <= input", "input <= output", "output@3 = 0"):
            want = SatChecker(defs, env, config).check(Name("protocol"), spec)
            with activate(Budget(deadline=1000).start()):
                got = SatChecker(defs, env, config).check(Name("protocol"), spec)
            with activate(Budget(deadline=1000).start()):
                oracle = SatChecker(defs, env, config, trie_walk=False).check(
                    Name("protocol"), spec
                )
            assert _report(got) == _report(want) == _report(oracle)
            assert got.verified_depth == oracle.verified_depth
            if want.holds:
                assert got.verified_depth == 9

    def test_protocol_depth_14_judges_1017_pairs(self):
        defs = protocol.definitions()
        env = environment_from_options(["M=0,1"])
        config = SemanticsConfig(depth=14, sample=2)
        result, pairs = _walked(
            defs, env, config, Name("protocol"), "output <= input"
        )
        assert result.holds and result.traces_checked == 43689
        assert pairs == 1017


class TestChannelSlots:
    """The walk threads ``ch(s)`` as a tuple over channel slots: R's
    closed references get theirs when it is compiled, every other
    channel when the walk first meets it."""

    def test_philosophers_open_and_absent_subscripts(self):
        # drop[i], grab[i+1] and eat[i] are open: read by the slot the
        # walk gave each channel; eat[7] is closed, and no edge carries it
        config = SemanticsConfig(depth=5, sample=3)
        defs, env = philosophers.definitions(), philosophers.environment()
        for spec in ("forall i : {0,1,2} . #drop[i] <= #grab[i]", "#eat[7] = 0"):
            held = _agree(defs, env, config, Name("table"), spec)
            assert held.holds and held.traces_checked == 64
        violated = _agree(
            defs, env, config, Name("table"),
            "forall i : {0,1,2} . #eat[i] <= #grab[i+1]",
        )
        assert not violated.holds
        assert [repr(e) for e in violated.counterexample.trace] == [
            "grab[0].0", "reach[0].0", "eat[0].0",
        ]

    def test_equal_histories_met_in_either_order_merge(self):
        # a and b take slots in the order the walk meets them, after R's;
        # both interleavings reach the leaf with one history, so it is
        # one pair: equal histories are equal tuples, however padded
        defs = parse_definitions("p = a!0 -> STOP; q = b!0 -> STOP; sys = p || q")
        config = SemanticsConfig(depth=2)
        for spec in ("true", "#b <= 1", "#a + #b <= 2"):
            result, pairs = _walked(defs, None, config, Name("sys"), spec)
            assert result.holds and result.traces_checked == 5
            assert pairs == 4
