"""The compiled judge against the interpreter it is held to.

``compile_formula(R, slots)`` must answer as ``evaluate_formula(R, …)``
does on every formula and history: the same truth value, or the same
exception type with the same text.  The judge reads ``ch(s)`` as the sat
walk threads it, a tuple indexed by channel slots; the interpreter reads
the same history as a :class:`ChannelHistory`.  Compiling itself never
raises; whatever can fail fails when the judge runs.  The generated
formulas cover every term and formula node, including the ways each one
fails.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assertions.ast import (
    Apply,
    Arith,
    BoolLit,
    ChannelTrace,
    Compare,
    Concat,
    Cons,
    ConstTerm,
    Exists,
    ForAll,
    Implies,
    Index,
    Length,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    SeqLit,
    Sum,
    VarTerm,
)
from repro.assertions.eval import EvalConfig, compile_formula, evaluate_formula
from repro.assertions.parser import parse_assertion
from repro.errors import EvaluationError, UnboundVariableError
from repro.process import parse_definitions
from repro.process.ast import Name
from repro.process.channels import ChannelExpr
from repro.sat import checker as sat_checker
from repro.sat.checker import SatChecker
from repro.semantics.config import SemanticsConfig
from repro.traces.events import Channel
from repro.traces.histories import ChannelHistory
from repro.values.domains import FiniteDomain
from repro.values.environment import Environment
from repro.values.expressions import (
    Const,
    NamedSet,
    NatSet,
    RangeSet,
    SetLiteral,
    Var,
)


def _host(*args):
    """A host function that answers some arguments and raises on others."""
    if len(args) != 1:
        raise TypeError(f"takes one argument, not {len(args)}")
    (arg,) = args
    if isinstance(arg, tuple):
        return tuple(reversed(arg))
    if arg == 3:
        raise EvaluationError("host refuses 3")
    if isinstance(arg, int) and arg % 2:
        raise ValueError(f"odd argument {arg!r}")
    return arg


ENV = Environment(
    {
        "x": 2,
        "s": (1, "ACK"),
        "i": 1,
        "flag": True,
        "f": _host,
        "notfn": 5,
        "M": FiniteDomain({0, "ACK", 2}),
        "Bad": 7,
    }
)

#: Messages include non-integers: strings, booleans and tuples.
MESSAGES = st.one_of(
    st.integers(-2, 3), st.sampled_from(["ACK", True, False, (1, 2), ()])
)

CHANNELS = (
    Channel("a"),
    Channel("b"),
    Channel("col", 0),
    Channel("col", 1),
    Channel("col", "ACK"),
)

HISTORIES = st.dictionaries(
    st.sampled_from(CHANNELS), st.lists(MESSAGES, max_size=4).map(tuple)
).map(ChannelHistory)

#: ``j``/``k`` are bound by quantifiers and sums; ``u`` never is.
NAMES = ("x", "s", "i", "flag", "j", "k", "u")

#: The channel names the unit cases' assertions parse with.
CHANNEL_NAMES = {"input", "wire", "never", "col"}

CHANNEL_REFS = st.sampled_from(
    [
        ChannelExpr("a"),
        ChannelExpr("b"),
        ChannelExpr("never"),
        ChannelExpr("col", Const(0)),
        ChannelExpr("col", Const("ACK")),
        ChannelExpr("col", Var("i")),
        ChannelExpr("col", Var("j")),
        ChannelExpr("col", Var("u")),
    ]
)

#: Σ bounds stay small so a sum never loops long.
BOUNDS = st.one_of(
    st.integers(-1, 3).map(ConstTerm),
    st.sampled_from(["ACK", (1,)]).map(ConstTerm),
    st.sampled_from(NAMES).map(VarTerm),
    CHANNEL_REFS.map(lambda ref: Length(ChannelTrace(ref))),
)

LEAF_TERMS = st.one_of(
    MESSAGES.map(ConstTerm),
    st.sampled_from(NAMES).map(VarTerm),
    CHANNEL_REFS.map(ChannelTrace),
)


def _composite_terms(inner):
    return st.one_of(
        st.lists(inner, max_size=3).map(lambda es: SeqLit(tuple(es))),
        st.builds(Cons, inner, inner),
        st.builds(Concat, inner, inner),
        st.builds(Length, inner),
        st.builds(Index, inner, inner),
        st.builds(Arith, st.sampled_from(Arith.OPS), inner, inner),
        st.builds(
            Apply,
            st.sampled_from(["f", "notfn", "u"]),
            st.lists(inner, max_size=2).map(tuple),
        ),
        st.builds(Sum, st.sampled_from(["j", "k"]), BOUNDS, BOUNDS, inner),
    )


TERMS = st.recursive(LEAF_TERMS, _composite_terms, max_leaves=6)

DOMAINS = st.sampled_from(
    [
        NatSet(),
        RangeSet(Const(0), Const(2)),
        RangeSet(Var("x"), Const(3)),
        RangeSet(Var("s"), Const(3)),
        SetLiteral((Const(1), Const("ACK"), Var("x"))),
        NamedSet("M"),
        NamedSet("Bad"),
        NamedSet("U"),
    ]
)

LEAF_FORMULAS = st.one_of(
    st.booleans().map(BoolLit),
    st.builds(Compare, st.sampled_from(Compare.OPS), TERMS, TERMS),
)


def _composite_formulas(inner):
    return st.one_of(
        st.builds(LogicalAnd, inner, inner),
        st.builds(LogicalOr, inner, inner),
        st.builds(LogicalNot, inner),
        st.builds(Implies, inner, inner),
        st.builds(ForAll, st.sampled_from(["j", "k"]), DOMAINS, inner),
        st.builds(Exists, st.sampled_from(["j", "k"]), DOMAINS, inner),
    )


FORMULAS = st.recursive(LEAF_FORMULAS, _composite_formulas, max_leaves=5)


def _outcome(run):
    try:
        value = run()
    except Exception as exc:  # the two must fail alike, whatever the type
        return ("raised", type(exc), str(exc))
    return ("returned", type(value), value)


def _slotted(history, slots, start):
    """``history`` as the sat walk threads it: registers each of its
    channels that has no slot yet, then lays it out by slot, as long as
    the larger of ``start`` and 1 + its highest non-empty slot."""
    for chan, _ in history.items():
        slots.setdefault(chan, len(slots))
    length = max([start] + [slots[chan] + 1 for chan in history.channels()])
    by_slot = {slot: chan for chan, slot in slots.items()}
    return tuple(history(by_slot[slot]) for slot in range(length))


@settings(max_examples=600, deadline=None)
@given(
    FORMULAS,
    HISTORIES,
    st.lists(st.sampled_from(CHANNELS), unique=True),
    st.sampled_from([1, 3]),
)
def test_judge_answers_as_the_interpreter(formula, history, met, quant_bound):
    """``met``: channels the walk gave a slot after compiling, as its
    edges carried them; a history need not reach their slots."""
    config = EvalConfig(quant_bound=quant_bound)
    slots = {}
    judge = compile_formula(formula, slots, config)  # never raises
    start = len(slots)
    for chan in met:
        slots.setdefault(chan, len(slots))
    slotted = _slotted(history, slots, start)
    want = _outcome(lambda: evaluate_formula(formula, ENV, history, config))
    got = _outcome(lambda: judge(ENV, slotted))
    assert got == want


class TestFailuresSurfaceWhenJudged:
    def test_unbound_name(self):
        formula = parse_assertion("input_1 <= 5", {"input"})
        judge = compile_formula(formula, {})
        with pytest.raises(UnboundVariableError) as caught:
            judge(Environment(), ())
        assert str(caught.value) == "unbound variable: 'input_1'"

    def test_index_out_of_range_is_short_circuited(self):
        formula = parse_assertion("#input <= 1 or input@3 >= 0", {"input"})
        slots = {}
        judge = compile_formula(formula, slots)
        assert slots == {Channel("input"): 0}
        assert judge(Environment(), ((0,),)) is True
        with pytest.raises(EvaluationError, match=r"^index 3 outside 1\.\.2$"):
            judge(Environment(), ((0, 1),))

    def test_unknown_node(self):
        judge = compile_formula("not a formula", {})
        with pytest.raises(EvaluationError, match="unknown formula"):
            judge(Environment(), ())


class TestSlots:
    """How the judge reads channels that the walk has not met."""

    def test_closed_reference_to_a_channel_no_edge_carries(self):
        slots = {}
        judge = compile_formula(
            parse_assertion("#never = 0 & wire <= input", CHANNEL_NAMES),
            slots,
        )
        assert slots == {
            Channel("never"): 0, Channel("wire"): 1, Channel("input"): 2,
        }
        assert judge(Environment(), ((), (), ())) is True
        assert judge(Environment(), ((), (4,), (4, 5))) is True
        assert judge(Environment(), ((), (5,), (4, 5))) is False

    def test_open_reference_to_a_channel_without_a_slot(self):
        slots = {}
        judge = compile_formula(
            parse_assertion("forall i : {0,1} . #col[i] = 0", CHANNEL_NAMES),
            slots,
        )
        assert slots == {}  # nothing closed to slot
        assert judge(Environment(), ()) is True
        slots[Channel("wire")] = 0
        assert judge(Environment(), ((7,),)) is True

    def test_a_channel_slotted_after_compiling(self):
        slots = {}
        judge = compile_formula(
            parse_assertion("exists i : {0,1} . col[i] = <5>", CHANNEL_NAMES),
            slots,
        )
        slots[Channel("col", 0)] = 0
        slots[Channel("col", 1)] = 1
        assert judge(Environment(), ((5,),)) is True
        # col[1]'s slot lies past the end: it reads ⟨⟩
        assert judge(Environment(), ((4,),)) is False
        assert judge(Environment(), ((4,), (5,))) is True
        assert judge(Environment(), ((), (5, 5))) is False


def test_the_sat_walk_judges_without_the_interpreter(monkeypatch):
    """The walk judges through the compiled formula; only the flat
    per-trace loop, its oracle, calls the interpreter."""

    def interpreter(*args, **kwargs):
        raise AssertionError("the interpreter judged a pair")

    defs = parse_definitions("copier = input?x:{0,1} -> wire!x -> copier")
    monkeypatch.setattr(sat_checker, "evaluate_formula", interpreter)
    config = SemanticsConfig(depth=6)
    walked = SatChecker(defs, config=config).check(Name("copier"), "wire <= input")
    assert walked.holds and walked.traces_checked == 29
    flat = SatChecker(defs, config=config, trie_walk=False)
    with pytest.raises(AssertionError, match="interpreter judged"):
        flat.check(Name("copier"), "wire <= input")
