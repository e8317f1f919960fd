"""Property-based equivalence tests for the denotation engine.

For random guarded definition lists — mutual recursion, self-loops, and
process arrays included — the dependency-graph engine must be

* **pointer-identical** to the monolithic approximation chain on the
  hash-consed trie kernel (the engine's exactness contract); and
* **value-equal** to the chain run on the flat-set ``_reference`` kernel
  (the independent oracle the trie kernel is itself validated against).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.process.ast import Name
from repro.process.parser import parse_definitions
from repro.sat.checker import SatChecker
from repro.semantics.config import SemanticsConfig
from repro.semantics.denotation import Denoter
from repro.semantics.engine import DenotationEngine
from repro.semantics.fixpoint import ApproximationChain
from repro.values.environment import Environment

CFG = SemanticsConfig(depth=3, sample=3)

CHANNELS = ("a", "b", "c")
ARRAY_DOMAIN = "{0..2}"
SUBSCRIPTS = (0, 1, 2)


@st.composite
def definition_sources(draw):
    """Source text of a random guarded definition list.

    One to three plain definitions plus (sometimes) a process array;
    bodies are sometimes wrapped in a ``chan`` hiding one channel.  Every
    reference sits behind a communication, so the list always passes the
    guardedness check, and every subscript is drawn from the sampled
    domain so the chain itself never faults.
    """
    n = draw(st.integers(min_value=1, max_value=3))
    names = [f"p{i}" for i in range(n)]
    with_array = draw(st.booleans())

    def tail(in_array):
        options = ["STOP"] + names
        if with_array:
            options += [f"arr[{draw(st.sampled_from(SUBSCRIPTS))}]"]
            if in_array:
                options += ["arr[i]"]
        return draw(st.sampled_from(options))

    def guarded(in_array):
        parts = []
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            channel = draw(st.sampled_from(CHANNELS))
            if draw(st.booleans()):
                parts.append(f"{channel}!{draw(st.sampled_from((0, 1)))}")
            else:
                parts.append(f"{channel}?x:NAT")
        return " -> ".join(parts + [tail(in_array)])

    def body(in_array):
        if draw(st.booleans()):
            return f"({guarded(in_array)} | {guarded(in_array)})"
        if draw(st.booleans()):
            # Hide one channel: exercises the chan rule's deepened inner
            # denotation (hide_depth) through chain, engine, and checker.
            hidden = draw(st.sampled_from(CHANNELS))
            return f"chan {hidden}; {guarded(in_array)}"
        return guarded(in_array)

    clauses = [f"{name} = {body(False)}" for name in names]
    if with_array:
        clauses.append(f"arr[i:{ARRAY_DOMAIN}] = {body(True)}")
    return "; ".join(clauses)


def _roots(fixpoint):
    flat = {}
    for name, value in fixpoint.items():
        if isinstance(value, dict):
            for subscript, closure in value.items():
                flat[(name, subscript)] = closure
        else:
            flat[(name, None)] = closure = value
    return flat


@settings(max_examples=50, deadline=None)
@given(definition_sources())
def test_engine_pointer_identical_to_chain(source):
    defs = parse_definitions(source)
    chain_fix = _roots(ApproximationChain(defs, config=CFG).fixpoint())
    engine = DenotationEngine(defs, config=CFG)
    for (name, subscript), closure in chain_fix.items():
        assert engine.closure_for(name, subscript).root is closure.root


@settings(max_examples=25, deadline=None)
@given(definition_sources())
def test_engine_agrees_with_reference_kernel_oracle(source):
    defs = parse_definitions(source)
    oracle = _roots(
        ApproximationChain(defs, config=CFG, kernel="reference").fixpoint()
    )
    engine = DenotationEngine(defs, config=CFG)
    for (name, subscript), closure in oracle.items():
        assert engine.closure_for(name, subscript) == closure


@settings(max_examples=25, deadline=None)
@given(definition_sources())
def test_checker_supply_matches_unfold_and_reference_oracle(source):
    """The sat checker's trace supply is exact: pointer-identical to a
    fresh unfold-on-demand Denoter and to the monolithic chain, and
    value-equal to the flat-set reference chain — arrays and chan
    targets included, recursion through a chan too."""
    defs = parse_definitions(source)
    checker = SatChecker(defs, config=CFG)
    target = Name("p0")
    got = checker.traces_of(target)
    chain_fix = ApproximationChain(defs, config=CFG).fixpoint()
    assert got.root is chain_fix["p0"].root
    want = Denoter(defs, Environment(), CFG).denote(target, CFG.depth)
    assert got.root is want.root
    oracle = ApproximationChain(defs, config=CFG, kernel="reference").fixpoint()
    assert got == oracle["p0"]
