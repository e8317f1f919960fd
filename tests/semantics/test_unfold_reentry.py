"""Unfold-on-demand through recursion that re-enters a ``chan``.

``chan``'s body is denoted at ``hide_depth`` whatever the request depth,
so a name reached again under a ``chan`` can meet its own unfold key
``(name, subscript, depth)`` while that key is still being computed.
The :class:`~repro.semantics.denotation.Denoter` then reads the key's
current approximation and iterates the outermost re-entered key to a
fixpoint; these tests hold the result to the §3.3 chain, root for root.
"""

import random
import time

import pytest

from repro.cli import main
from repro.process.ast import ArrayRef, Name
from repro.process.parser import parse_definitions
from repro.runtime import faults
from repro.semantics.config import SemanticsConfig
from repro.semantics.denotation import Denoter
from repro.semantics.fixpoint import ApproximationChain
from repro.values.expressions import Const

CHAN_M = "p = chan m; (a?x:{0,1} -> m!x -> p || m?y:{0,1} -> b!y -> STOP)"

SHAPES = [
    pytest.param("p0 = chan b; a!0 -> p0", id="self-loop"),
    pytest.param("p = chan b; a!0 -> q; q = chan c; b!1 -> p", id="mutual"),
    pytest.param(
        "p = chan b; (a!0 -> chan c; (c!1 -> p | a!1 -> STOP))", id="nested-chan"
    ),
    pytest.param("arr[i:{0..2}] = chan c; a!i -> arr[(i+1) mod 3]", id="array"),
    pytest.param(
        "p0 = chan b; b?x:{0,1} -> p0; p1 = b!0 -> p1; sys = p0 || p1",
        id="hidden-recursion",
    ),
    pytest.param(CHAN_M, id="chan-m-network"),
]

#: A list whose unfinished keys are read from many places: recomputing
#: them on every lookup, instead of holding them for a pass, is
#: exponential here.
CROSSED = (
    "p0 = chan a; (chan b; c?x:{0,1} -> c!1 -> arr[2] "
    "| chan b; c!0 -> b?x:{0,1} -> arr[1]); "
    "arr[i:{0..2}] = (b?x:{0,1} -> arr[i] || b!0 -> b?x:{0,1} -> p0)"
)


def _entries(definitions, config):
    """Every plain name and sampled array subscript, with the chain's
    closure for it."""
    fixpoint = ApproximationChain(definitions, config=config).fixpoint()
    for name, value in fixpoint.items():
        if isinstance(value, dict):
            for subscript, closure in value.items():
                yield ArrayRef(name, Const(subscript)), closure
        else:
            yield Name(name), value


def _assert_chain_roots(source, depth):
    definitions = parse_definitions(source)
    config = SemanticsConfig(depth=depth, sample=3)
    denoter = Denoter(definitions, config=config)
    for process, closure in _entries(definitions, config):
        started = time.perf_counter()
        assert denoter.denote(process).root is closure.root, (source, process)
        assert time.perf_counter() - started < 1.0, (source, process)


@pytest.mark.parametrize("depth", [2, 4])
@pytest.mark.parametrize("source", SHAPES)
def test_reentered_shapes_match_the_chain(source, depth):
    _assert_chain_roots(source, depth)


def _random_list(rng):
    """A guarded definition list mixing ``chan``, ``|``, ``||`` and an
    array, with every subscript inside the sampled domain."""
    names = [f"p{i}" for i in range(rng.randint(1, 3))]
    with_array = rng.random() < 0.5

    def tail(in_array):
        options = ["STOP"] + names
        if with_array:
            options.append(f"arr[{rng.randint(0, 2)}]")
            if in_array:
                options.append("arr[i]")
        return rng.choice(options)

    def guarded(in_array, nesting):
        parts = []
        for _ in range(rng.randint(1, 2)):
            channel = rng.choice("abc")
            if rng.random() < 0.5:
                parts.append(f"{channel}!{rng.randint(0, 1)}")
            else:
                parts.append(f"{channel}?x:{{0,1}}")
        if nesting < 2 and rng.random() < 0.4:
            rest = body(in_array, nesting + 1)
        else:
            rest = tail(in_array)
        return " -> ".join(parts + [rest])

    def body(in_array, nesting=0):
        roll = rng.random()
        if nesting < 2 and roll < 0.25:
            return f"({guarded(in_array, nesting)} | {guarded(in_array, nesting)})"
        if nesting < 2 and roll < 0.45:
            return f"({guarded(in_array, nesting)} || {guarded(in_array, nesting)})"
        if nesting < 2 and roll < 0.75:
            return f"chan {rng.choice('abc')}; {body(in_array, nesting + 1)}"
        return guarded(in_array, nesting)

    clauses = [f"{name} = {body(False)}" for name in names]
    if with_array:
        clauses.append(f"arr[i:{{0..2}}] = {body(True)}")
    return "; ".join(clauses)


def test_random_lists_match_the_chain():
    rng = random.Random(2026)
    for _ in range(40):
        source = _random_list(rng)
        for depth in (2, 3):
            _assert_chain_roots(source, depth)
    _assert_chain_roots(CROSSED, 4)


@pytest.mark.parametrize(
    "source, target",
    [
        pytest.param("p = chan b; a!0 -> q; q = chan c; b!1 -> p", "p", id="mutual"),
        pytest.param(CROSSED, "p0", id="crossed"),
        pytest.param(CHAN_M, "p", id="chan-m-network"),
    ],
)
def test_fault_inside_a_reentry_leaves_the_denoter_exact(source, target):
    definitions = parse_definitions(source)
    config = SemanticsConfig(depth=4, sample=3)
    want = ApproximationChain(definitions, config=config).closure_for(target)
    with faults.observe() as plan:
        Denoter(definitions, config=config).denote(Name(target))
    visits = plan.counts["denote.unfold"]
    assert visits > 1
    for visit in range(1, visits + 1):
        denoter = Denoter(definitions, config=config)
        with pytest.raises(faults.FaultInjected):
            with faults.inject(faults.FaultPlan("denote.unfold", visit)):
                denoter.denote(Name(target))
        assert denoter.denote(Name(target)).root is want.root, visit


@pytest.mark.parametrize("op", ["check", "traces"])
def test_budgets_do_not_change_the_chan_m_verdict(op, tmp_path, capsys):
    path = tmp_path / "chanm.csp"
    path.write_text(CHAN_M + "\n")
    argv = [op, str(path), "--process", "p", "--depth", "4", "--no-cache"]
    if op == "check":
        argv += ["--spec", "b <= a", "--spec", "a <= b"]
    outputs = []
    for budget in ([], ["--deadline", "60"], ["--max-nodes", "100000"]):
        code = main(argv + budget)
        captured = capsys.readouterr()
        outputs.append((code, captured.out, captured.err))
    assert outputs[0][0] == (1 if op == "check" else 0)
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
