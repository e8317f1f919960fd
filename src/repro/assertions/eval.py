"""Evaluation of assertions under ``ρ + ch(s)`` (paper §3.3).

``evaluate_formula(R, env, history)`` computes the truth of ``R`` in the
environment ``ρ`` extended so that channel names denote the sequences
``ch(s)`` ascribes to them — the exact construction of §3.3.

Connectives short-circuit, so guarded formulas like
``1 ≤ i & i ≤ #output ⇒ output_i = …`` never evaluate the guarded part
out of range.  Quantifiers over infinite sets enumerate a bounded sample
(``config.quant_bound``); this is the bounded-model-checking reading —
complete for refutation on the enumerated values, and irrelevant to the
proof system, which treats quantifiers symbolically.

``compile_formula(R, slots)`` turns ``R`` into a closure
``judge(env, history)`` in one pass over its syntax tree, for callers
that judge one formula under many histories (the sat walk).  Its
``history`` is ``ch(s)`` as the walk threads it: a tuple of message
sequences indexed by channel *slots*, the ``slots`` map that compiling
and the walk fill, so the judge reads a channel's history by position
and never hashes a :class:`~repro.traces.events.Channel` for a closed
reference.  The judge makes the interpreter's calls in the interpreter's
order, so it returns what :func:`evaluate_formula` returns on the same
``ch(s)`` and raises what it raises, with the same text; the
interpreter, over :class:`~repro.traces.histories.ChannelHistory`, stays
the oracle it is tested against.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, Tuple

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
    Formula,
    Implies,
    Index,
    Length,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    SeqLit,
    Sum,
    Term,
    VarTerm,
)
from repro.assertions.sequences import is_seq_prefix, is_strict_seq_prefix, seq_index
from repro.errors import EvaluationError
from repro.traces.events import Channel
from repro.traces.histories import ChannelHistory, MessageSeq
from repro.values.environment import EMPTY, Environment
from repro.values.expressions import Const


class EvalConfig:
    """Bounds for assertion evaluation."""

    __slots__ = ("quant_bound",)

    def __init__(self, quant_bound: int = 32) -> None:
        if quant_bound < 1:
            raise ValueError("quant_bound must be positive")
        self.quant_bound = quant_bound

    def __repr__(self) -> str:
        return f"EvalConfig(quant_bound={self.quant_bound})"


DEFAULT_EVAL_CONFIG = EvalConfig()


def evaluate_term(
    term: Term,
    env: Environment,
    history: ChannelHistory,
    config: EvalConfig = DEFAULT_EVAL_CONFIG,
) -> Any:
    """The value of a term: a number, a message value, or a tuple
    (sequence)."""
    if isinstance(term, ConstTerm):
        return term.value
    if isinstance(term, VarTerm):
        return env.lookup(term.name)
    if isinstance(term, ChannelTrace):
        return history(term.channel.evaluate(env))
    if isinstance(term, SeqLit):
        return tuple(evaluate_term(e, env, history, config) for e in term.elements)
    if isinstance(term, Cons):
        head = evaluate_term(term.head, env, history, config)
        tail = evaluate_term(term.tail, env, history, config)
        _require_seq(tail, "⌢ (cons)")
        return (head,) + tail
    if isinstance(term, Concat):
        left = evaluate_term(term.left, env, history, config)
        right = evaluate_term(term.right, env, history, config)
        _require_seq(left, "++")
        _require_seq(right, "++")
        return left + right
    if isinstance(term, Length):
        seq = evaluate_term(term.sequence, env, history, config)
        _require_seq(seq, "#")
        return len(seq)
    if isinstance(term, Index):
        seq = evaluate_term(term.sequence, env, history, config)
        _require_seq(seq, "indexing")
        index = evaluate_term(term.index, env, history, config)
        _require_int(index, "index")
        try:
            return seq_index(seq, index)
        except IndexError as exc:
            raise EvaluationError(str(exc)) from exc
    if isinstance(term, Arith):
        left = evaluate_term(term.left, env, history, config)
        right = evaluate_term(term.right, env, history, config)
        _require_int(left, term.op)
        _require_int(right, term.op)
        if term.op == "+":
            return left + right
        if term.op == "-":
            return left - right
        if term.op == "*":
            return left * right
        if right == 0:
            raise EvaluationError(f"division by zero in {term.op}")
        return left // right if term.op == "div" else left % right
    if isinstance(term, Apply):
        func = env.lookup(term.name, kind="function")
        if not callable(func):
            raise EvaluationError(f"{term.name!r} is not bound to a function")
        args = [evaluate_term(a, env, history, config) for a in term.args]
        try:
            return func(*args)
        except EvaluationError:
            raise
        except Exception as exc:
            raise EvaluationError(f"{term.name}(...) raised {exc!r}") from exc
    if isinstance(term, Sum):
        low = evaluate_term(term.low, env, history, config)
        high = evaluate_term(term.high, env, history, config)
        _require_int(low, "Σ lower bound")
        _require_int(high, "Σ upper bound")
        total = 0
        for value in range(low, high + 1):
            summand = evaluate_term(
                term.body, env.bind(term.variable, value), history, config
            )
            _require_int(summand, "Σ body")
            total += summand
        return total
    raise EvaluationError(f"unknown term {term!r}")


def evaluate_formula(
    formula: Formula,
    env: Environment,
    history: ChannelHistory,
    config: EvalConfig = DEFAULT_EVAL_CONFIG,
) -> bool:
    """The truth of a formula under ``ρ + ch(s)``."""
    if isinstance(formula, BoolLit):
        return formula.value
    if isinstance(formula, Compare):
        return _compare(formula, env, history, config)
    if isinstance(formula, LogicalAnd):
        return evaluate_formula(formula.left, env, history, config) and evaluate_formula(
            formula.right, env, history, config
        )
    if isinstance(formula, LogicalOr):
        return evaluate_formula(formula.left, env, history, config) or evaluate_formula(
            formula.right, env, history, config
        )
    if isinstance(formula, LogicalNot):
        return not evaluate_formula(formula.operand, env, history, config)
    if isinstance(formula, Implies):
        if not evaluate_formula(formula.antecedent, env, history, config):
            return True
        return evaluate_formula(formula.consequent, env, history, config)
    if isinstance(formula, ForAll):
        domain = formula.domain.evaluate(env)
        return all(
            evaluate_formula(
                formula.body, env.bind(formula.variable, value), history, config
            )
            for value in domain.enumerate(config.quant_bound)
        )
    if isinstance(formula, Exists):
        domain = formula.domain.evaluate(env)
        return any(
            evaluate_formula(
                formula.body, env.bind(formula.variable, value), history, config
            )
            for value in domain.enumerate(config.quant_bound)
        )
    raise EvaluationError(f"unknown formula {formula!r}")


def _compare(formula: Compare, env, history, config) -> bool:
    left = evaluate_term(formula.left, env, history, config)
    right = evaluate_term(formula.right, env, history, config)
    op = formula.op
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    both_seq = isinstance(left, tuple) and isinstance(right, tuple)
    both_num = _is_int(left) and _is_int(right)
    if both_seq:
        # The paper's overloaded ≤: the prefix order on sequences.
        if op == "<=":
            return is_seq_prefix(left, right)
        if op == "<":
            return is_strict_seq_prefix(left, right)
        if op == ">=":
            return is_seq_prefix(right, left)
        return is_strict_seq_prefix(right, left)
    if both_num:
        if op == "<=":
            return left <= right
        if op == "<":
            return left < right
        if op == ">=":
            return left >= right
        return left > right
    raise _incomparable(left, op, right)


def _incomparable(left: Any, op: str, right: Any) -> EvaluationError:
    return EvaluationError(
        f"cannot compare {left!r} {op} {right!r}: operands must be two "
        f"sequences or two numbers"
    )


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_seq(value: Any, op: str) -> None:
    if not isinstance(value, tuple):
        raise EvaluationError(f"{op} applied to non-sequence {value!r}")


def _require_int(value: Any, op: str) -> None:
    if not _is_int(value):
        raise EvaluationError(f"{op} applied to non-number {value!r}")


# ---------------------------------------------------------------------------
# Compiled judges
# ---------------------------------------------------------------------------

#: ``ch(s)`` as the sat walk threads it: one message sequence per channel
#: slot, ``history[slots[c]]`` for channel ``c`` (see :func:`compile_formula`).
SlotHistory = Tuple[MessageSeq, ...]

#: A compiled term or formula: ``(env, history) → value``.
Compiled = Callable[[Environment, SlotHistory], Any]

#: The prefix test and the numeric test of each order comparison.
_ORDERS = {
    "<=": (is_seq_prefix, operator.le),
    "<": (is_strict_seq_prefix, operator.lt),
    ">=": (lambda left, right: is_seq_prefix(right, left), operator.ge),
    ">": (lambda left, right: is_strict_seq_prefix(right, left), operator.gt),
}

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def compile_formula(
    formula: Formula,
    slots: Dict[Channel, int],
    config: EvalConfig = DEFAULT_EVAL_CONFIG,
) -> Compiled:
    """``formula`` as a closure ``judge(env, history)`` that returns what
    ``evaluate_formula(formula, env, ch, config)`` returns, or raises
    what it raises, with the same text, where ``history`` is ``ch`` read
    through ``slots``: ``history[slots[c]]`` is ``ch(c)``.

    The syntax tree is dispatched over once, here, instead of at every
    evaluation.  Compiling evaluates nothing that can fail: it gives each
    closed channel reference (``wire``, ``col[2]``) a slot, adding it to
    ``slots`` if it has none, and the judge reads that slot directly, so
    every ``history`` it is given must be at least ``len(slots)`` long as
    compiling leaves it.  An open reference (``col[i]``) looks its
    channel up in ``slots`` when judged, and reads ⟨⟩ when the channel
    has no slot or its slot lies past the end of ``history``; ``slots``
    may gain channels after compiling.  An unbound name, an out-of-range
    index or a type error surfaces when the judge runs, on the history
    where the interpreter would fail.
    """
    if isinstance(formula, BoolLit):
        value = formula.value
        return lambda env, history: value
    if isinstance(formula, Compare):
        return _compile_compare(formula, slots, config)
    if isinstance(formula, LogicalAnd):
        left = compile_formula(formula.left, slots, config)
        right = compile_formula(formula.right, slots, config)
        return lambda env, history: left(env, history) and right(env, history)
    if isinstance(formula, LogicalOr):
        left = compile_formula(formula.left, slots, config)
        right = compile_formula(formula.right, slots, config)
        return lambda env, history: left(env, history) or right(env, history)
    if isinstance(formula, LogicalNot):
        operand = compile_formula(formula.operand, slots, config)
        return lambda env, history: not operand(env, history)
    if isinstance(formula, Implies):
        antecedent = compile_formula(formula.antecedent, slots, config)
        consequent = compile_formula(formula.consequent, slots, config)

        def implies(env, history):
            if not antecedent(env, history):
                return True
            return consequent(env, history)

        return implies
    if isinstance(formula, (ForAll, Exists)):
        quantifier = all if isinstance(formula, ForAll) else any
        domain_expr, variable = formula.domain, formula.variable
        body = compile_formula(formula.body, slots, config)

        def quantified(env, history):
            domain = domain_expr.evaluate(env)
            return quantifier(
                body(env.bind(variable, value), history)
                for value in domain.enumerate(config.quant_bound)
            )

        return quantified

    def unknown(env, history):  # fails when judged, as the interpreter does
        raise EvaluationError(f"unknown formula {formula!r}")

    return unknown


def _compile_compare(
    formula: Compare, slots: Dict[Channel, int], config: EvalConfig
) -> Compiled:
    left_of = _compile_term(formula.left, slots, config)
    right_of = _compile_term(formula.right, slots, config)
    op = formula.op
    if op == "=":
        return lambda env, history: left_of(env, history) == right_of(env, history)
    if op == "!=":
        return lambda env, history: left_of(env, history) != right_of(env, history)
    seq_test, num_test = _ORDERS[op]

    def compare(env, history):
        left = left_of(env, history)
        right = right_of(env, history)
        if isinstance(left, tuple) and isinstance(right, tuple):
            return seq_test(left, right)
        if _is_int(left) and _is_int(right):
            return num_test(left, right)
        raise _incomparable(left, op, right)

    return compare


def _compile_term(
    term: Term, slots: Dict[Channel, int], config: EvalConfig
) -> Compiled:
    if isinstance(term, ConstTerm):
        value = term.value
        return lambda env, history: value
    if isinstance(term, VarTerm):
        name = term.name
        return lambda env, history: env.lookup(name)
    if isinstance(term, ChannelTrace):
        reference = term.channel
        if reference.index is None or type(reference.index) is Const:
            # closed: nothing can fail, and the slot is below len(history)
            slot = slots.setdefault(reference.evaluate(EMPTY), len(slots))
            return lambda env, history: history[slot]

        def open_reference(env, history):
            slot = slots.get(reference.evaluate(env))
            if slot is None or slot >= len(history):
                return ()
            return history[slot]

        return open_reference
    if isinstance(term, SeqLit):
        elements = tuple(_compile_term(e, slots, config) for e in term.elements)
        return lambda env, history: tuple(e(env, history) for e in elements)
    if isinstance(term, Cons):
        head_of = _compile_term(term.head, slots, config)
        tail_of = _compile_term(term.tail, slots, config)

        def cons(env, history):
            head = head_of(env, history)
            tail = tail_of(env, history)
            _require_seq(tail, "⌢ (cons)")
            return (head,) + tail

        return cons
    if isinstance(term, Concat):
        left_of = _compile_term(term.left, slots, config)
        right_of = _compile_term(term.right, slots, config)

        def concat(env, history):
            left = left_of(env, history)
            right = right_of(env, history)
            _require_seq(left, "++")
            _require_seq(right, "++")
            return left + right

        return concat
    if isinstance(term, Length):
        sequence_of = _compile_term(term.sequence, slots, config)

        def length(env, history):
            seq = sequence_of(env, history)
            _require_seq(seq, "#")
            return len(seq)

        return length
    if isinstance(term, Index):
        sequence_of = _compile_term(term.sequence, slots, config)
        index_of = _compile_term(term.index, slots, config)

        def index(env, history):
            seq = sequence_of(env, history)
            _require_seq(seq, "indexing")
            position = index_of(env, history)
            _require_int(position, "index")
            try:
                return seq_index(seq, position)
            except IndexError as exc:
                raise EvaluationError(str(exc)) from exc

        return index
    if isinstance(term, Arith):
        return _compile_arith(term, slots, config)
    if isinstance(term, Apply):
        name = term.name
        args_of = tuple(_compile_term(a, slots, config) for a in term.args)

        def apply(env, history):
            func = env.lookup(name, kind="function")
            if not callable(func):
                raise EvaluationError(f"{name!r} is not bound to a function")
            args = [a(env, history) for a in args_of]
            try:
                return func(*args)
            except EvaluationError:
                raise
            except Exception as exc:
                raise EvaluationError(f"{name}(...) raised {exc!r}") from exc

        return apply
    if isinstance(term, Sum):
        variable = term.variable
        low_of = _compile_term(term.low, slots, config)
        high_of = _compile_term(term.high, slots, config)
        body_of = _compile_term(term.body, slots, config)

        def total(env, history):
            low = low_of(env, history)
            high = high_of(env, history)
            _require_int(low, "Σ lower bound")
            _require_int(high, "Σ upper bound")
            result = 0
            for value in range(low, high + 1):
                summand = body_of(env.bind(variable, value), history)
                _require_int(summand, "Σ body")
                result += summand
            return result

        return total

    def unknown(env, history):  # fails when judged, as the interpreter does
        raise EvaluationError(f"unknown term {term!r}")

    return unknown


def _compile_arith(
    term: Arith, slots: Dict[Channel, int], config: EvalConfig
) -> Compiled:
    left_of = _compile_term(term.left, slots, config)
    right_of = _compile_term(term.right, slots, config)
    op = term.op
    plain = _ARITH.get(op)
    divide = operator.floordiv if op == "div" else operator.mod

    def arith(env, history):
        left = left_of(env, history)
        right = right_of(env, history)
        _require_int(left, op)
        _require_int(right, op)
        if plain is not None:
            return plain(left, right)
        if right == 0:
            raise EvaluationError(f"division by zero in {op}")
        return divide(left, right)

    return arith
