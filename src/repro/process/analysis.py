"""Static analysis of process expressions.

* :func:`free_variables`      — free value variables;
* :func:`referenced_names`    — process names referenced (for definition
  validation);
* :func:`unguarded_references` / :func:`is_guarded` — guardedness of
  recursion (every recursive call beneath a communication prefix), the
  condition under which the §3.3 approximation chain adds at least one
  communication per unfolding;
* :func:`channel_names`       — syntactic channel *names* used, following
  definitions (the sets ``X`` and ``Y`` of the parallel rule at name
  granularity);
* :func:`concrete_channels`   — concrete :class:`Channel` values used,
  with subscripts evaluated under an environment (needed to run
  ``P ‖ Q`` when the paper "omits" the X, Y annotations);
* :func:`uses_chan`           — whether a process (following definitions)
  contains a ``chan`` operator anywhere, the eligibility condition for
  swapping unfold-on-demand denotation for fixpoint bindings;
* the **entry-level dependency graph** — :func:`definition_entries`,
  :func:`entry_dependencies`, :func:`condense_entries`, :func:`scc_ranks`
  — the call structure the §3.3 approximation chain actually iterates
  over, at the granularity of one *entry* per plain definition and one
  per sampled array subscript.  The graph is a conservative
  over-approximation (an array reference whose subscript cannot be
  evaluated statically depends on every sampled entry of that array),
  which is exactly what delta-based fixpoint iteration and SCC-wise
  scheduling need to stay exact.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.errors import EvaluationError, SemanticsError
from repro.process.ast import (
    ArrayRef,
    Chan,
    Choice,
    Input,
    Name,
    Output,
    Parallel,
    Process,
    Stop,
)
from repro.process.definitions import DefinitionList
from repro.traces.events import Channel
from repro.values.environment import Environment


def free_variables(process: Process) -> FrozenSet[str]:
    """Free value variables of a process expression."""
    return process.free_variables()


def referenced_names(process: Process) -> FrozenSet[str]:
    """All process (and process-array) names referenced anywhere."""
    names: Set[str] = set()
    _collect_names(process, names)
    return frozenset(names)


def _collect_names(process: Process, out: Set[str]) -> None:
    if isinstance(process, Stop):
        return
    if isinstance(process, Name):
        out.add(process.name)
    elif isinstance(process, ArrayRef):
        out.add(process.name)
    elif isinstance(process, (Output, Input)):
        _collect_names(process.continuation, out)
    elif isinstance(process, Choice):
        _collect_names(process.left, out)
        _collect_names(process.right, out)
    elif isinstance(process, Parallel):
        _collect_names(process.left, out)
        _collect_names(process.right, out)
    elif isinstance(process, Chan):
        _collect_names(process.body, out)
    else:  # pragma: no cover - exhaustiveness guard
        raise TypeError(f"unknown process node {process!r}")


def unguarded_references(process: Process, names: FrozenSet[str]) -> FrozenSet[str]:
    """Names of ``names`` occurring in ``process`` *not* beneath a prefix.

    A reference beneath ``c!e →`` or ``c?x:M →`` is guarded: reaching it
    costs at least one communication.  References inside Choice, Parallel,
    or Chan are not guarded by those operators.
    """
    found: Set[str] = set()
    _collect_unguarded(process, names, found)
    return frozenset(found)


def _collect_unguarded(process: Process, names: FrozenSet[str], out: Set[str]) -> None:
    if isinstance(process, (Stop, Output, Input)):
        return  # prefixes guard their continuations; STOP references nothing
    if isinstance(process, Name):
        if process.name in names:
            out.add(process.name)
    elif isinstance(process, ArrayRef):
        if process.name in names:
            out.add(process.name)
    elif isinstance(process, Choice):
        _collect_unguarded(process.left, names, out)
        _collect_unguarded(process.right, names, out)
    elif isinstance(process, Parallel):
        _collect_unguarded(process.left, names, out)
        _collect_unguarded(process.right, names, out)
    elif isinstance(process, Chan):
        _collect_unguarded(process.body, names, out)
    else:  # pragma: no cover - exhaustiveness guard
        raise TypeError(f"unknown process node {process!r}")


def is_guarded(process: Process, names: FrozenSet[str]) -> bool:
    """True when ``process`` has no unguarded occurrence of any of ``names``."""
    return not unguarded_references(process, names)


def has_guarded_recursion(definitions: DefinitionList) -> bool:
    """True when the definition list's unguarded-reference graph is acyclic,
    i.e. every recursive cycle passes through at least one prefix."""
    names = definitions.names()
    graph: Dict[str, FrozenSet[str]] = {
        d.name: unguarded_references(d.body, names) for d in definitions
    }
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {name: WHITE for name in graph}

    def visit(node: str) -> bool:
        colour[node] = GREY
        for succ in graph[node]:
            if colour[succ] == GREY:
                return False
            if colour[succ] == WHITE and not visit(succ):
                return False
        colour[node] = BLACK
        return True

    for node in graph:
        if colour[node] == WHITE and not visit(node):
            return False
    return True


def channel_names(
    process: Process, definitions: Optional[DefinitionList] = None
) -> FrozenSet[str]:
    """Syntactic channel *names* used by a process, following definitions.

    Recursion-safe: each definition body is visited once.
    """
    names: Set[str] = set()
    visited: Set[str] = set()
    _collect_channel_names(process, definitions, names, visited)
    return frozenset(names)


def _collect_channel_names(
    process: Process,
    definitions: Optional[DefinitionList],
    out: Set[str],
    visited: Set[str],
) -> None:
    if isinstance(process, Stop):
        return
    if isinstance(process, (Output, Input)):
        out.add(process.channel.name)
        _collect_channel_names(process.continuation, definitions, out, visited)
    elif isinstance(process, Choice):
        _collect_channel_names(process.left, definitions, out, visited)
        _collect_channel_names(process.right, definitions, out, visited)
    elif isinstance(process, Parallel):
        _collect_channel_names(process.left, definitions, out, visited)
        _collect_channel_names(process.right, definitions, out, visited)
    elif isinstance(process, Chan):
        out.update(process.channels.names())
        _collect_channel_names(process.body, definitions, out, visited)
    elif isinstance(process, (Name, ArrayRef)):
        if definitions is None or process.name not in definitions:
            return
        if process.name in visited:
            return
        visited.add(process.name)
        _collect_channel_names(
            definitions.lookup(process.name).body, definitions, out, visited
        )
    else:  # pragma: no cover - exhaustiveness guard
        raise TypeError(f"unknown process node {process!r}")


class _Unknown:
    """Sentinel bound to input variables during channel inference: any
    arithmetic on it fails, flagging channels whose identity depends on a
    communicated value."""

    def __repr__(self) -> str:
        return "<unknown input value>"


_UNKNOWN = _Unknown()


class _Candidates(_Unknown):
    """A received value whose domain is statically known, finite, and
    small: the dependency walk can enumerate the subscripts it may
    produce instead of over-approximating to every sampled entry.

    Subclasses :class:`_Unknown` so every conservative ``isinstance``
    check (and any arithmetic, which still fails) treats it as unknown;
    only :func:`_subscript_candidates` exploits the extra precision.
    """

    __slots__ = ("values",)

    def __init__(self, values: Tuple[object, ...]) -> None:
        self.values = values

    def __repr__(self) -> str:
        return f"<input value in {self.values!r}>"


def concrete_channels(
    process: Process,
    definitions: Optional[DefinitionList],
    env: Environment,
) -> FrozenSet[Channel]:
    """All concrete channels a process can use, with subscripts evaluated.

    This powers alphabet inference for ``P ‖ Q`` when explicit ``X``/``Y``
    annotations are omitted.  Channel subscripts may depend on process-array
    parameters (``col[i-1]`` in the multiplier) — those are resolved — but
    not on values received in input prefixes; such processes must annotate
    their parallel compositions explicitly, and a
    :class:`~repro.errors.SemanticsError` says so.
    """
    out: Set[Channel] = set()
    visited: Set[Tuple[str, object]] = set()
    _collect_concrete(process, definitions, env, out, visited)
    return frozenset(out)


def _eval_channel(channel_expr, env: Environment) -> Channel:
    try:
        chan = channel_expr.evaluate(env)
    except EvaluationError as exc:
        raise SemanticsError(
            f"cannot infer concrete channel for {channel_expr!r}: its subscript "
            f"depends on a value not statically known ({exc}); annotate the "
            f"parallel composition with explicit channel lists"
        ) from exc
    if isinstance(chan.index, _Unknown):
        raise SemanticsError(
            f"cannot infer concrete channel for {channel_expr!r}: its subscript "
            f"is a value received at run time; annotate the parallel "
            f"composition with explicit channel lists"
        )
    return chan


def _collect_concrete(
    process: Process,
    definitions: Optional[DefinitionList],
    env: Environment,
    out: Set[Channel],
    visited: Set[Tuple[str, object]],
) -> None:
    if isinstance(process, Stop):
        return
    if isinstance(process, Output):
        out.add(_eval_channel(process.channel, env))
        _collect_concrete(process.continuation, definitions, env, out, visited)
    elif isinstance(process, Input):
        out.add(_eval_channel(process.channel, env))
        _collect_concrete(
            process.continuation,
            definitions,
            env.bind(process.variable, _UNKNOWN),
            out,
            visited,
        )
    elif isinstance(process, Choice):
        _collect_concrete(process.left, definitions, env, out, visited)
        _collect_concrete(process.right, definitions, env, out, visited)
    elif isinstance(process, Parallel):
        _collect_concrete(process.left, definitions, env, out, visited)
        _collect_concrete(process.right, definitions, env, out, visited)
    elif isinstance(process, Chan):
        out.update(process.channels.evaluate(env))
        _collect_concrete(process.body, definitions, env, out, visited)
    elif isinstance(process, Name):
        if definitions is None or process.name not in definitions:
            return
        key = (process.name, None)
        if key in visited:
            return
        visited.add(key)
        _collect_concrete(
            definitions.lookup_process(process.name).body,
            definitions,
            env,
            out,
            visited,
        )
    elif isinstance(process, ArrayRef):
        if definitions is None or process.name not in definitions:
            return
        array = definitions.lookup_array(process.name)
        try:
            value = process.index.evaluate(env)
        except EvaluationError:
            value = _UNKNOWN
        key = (process.name, value if not isinstance(value, _Unknown) else "?")
        if key in visited:
            return
        visited.add(key)
        param_env = env.bind(array.parameter, value)
        _collect_concrete(array.body, definitions, param_env, out, visited)
    else:  # pragma: no cover - exhaustiveness guard
        raise TypeError(f"unknown process node {process!r}")


def uses_chan(process: Process, definitions: Optional[DefinitionList] = None) -> bool:
    """True when ``process`` contains a ``chan`` operator, following
    definitions (recursion-safe).

    ``chan`` is the one operator whose denotation depth diverges from the
    request depth (``_denote_chan`` deepens to ``config.hide_depth`` before
    hiding), so closures computed *at* depth ``d`` for chan-bearing
    processes are not truncations of deeper ones.  Callers use this to
    decide whether a fixpoint binding computed once can stand in for
    unfold-on-demand denotation.
    """
    stack: List[Process] = [process]
    visited: Set[str] = set()
    while stack:
        node = stack.pop()
        if isinstance(node, Chan):
            return True
        if isinstance(node, Stop):
            continue
        if isinstance(node, (Output, Input)):
            stack.append(node.continuation)
        elif isinstance(node, (Choice, Parallel)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, (Name, ArrayRef)):
            if definitions is None or node.name not in definitions:
                continue
            if node.name in visited:
                continue
            visited.add(node.name)
            stack.append(definitions.lookup(node.name).body)
        else:  # pragma: no cover - exhaustiveness guard
            raise TypeError(f"unknown process node {node!r}")
    return False


def consult_depths(process: Process, depth: int, hide_depth: int) -> Dict[str, int]:
    """Maximum residual depth at which denoting ``process`` at ``depth``
    may *consult* each referenced definition's binding.

    Mirrors the depth flow of :class:`~repro.semantics.denotation.Denoter`
    exactly: ``Output``/``Input`` consume one level (and stop at 0),
    ``Choice``/``Parallel`` pass the budget through, and ``Chan`` deepens
    its body to ``max(hide_depth, depth)``.  Bindings are consulted — never
    unfolded — so the walk does not follow definitions, and a reference
    reached with budget ``d`` reads exactly ``truncate(binding, d)``.

    This is the soundness bar for the sub-level horizon skip of
    :class:`~repro.semantics.fixpoint.ApproximationChain`: if a
    binding's two versions satisfy ``delta_depth(old, new) >
    consult_depths(body, …)[name]`` then every truncation the denotation
    reads is pointer-identical under hash-consing, so the re-denotation
    would reproduce the previous result exactly and may be skipped.
    References reached with budget 0 read ``truncate(binding, 0) = STOP``
    regardless of the binding and are not recorded.
    """
    out: Dict[str, int] = {}
    stack: List[Tuple[Process, int]] = [(process, depth)]
    while stack:
        node, budget = stack.pop()
        if isinstance(node, Stop):
            continue
        if isinstance(node, (Name, ArrayRef)):
            if budget > 0 and budget > out.get(node.name, 0):
                out[node.name] = budget
        elif isinstance(node, (Output, Input)):
            if budget > 0:
                stack.append((node.continuation, budget - 1))
        elif isinstance(node, (Choice, Parallel)):
            stack.append((node.left, budget))
            stack.append((node.right, budget))
        elif isinstance(node, Chan):
            stack.append((node.body, max(hide_depth, budget)))
        else:  # pragma: no cover - exhaustiveness guard
            raise TypeError(f"unknown process node {node!r}")
    return out


# ---------------------------------------------------------------------------
# Entry-level dependency graph
# ---------------------------------------------------------------------------


class EntryKey(NamedTuple):
    """One fixpoint unknown: a plain definition (``subscript is None``) or
    a single sampled subscript of a process array."""

    name: str
    subscript: object = None

    def pretty(self) -> str:
        if self.subscript is None:
            return self.name
        return f"{self.name}[{self.subscript!r}]"


class Scc(NamedTuple):
    """A strongly connected component of the entry graph.

    ``recursive`` is true for components of more than one entry or with a
    self-loop — exactly the entries that need an approximation chain; the
    rest are denoted once against already-solved dependencies.
    """

    entries: Tuple[EntryKey, ...]
    recursive: bool


def definition_entries(
    definitions: DefinitionList, env: Environment, sample: int
) -> List[EntryKey]:
    """The fixpoint unknowns of a definition list, in definition order.

    Arrays contribute one entry per sampled subscript, mirroring
    ``ApproximationChain._array_values`` so engine and chain solve the
    same system.
    """
    entries: List[EntryKey] = []
    for definition in definitions:
        if definition.is_array:
            values = definition.domain.evaluate(env).sample(sample)
            entries.extend(EntryKey(definition.name, v) for v in values)
        else:
            entries.append(EntryKey(definition.name))
    return entries


def entry_dependencies(
    definitions: DefinitionList, env: Environment, sample: int
) -> Dict[EntryKey, Tuple[EntryKey, ...]]:
    """Conservative entry-level dependency edges.

    For each entry, walk its body recording which other entries its
    denotation may consult.  Array references whose subscript cannot be
    evaluated statically (it depends on a received value) or falls outside
    the sampled set depend conservatively on *every* sampled entry of that
    array.  Over-approximating edges is always sound here: edges only
    schedule work and gate delta-skips, they never change what a
    :class:`~repro.semantics.denotation.Denoter` computes.
    """
    sampled: Dict[str, Tuple[object, ...]] = {}
    for definition in definitions:
        if definition.is_array:
            sampled[definition.name] = tuple(
                definition.domain.evaluate(env).sample(sample)
            )

    deps: Dict[EntryKey, Tuple[EntryKey, ...]] = {}
    for entry in definition_entries(definitions, env, sample):
        definition = definitions.lookup(entry.name)
        if definition.is_array:
            body_env = env.bind(definition.parameter, entry.subscript)
        else:
            body_env = env
        found: List[EntryKey] = []
        seen: Set[EntryKey] = set()
        _collect_entry_deps(
            definition.body, definitions, body_env, sampled, sample, found, seen
        )
        deps[entry] = tuple(found)
    return deps


#: Candidate-enumeration budgets for :func:`_subscript_candidates`: a
#: received value tracks at most this many candidate values, and a
#: subscript expression at most this many joint assignments; beyond them
#: the walk stays conservative (depend on every sampled entry).
_CANDIDATE_CAP = 8
_ASSIGNMENT_CAP = 64


def _input_candidates(process: Input, env: Environment, sample: int) -> _Unknown:
    """The sentinel to bind an input variable to: a :class:`_Candidates`
    carrying exactly the values the :class:`~repro.semantics.denotation.
    Denoter` will enumerate (``domain.sample(sample)``) when the domain is
    statically evaluable, finite, and small — else plain ``_UNKNOWN``."""
    try:
        domain = process.domain.evaluate(env)
    except EvaluationError:
        return _UNKNOWN
    if not getattr(domain, "is_finite", False):
        return _UNKNOWN
    values = tuple(domain.sample(sample))
    if not values or len(values) > _CANDIDATE_CAP:
        return _UNKNOWN
    return _Candidates(values)


def _subscript_candidates(
    index, env: Environment
) -> Optional[Set[object]]:
    """All values a subscript expression can take when its unknown free
    variables are :class:`_Candidates`.  ``None`` when any free variable
    is truly unknown, the assignment product exceeds the cap, or an
    evaluation fails — callers must then stay conservative."""
    assignments: List[Dict[str, object]] = [{}]
    for var in sorted(index.free_variables()):
        bound = env.get(var, _UNKNOWN)
        if isinstance(bound, _Candidates):
            options = bound.values
        elif isinstance(bound, _Unknown):
            return None
        else:
            continue  # concretely bound: evaluate() sees it directly
        if len(assignments) * len(options) > _ASSIGNMENT_CAP:
            return None
        assignments = [
            dict(assignment, **{var: option})
            for assignment in assignments
            for option in options
        ]
    results: Set[object] = set()
    for assignment in assignments:
        scoped = env.bind_all(assignment) if assignment else env
        try:
            results.add(index.evaluate(scoped))
        except EvaluationError:
            return None
    return results


def _collect_entry_deps(
    process: Process,
    definitions: DefinitionList,
    env: Environment,
    sampled: Dict[str, Tuple[object, ...]],
    sample: int,
    out: List[EntryKey],
    seen: Set[EntryKey],
) -> None:
    if isinstance(process, Stop):
        return
    if isinstance(process, Output):
        _collect_entry_deps(
            process.continuation, definitions, env, sampled, sample, out, seen
        )
    elif isinstance(process, Input):
        _collect_entry_deps(
            process.continuation,
            definitions,
            env.bind(process.variable, _input_candidates(process, env, sample)),
            sampled,
            sample,
            out,
            seen,
        )
    elif isinstance(process, (Choice, Parallel)):
        _collect_entry_deps(process.left, definitions, env, sampled, sample, out, seen)
        _collect_entry_deps(process.right, definitions, env, sampled, sample, out, seen)
    elif isinstance(process, Chan):
        _collect_entry_deps(process.body, definitions, env, sampled, sample, out, seen)
    elif isinstance(process, Name):
        if process.name not in definitions:
            return
        if process.name in sampled:
            # A bare Name can still resolve to an array definition in a
            # malformed list; depend on every sampled entry.
            for value in sampled[process.name]:
                _note_dep(EntryKey(process.name, value), out, seen)
        else:
            _note_dep(EntryKey(process.name), out, seen)
    elif isinstance(process, ArrayRef):
        if process.name not in definitions:
            return
        values = sampled.get(process.name, ())
        try:
            value = process.index.evaluate(env)
        except EvaluationError:
            value = _UNKNOWN
        if not isinstance(value, _Unknown) and value in values:
            _note_dep(EntryKey(process.name, value), out, seen)
        else:
            # Unknown subscript: when every unknown free variable carries a
            # small candidate set, the subscript's reachable values can be
            # enumerated exactly (the denoter binds exactly those values),
            # splitting what would otherwise become one mega-SCC.
            candidates = _subscript_candidates(process.index, env)
            if candidates is not None and all(c in values for c in candidates):
                for c in sorted(candidates, key=repr):
                    _note_dep(EntryKey(process.name, c), out, seen)
            else:
                # Truly unknown or out-of-sample: conservatively depend on
                # every sampled entry of the array.
                for v in values:
                    _note_dep(EntryKey(process.name, v), out, seen)
    else:  # pragma: no cover - exhaustiveness guard
        raise TypeError(f"unknown process node {process!r}")


def _note_dep(key: EntryKey, out: List[EntryKey], seen: Set[EntryKey]) -> None:
    if key not in seen:
        seen.add(key)
        out.append(key)


def condense_entries(
    deps: Dict[EntryKey, Tuple[EntryKey, ...]]
) -> List[Scc]:
    """Condense the entry graph into SCCs, emitted dependencies-first.

    Iterative Tarjan.  Because edges point from an entry *to* its
    dependencies, Tarjan's pop order (all successors of a component are
    popped before it) is exactly the topological order the engine needs:
    by the time an SCC is emitted, everything it depends on already was.
    """
    index: Dict[EntryKey, int] = {}
    lowlink: Dict[EntryKey, int] = {}
    on_stack: Set[EntryKey] = set()
    stack: List[EntryKey] = []
    sccs: List[Scc] = []
    counter = [0]

    def strongconnect(root: EntryKey) -> None:
        work: List[Tuple[EntryKey, int]] = [(root, 0)]
        while work:
            node, edge_idx = work.pop()
            if edge_idx == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            successors = deps.get(node, ())
            for i in range(edge_idx, len(successors)):
                succ = successors[i]
                if succ not in deps:
                    continue
                if succ not in index:
                    work.append((node, i + 1))
                    work.append((succ, 0))
                    recurse = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                members: List[EntryKey] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    members.append(member)
                    if member is node or member == node:
                        break
                members.reverse()
                recursive = len(members) > 1 or node in deps.get(node, ())
                sccs.append(Scc(tuple(members), recursive))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    for entry in deps:
        if entry not in index:
            strongconnect(entry)
    return sccs


def scc_ranks(
    sccs: List[Scc], deps: Dict[EntryKey, Tuple[EntryKey, ...]]
) -> List[int]:
    """Topological rank of each SCC: 0 for leaves, else 1 + the maximum
    rank among the SCCs it depends on.  Equal-rank SCCs share no
    dependency path, so they may be solved concurrently."""
    scc_of: Dict[EntryKey, int] = {}
    for i, scc in enumerate(sccs):
        for entry in scc.entries:
            scc_of[entry] = i
    ranks: List[int] = []
    for i, scc in enumerate(sccs):
        rank = 0
        for entry in scc.entries:
            for dep in deps.get(entry, ()):
                j = scc_of.get(dep)
                if j is not None and j != i:
                    rank = max(rank, ranks[j] + 1)
        ranks.append(rank)
    return ranks
