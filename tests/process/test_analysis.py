"""Unit tests for static analysis of process expressions."""

import pytest

from repro.errors import SemanticsError
from repro.process.analysis import (
    EntryKey,
    channel_names,
    concrete_channels,
    condense_entries,
    consult_depths,
    definition_entries,
    entry_dependencies,
    free_variables,
    has_guarded_recursion,
    is_guarded,
    referenced_names,
    scc_ranks,
    unguarded_references,
    uses_chan,
)
from repro.process.ast import (
    STOP,
    ArrayRef,
    Chan,
    Choice,
    Name,
    Parallel,
    input_,
    output,
)
from repro.process.channels import ChannelExpr, ChannelList
from repro.process.definitions import DefinitionList, ProcessDef
from repro.process.parser import parse_definitions, parse_process
from repro.traces.events import Channel
from repro.values.environment import Environment
from repro.values.expressions import NatSet, const


class TestReferencedNames:
    def test_collects_names_and_array_refs(self):
        p = Choice(Name("p"), output("c", 0, ArrayRef("q", const(1))))
        assert referenced_names(p) == {"p", "q"}

    def test_stop_references_nothing(self):
        assert referenced_names(STOP) == frozenset()

    def test_through_all_constructs(self):
        p = Chan(
            ChannelList([ChannelExpr("w")]),
            Parallel(Name("a"), input_("c", "x", NatSet(), Name("b"))),
        )
        assert referenced_names(p) == {"a", "b"}


class TestGuardedness:
    def test_prefix_guards(self):
        assert is_guarded(output("c", 0, Name("p")), frozenset({"p"}))
        assert is_guarded(input_("c", "x", NatSet(), Name("p")), frozenset({"p"}))

    def test_bare_name_unguarded(self):
        assert not is_guarded(Name("p"), frozenset({"p"}))
        assert unguarded_references(Choice(Name("p"), STOP), frozenset({"p"})) == {"p"}

    def test_choice_parallel_chan_do_not_guard(self):
        assert not is_guarded(Choice(Name("p"), STOP), frozenset({"p"}))
        assert not is_guarded(Parallel(Name("p"), STOP), frozenset({"p"}))
        assert not is_guarded(
            Chan(ChannelList([ChannelExpr("w")]), Name("p")), frozenset({"p"})
        )

    def test_graph_cycle_detection(self):
        guarded = DefinitionList(
            [ProcessDef("p", Name("q")), ProcessDef("q", output("a", 0, Name("p")))]
        )
        assert has_guarded_recursion(guarded)

    def test_graph_cycle_detected_as_unguarded(self):
        cyclic = DefinitionList(
            [ProcessDef("p", Name("q")), ProcessDef("q", Name("p"))],
            require_guarded=False,
        )
        assert not has_guarded_recursion(cyclic)


class TestChannelNames:
    def test_direct(self):
        p = parse_process("input?x:NAT -> wire!x -> STOP")
        assert channel_names(p) == {"input", "wire"}

    def test_follows_definitions(self):
        defs = parse_definitions("copier = input?x:NAT -> wire!x -> copier")
        assert channel_names(Name("copier"), defs) == {"input", "wire"}

    def test_recursion_safe(self):
        defs = parse_definitions(
            "p = a!0 -> q; q = b!0 -> p"
        )
        assert channel_names(Name("p"), defs) == {"a", "b"}

    def test_chan_names_included(self):
        p = parse_process("chan wire; STOP")
        assert channel_names(p) == {"wire"}

    def test_unknown_name_without_defs_ignored(self):
        assert channel_names(Name("ghost")) == frozenset()


class TestConcreteChannels:
    ENV = Environment()

    def test_simple(self):
        p = parse_process("input?x:NAT -> wire!x -> STOP")
        assert concrete_channels(p, None, self.ENV) == {
            Channel("input"),
            Channel("wire"),
        }

    def test_array_parameter_resolved(self):
        # mult[2] uses row[2], col[1], col[2]
        defs = parse_definitions(
            "mult[i:{1..3}] = row[i]?x:NAT -> col[i-1]?y:NAT -> col[i]!x+y -> mult[i]",
        )
        chans = concrete_channels(ArrayRef("mult", const(2)), defs, self.ENV)
        assert chans == {Channel("row", 2), Channel("col", 1), Channel("col", 2)}

    def test_input_dependent_channel_rejected(self):
        # the channel d[x] depends on the received value x
        p = parse_process("c?x:NAT -> d[x]!0 -> STOP")
        with pytest.raises(SemanticsError, match="annotate"):
            concrete_channels(p, None, self.ENV)

    def test_input_variable_not_needed_is_fine(self):
        p = parse_process("c?x:NAT -> d!x -> STOP")
        assert concrete_channels(p, None, self.ENV) == {Channel("c"), Channel("d")}

    def test_chan_list_channels_included(self):
        p = parse_process("chan col[0..1]; STOP")
        assert concrete_channels(p, None, self.ENV) == {
            Channel("col", 0),
            Channel("col", 1),
        }

    def test_recursive_array_terminates(self):
        defs = parse_definitions("zeroes = col[0]!0 -> zeroes")
        assert concrete_channels(Name("zeroes"), defs, self.ENV) == {Channel("col", 0)}


class TestFreeVariables:
    def test_delegates_to_ast(self):
        p = parse_process("wire!x -> STOP")
        assert free_variables(p) == {"x"}


class TestUsesChan:
    def test_direct_chan(self):
        assert uses_chan(parse_process("chan wire; STOP"))

    def test_chan_free(self):
        assert not uses_chan(parse_process("a!0 -> (b!1 -> STOP | c?x:NAT -> STOP)"))

    def test_nested_chan(self):
        assert uses_chan(parse_process("a!0 -> (STOP | b?x:NAT -> chan w; STOP)"))

    def test_names_are_not_followed(self):
        # The chain and the engine ask about each definition's own body.
        assert not uses_chan(parse_process("a!0 -> net"))


def _graph(source, sample=2, env=None):
    defs = parse_definitions(source)
    env = env if env is not None else Environment()
    return defs, definition_entries(defs, env, sample), entry_dependencies(
        defs, env, sample
    )


class TestEntryGraph:
    def test_plain_definitions_one_entry_each(self):
        _, entries, deps = _graph("p = a!0 -> q; q = b!0 -> p")
        assert entries == [EntryKey("p"), EntryKey("q")]
        assert deps[EntryKey("p")] == (EntryKey("q"),)
        assert deps[EntryKey("q")] == (EntryKey("p"),)

    def test_array_one_entry_per_sampled_subscript(self):
        _, entries, deps = _graph(
            "arr[i:{0..4}] = a[i]!0 -> arr[i]", sample=3
        )
        assert entries == [EntryKey("arr", 0), EntryKey("arr", 1), EntryKey("arr", 2)]
        # arr[i] under i=1 resolves concretely to arr[1]: a single edge.
        assert deps[EntryKey("arr", 1)] == (EntryKey("arr", 1),)

    def test_unknown_subscript_depends_on_all_sampled(self):
        # the subscript depends on a received value → conservative edges
        _, _, deps = _graph(
            "p = c?x:NAT -> arr[x]; arr[i:{0..2}] = a!0 -> STOP", sample=2
        )
        assert deps[EntryKey("p")] == (EntryKey("arr", 0), EntryKey("arr", 1))

    def test_out_of_sample_subscript_depends_on_all_sampled(self):
        _, _, deps = _graph(
            "p = c!0 -> arr[7]; arr[i:{0..2}] = a!0 -> STOP", sample=2
        )
        assert deps[EntryKey("p")] == (EntryKey("arr", 0), EntryKey("arr", 1))

    def test_undefined_names_contribute_no_edges(self):
        # a non-strict list may reference names it does not define
        defs = DefinitionList(
            [ProcessDef("p", output("a", 0, Name("ghost")))], strict=False
        )
        deps = entry_dependencies(defs, Environment(), 2)
        assert deps[EntryKey("p")] == ()


class TestCondense:
    def test_mutual_recursion_is_one_recursive_scc(self):
        _, _, deps = _graph("p = a!0 -> q; q = b!0 -> p")
        sccs = condense_entries(deps)
        assert len(sccs) == 1
        assert set(sccs[0].entries) == {EntryKey("p"), EntryKey("q")}
        assert sccs[0].recursive

    def test_self_loop_is_recursive(self):
        _, _, deps = _graph("p = a!0 -> p")
        (scc,) = condense_entries(deps)
        assert scc.recursive

    def test_acyclic_definition_not_recursive(self):
        _, _, deps = _graph("leaf = a!0 -> STOP; top = b!0 -> leaf")
        sccs = condense_entries(deps)
        assert all(not s.recursive for s in sccs)

    def test_dependencies_emitted_first(self):
        _, _, deps = _graph(
            "top = a!0 -> mid; mid = b!0 -> leaf; leaf = c!0 -> leaf"
        )
        sccs = condense_entries(deps)
        order = [scc.entries[0].name for scc in sccs]
        assert order.index("leaf") < order.index("mid") < order.index("top")


class TestSccRanks:
    def test_leaves_rank_zero_dependents_above(self):
        _, _, deps = _graph(
            "top = a!0 -> mid; mid = b!0 -> leaf; leaf = c!0 -> leaf"
        )
        sccs = condense_entries(deps)
        ranks = scc_ranks(sccs, deps)
        by_name = {scc.entries[0].name: rank for scc, rank in zip(sccs, ranks)}
        assert by_name == {"leaf": 0, "mid": 1, "top": 2}

    def test_independent_sccs_share_a_rank(self):
        _, _, deps = _graph("p = a!0 -> p; q = b!0 -> q")
        sccs = condense_entries(deps)
        assert scc_ranks(sccs, deps) == [0, 0]


class TestSubscriptCandidates:
    """Finite input domains split the conservative all-sampled edges."""

    def test_finite_input_splits_the_mega_scc(self):
        # x ranges over {0,1}: arr[i] needs only arr[0] and arr[1], so
        # arr[2] must not be pulled into the recursive SCC.
        _, _, deps = _graph(
            "arr[i:{0..2}] = c?x:{0,1} -> arr[x]", sample=3
        )
        for sub in (0, 1, 2):
            assert deps[EntryKey("arr", sub)] == (
                EntryKey("arr", 0),
                EntryKey("arr", 1),
            )
        sccs = condense_entries(deps)
        recursive = [s for s in sccs if s.recursive]
        assert len(recursive) == 1
        assert set(recursive[0].entries) == {
            EntryKey("arr", 0),
            EntryKey("arr", 1),
        }
        flat = [s for s in sccs if not s.recursive]
        assert {e for s in flat for e in s.entries} == {EntryKey("arr", 2)}

    def test_infinite_domain_stays_conservative(self):
        _, _, deps = _graph(
            "p = c?x:NAT -> arr[x]; arr[i:{0..2}] = a!0 -> STOP", sample=2
        )
        assert deps[EntryKey("p")] == (EntryKey("arr", 0), EntryKey("arr", 1))

    def test_out_of_sample_candidate_stays_conservative(self):
        # One candidate (7) is out of sample: the precise split would
        # miss an edge the Denoter actually takes, so all-sampled wins.
        _, _, deps = _graph(
            "p = c?x:{0,7} -> arr[x]; arr[i:{0..9}] = a!0 -> STOP",
            sample=2,
        )
        assert deps[EntryKey("p")] == (EntryKey("arr", 0), EntryKey("arr", 1))

    def test_arithmetic_over_candidates_is_evaluated(self):
        # arr[x+1] with x in {0,1} → edges to arr[1] and arr[2] only.
        _, _, deps = _graph(
            "arr[i:{0..3}] = c?x:{0,1} -> arr[x+1]", sample=4
        )
        assert deps[EntryKey("arr", 0)] == (
            EntryKey("arr", 1),
            EntryKey("arr", 2),
        )


class TestConsultDepths:
    def test_prefix_consumes_one_level(self):
        p = parse_process("a!0 -> q")
        assert consult_depths(p, 4, 10) == {"q": 3}

    def test_zero_budget_reference_not_recorded(self):
        # truncate(binding, 0) = STOP no matter the binding: a reference
        # reached with no residual budget never consults anything.
        p = parse_process("a!0 -> q")
        assert consult_depths(p, 1, 10) == {}

    def test_choice_and_parallel_pass_budget_through(self):
        p = parse_process("(p | a!0 -> q)")
        assert consult_depths(p, 3, 10) == {"p": 3, "q": 2}

    def test_input_consumes_one_level(self):
        p = parse_process("c?x:{0,1} -> p")
        assert consult_depths(p, 2, 10) == {"p": 1}

    def test_chan_deepens_to_hide_depth(self):
        p = parse_process("chan w; a!0 -> p")
        assert consult_depths(p, 4, 10) == {"p": 9}

    def test_max_budget_wins_across_occurrences(self):
        p = parse_process("(q | a!0 -> q)")
        assert consult_depths(p, 3, 10) == {"q": 3}
