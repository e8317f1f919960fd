"""Unit tests for per-thread kernel state.

``private_state`` gives the calling thread its own interner+memo
universe, starting empty, and restores the previous one on exit.
"""

import threading

from repro.process.ast import Name
from repro.process.parser import parse_definitions
from repro.semantics.config import SemanticsConfig
from repro.semantics.denotation import denote
from repro.traces.trie import interner_size, make_node, private_state

CFG = SemanticsConfig(depth=3, sample=2)


def _denote_p():
    return denote(Name("p"), parse_definitions("p = a!0 -> b!1 -> p"), config=CFG)


class TestPrivateState:
    def test_isolated_interner(self):
        baseline = interner_size()
        with private_state():
            assert interner_size() == 1  # just the seeded empty node
            _denote_p()
            assert interner_size() > 1
        assert interner_size() == baseline  # ambient state untouched

    def test_empty_node_reseeded_inside(self):
        with private_state():
            assert make_node({}) is not None
            # the empty node is canonical inside the private universe too
            assert make_node({}) is make_node({})

    def test_nesting_restores_previous_state(self):
        with private_state():
            _denote_p()
            inner_size = interner_size()
            with private_state():
                assert interner_size() == 1
            assert interner_size() == inner_size

    def test_threads_get_independent_states(self):
        sizes = {}

        def worker(tag):
            with private_state():
                _denote_p()
                sizes[tag] = interner_size()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sizes[0] == sizes[1] > 1

