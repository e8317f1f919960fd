"""The channel-history map ``ch(s)`` (paper §3.3).

``ch(s)`` maps every channel name onto the sequence of messages whose
communication along that channel is recorded in the trace ``s``.  The
paper's worked example::

    s = ⟨input.27, wire.27, input.0, wire.0, input.3⟩
    ch(s)(input) = ⟨27, 0, 3⟩
    ch(s)(wire)  = ⟨27, 0⟩
    ch(s)(c)     = ⟨⟩   for any other channel c

Assertions are evaluated in the environment ``ρ + ch(s)``, where channel
names take the values ``ch(s)`` ascribes to them; :class:`ChannelHistory`
is that extension's channel part, the one the interpreter
(:func:`~repro.assertions.eval.evaluate_formula`), the proof oracle and
the flat per-trace sat loop read.  The sat trie walk threads ``ch(s)``
another way: one walk asks for a small, fixed set of channels, so it
keeps a plain tuple of message sequences indexed by channel slots that
are local to the check (:class:`~repro.sat.checker.SatChecker`), and
reads it through :func:`~repro.assertions.eval.compile_formula`.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterator, Mapping, Tuple

from repro.traces.events import Channel, Trace

Message = Any
MessageSeq = Tuple[Message, ...]


class ChannelHistory:
    """An immutable total map from channels to message sequences.

    Channels never recorded map to the empty sequence ⟨⟩, exactly as in the
    paper (``ch(s)(c) = ⟨⟩`` for unused ``c``).
    """

    __slots__ = ("_sequences",)

    def __init__(self, sequences: Mapping[Channel, MessageSeq] = ()) -> None:
        cleaned: Dict[Channel, MessageSeq] = {}
        for chan, seq in dict(sequences).items():
            seq = tuple(seq)
            if seq:
                cleaned[chan] = seq
        self._sequences = cleaned

    def __call__(self, chan: Channel) -> MessageSeq:
        """``ch(s)(c)`` — total lookup, defaulting to ⟨⟩."""
        return self._sequences.get(chan, ())

    def get(self, chan: Channel) -> MessageSeq:
        return self(chan)

    def channels(self) -> FrozenSet[Channel]:
        """Channels with non-empty history."""
        return frozenset(self._sequences)

    def items(self) -> Iterator[Tuple[Channel, MessageSeq]]:
        return iter(sorted(self._sequences.items(), key=lambda kv: kv[0].sort_key()))

    def total_length(self) -> int:
        """Number of communications recorded across all channels."""
        return sum(len(seq) for seq in self._sequences.values())

    def with_prefixed(self, chan: Channel, message: Message) -> "ChannelHistory":
        """The history with ``message`` *prefixed* to channel ``chan`` —
        the update ``ch(c.m⌢s) = ch(s)[(m⌢ch(s)(c))/c]`` of §3.3."""
        updated = dict(self._sequences)
        updated[chan] = (message,) + self(chan)
        return ChannelHistory(updated)

    def restrict_away(self, channels: FrozenSet[Channel]) -> "ChannelHistory":
        """Histories with the given channels' records removed — mirrors
        ``ch(s \\ C)`` (lemma (d) of §3.4)."""
        return ChannelHistory(
            {c: seq for c, seq in self._sequences.items() if c not in channels}
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChannelHistory) and self._sequences == other._sequences

    def __hash__(self) -> int:
        return hash(frozenset(self._sequences.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{chan!r}: {seq!r}" for chan, seq in self.items())
        return f"ChannelHistory({{{inner}}})"


def ch(s: Trace) -> ChannelHistory:
    """Compute ``ch(s)`` by a single left-to-right pass.

    Equivalent to the paper's right recursion
    ``ch(c.m⌢s) = ch(s)[(m⌢ch(s)(c))/c]`` — prefixing while recursing from
    the right is the same as appending while scanning from the left.
    """
    sequences: Dict[Channel, list] = {}
    for e in s:
        sequences.setdefault(e.channel, []).append(e.message)
    return ChannelHistory({chan: tuple(seq) for chan, seq in sequences.items()})
