"""Terminal specs: each terminal family defined once, run by one driver
per backend.

Java streams evaluate every terminal operation through one template: a
``TerminalOp`` supplies a fresh sink per leaf and a way to merge leaf
results, and one fork/join machine (``AbstractTask``) drives it.  This
module holds that template for the five families:

* :class:`CollectSpec` — mutable reduction (supplier / accumulator /
  combiner / finisher — the paper's template method);
* :class:`ReduceSpec` — immutable reduction, with a separate accumulator
  (leaf fold) and combiner (merge of partials);
* :class:`ForEachSpec`, :class:`MatchSpec` (any/all/none) and
  :class:`FindSpec` (first/any).

A spec supplies:

* :meth:`~TerminalSpec.leaf_sink` — a fresh sink per leaf, built from a
  module-level sink class so specs pickle to worker processes.  ``cancel``
  is the run's token (``is_set``/``set``): sinks stop at their next poll
  point once it is set, and broadcasting specs set it on a hit;
* ``partial`` / ``merge`` / ``finish`` — the leaf result, the ordered
  (prefix, suffix) merge, and the caller's result;
* ``broadcasts`` / :meth:`~TerminalSpec.hit` — whether a hit in one leaf
  decides the answer for every leaf (match, ``find_any``);
* ``observes`` / :meth:`~TerminalSpec.feeds_memo` — whether the run may
  feed the adaptive cost memo (find never does: its leaves stop early by
  design; match only when it did not trigger).

Drivers — the only code that evaluates a spec:

* :func:`run_sequential` (here) — one leaf over the whole source;
* :func:`repro.streams.parallel.run_threads` — the fork/join task tree;
* :func:`repro.streams.process_backend.run_process` — leaf batches in
  worker processes.

A new backend therefore costs one driver, not five terminal functions.
"""

from __future__ import annotations

import functools
import itertools
import pickle
import threading
from typing import Any, Callable, Sequence

from repro.streams import collectors
from repro.streams.collector import Collector
from repro.streams.ops import Op, Sink, run_pipeline
from repro.streams.optional import Optional
from repro.streams.spliterator import Spliterator

# --------------------------------------------------------------------------- #
# Leaf sinks (module level: specs and their sinks must pickle)
# --------------------------------------------------------------------------- #


class AccumulatorSink(Sink):
    """Terminal sink folding elements into a mutable container.

    Used by every collect leaf.  When the collector supplies a chunk
    accumulator (``to_list`` → ``extend``, ``counting`` → ``+= len``, …)
    whole chunks fold in one call; otherwise chunks fall back to an
    in-sink per-element loop.
    """

    __slots__ = ("container", "_accumulate", "_accumulate_chunk", "_cancel")

    def __init__(
        self,
        container: Any,
        accumulate: Callable[[Any, Any], None],
        accumulate_chunk: Callable[[Any, Sequence], None] | None = None,
        cancel: Any = None,
    ) -> None:
        self.container = container
        self._accumulate = accumulate
        self._accumulate_chunk = accumulate_chunk
        self._cancel = cancel

    def accept(self, item: Any) -> None:
        self._accumulate(self.container, item)

    def accept_chunk(self, chunk: Sequence) -> None:
        if self._accumulate_chunk is not None:
            self._accumulate_chunk(self.container, chunk)
        else:
            accumulate, container = self._accumulate, self.container
            for item in chunk:
                accumulate(container, item)

    def cancellation_requested(self) -> bool:
        return self._cancel is not None and self._cancel.is_set()


class ReducingSink(Sink):
    """Terminal sink for immutable reduction (``Stream.reduce``).

    Keeps ``(value, seen_any)``; chunks fold through ``functools.reduce``
    (one C-level loop) instead of one sink call per element.
    """

    __slots__ = ("value", "seen", "_op", "_cancel")

    def __init__(self, op: Callable[[Any, Any], Any], identity: Any = None,
                 has_identity: bool = False, cancel: Any = None) -> None:
        self.value = identity
        self.seen = has_identity
        self._op = op
        self._cancel = cancel

    def accept(self, item: Any) -> None:
        if self.seen:
            self.value = self._op(self.value, item)
        else:
            self.value = item
            self.seen = True

    def accept_chunk(self, chunk: Sequence) -> None:
        it = iter(chunk)
        if not self.seen:
            for first in it:
                self.value = first
                self.seen = True
                break
            else:
                return
        self.value = functools.reduce(self._op, it, self.value)

    def cancellation_requested(self) -> bool:
        return self._cancel is not None and self._cancel.is_set()


class ForEachSink(Sink):
    """Terminal sink applying an action to every element."""

    __slots__ = ("_action", "_cancel")

    def __init__(self, action: Callable[[Any], None], cancel: Any = None) -> None:
        self._action = action
        self._cancel = cancel

    def accept(self, item: Any) -> None:
        self._action(item)

    def cancellation_requested(self) -> bool:
        return self._cancel is not None and self._cancel.is_set()


class MatchSink(Sink):
    """Stops at the first element satisfying ``trigger`` (a witness for
    ``any``/``none``, a counterexample for ``all``).  A witness anywhere
    decides the whole match, so a hit also sets ``cancel`` (when given)
    and running sibling leaves abort."""

    __slots__ = ("found", "_trigger", "_cancel")

    def __init__(self, trigger: Callable[[Any], Any], cancel: Any = None) -> None:
        self.found = False
        self._trigger = trigger
        self._cancel = cancel

    def accept(self, item: Any) -> None:
        if not self.found and self._trigger(item):
            self.found = True
            if self._cancel is not None:
                self._cancel.set()

    def cancellation_requested(self) -> bool:
        return self.found or (self._cancel is not None and self._cancel.is_set())


class FindSink(Sink):
    """Keeps the first element it receives (``result`` is ``[]`` or
    ``[element]``, so an absent result survives pickling).  Stops on its
    own hit or ``cancel``, and sets ``cancel`` on a hit when ``broadcast``
    (``find_any``)."""

    __slots__ = ("result", "_cancel", "_broadcast")

    def __init__(self, cancel: Any = None, broadcast: bool = False) -> None:
        self.result: list = []
        self._cancel = cancel
        self._broadcast = broadcast

    def accept(self, item: Any) -> None:
        if not self.result:
            self.result.append(item)
            if self._broadcast and self._cancel is not None:
                self._cancel.set()

    def cancellation_requested(self) -> bool:
        return bool(self.result) or (
            self._cancel is not None and self._cancel.is_set()
        )


# --------------------------------------------------------------------------- #
# Specs
# --------------------------------------------------------------------------- #


def _pickles(obj: Any) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


class TerminalSpec:
    """One terminal family: how a leaf runs and how leaf results merge."""

    __slots__ = ()

    #: Family name, used in deadline and process-run labels.
    name = "terminal"
    #: The functions a process run must pickle, for the error message.
    what = "pipeline stage functions"
    #: Leaves traverse per element with polling (the sink cancels).
    short_circuit = False
    #: A hit in one leaf decides the answer for every leaf.
    broadcasts = False
    #: Runs may feed the adaptive cost memo.
    observes = True

    def leaf_sink(self, cancel: Any = None) -> Sink:
        """A fresh sink for one leaf, polling ``cancel`` (None: never)."""
        raise NotImplementedError

    def partial(self, sink: Sink) -> Any:
        """The leaf result ``sink`` holds after its traversal."""
        return None

    def empty(self) -> Any:
        """The partial of a run whose every leaf was cancelled."""
        return None

    def merge(self, prefix: Any, suffix: Any) -> Any:
        """Merge two partials in encounter order."""
        return None

    def finish(self, partial: Any) -> Any:
        """The caller's result from the root partial."""
        return None

    def hit(self, partial: Any) -> bool:
        """True when ``partial`` decides the answer (broadcasting specs)."""
        return False

    def feeds_memo(self, merged: Any) -> bool:
        """Whether a finished run's timings may feed the adaptive memo."""
        return self.observes

    def leaf(
        self,
        spliterator: Spliterator,
        ops: list[Op],
        cancel: Any = None,
        chunk_size: int | None = None,
    ) -> Any:
        """Run one leaf: traverse ``spliterator`` through ``ops`` into a
        fresh sink and return its partial."""
        sink = self.leaf_sink(cancel)
        run_pipeline(spliterator, ops, sink, self.short_circuit, chunk_size)
        return self.partial(sink)

    def fold(self, partials: list) -> Any:
        """Merge ordered leaf partials; ``None`` marks a leaf cancelled by
        an early stop, which only ever lies right of the answer."""
        present = [p for p in partials if p is not None]
        return functools.reduce(self.merge, present) if present else self.empty()

    def for_workers(self) -> "tuple[TerminalSpec, Callable[[list], Any]]":
        """``(spec worker leaves run, fold of their partials in the parent)``."""
        return self, self.fold


class CollectSpec(TerminalSpec):
    """Mutable reduction (``Stream.collect``)."""

    __slots__ = ("collector",)
    name = "collect"

    def __init__(self, collector: Collector) -> None:
        self.collector = collector

    def leaf_sink(self, cancel: Any = None) -> AccumulatorSink:
        c = self.collector
        return AccumulatorSink(
            c.supplier()(), c.accumulator(), c.chunk_accumulator(), cancel
        )

    def partial(self, sink: AccumulatorSink) -> Any:
        return sink.container

    def empty(self) -> Any:
        return self.collector.supplier()()

    def merge(self, prefix: Any, suffix: Any) -> Any:
        return self.collector.combiner()(prefix, suffix)

    def finish(self, partial: Any) -> Any:
        return self.collector.finisher()(partial)

    def for_workers(self) -> "tuple[TerminalSpec, Callable[[list], Any]]":
        # An unpicklable collector stays in the parent: leaves return
        # their element lists, folded through the accumulator in order —
        # same result, elements cross the boundary instead of containers.
        if _pickles(self):
            return self, self.fold
        return _ELEMENT_LISTS, self._fold_element_lists

    def _fold_element_lists(self, partials: list) -> Any:
        c = self.collector
        container = c.supplier()()
        accumulate, accumulate_chunk = c.accumulator(), c.chunk_accumulator()
        for elements in partials:
            if elements is None:
                continue
            if accumulate_chunk is not None:
                accumulate_chunk(container, elements)
            else:
                for item in elements:
                    accumulate(container, item)
        return container


#: Element-list leaves: what process workers run for collectors that do
#: not pickle (lambdas or closures in user-built collectors).
_ELEMENT_LISTS = CollectSpec(collectors.to_list())


class ReduceSpec(TerminalSpec):
    """Immutable reduction (``Stream.reduce``): leaves fold with
    ``accumulator`` from ``identity``, partials merge with ``combiner``
    (``None``: the one- and two-argument forms, which merge with
    ``accumulator``).  Partials are ``(value, seen)`` pairs."""

    __slots__ = ("accumulator", "combiner", "identity", "has_identity",
                 "_three_arg")
    name = "reduce"
    what = "pipeline stage functions and reduce operator"

    def __init__(self, accumulator: Callable, combiner: Callable | None = None,
                 identity: Any = None, has_identity: bool = False) -> None:
        self.accumulator = accumulator
        self.combiner = accumulator if combiner is None else combiner
        self.identity = identity
        self.has_identity = has_identity
        self._three_arg = combiner is not None

    def leaf_sink(self, cancel: Any = None) -> ReducingSink:
        return ReducingSink(
            self.accumulator, self.identity, self.has_identity, cancel
        )

    def partial(self, sink: ReducingSink) -> tuple:
        return sink.value, sink.seen

    def empty(self) -> tuple:
        return self.identity, self.has_identity

    def merge(self, prefix: tuple, suffix: tuple) -> tuple:
        if not suffix[1]:
            return prefix
        if not prefix[1]:
            return suffix
        return self.combiner(prefix[0], suffix[0]), True

    def finish(self, partial: tuple) -> Any:
        value, seen = partial
        if self.has_identity:
            return value
        return Optional.of(value) if seen else Optional.empty()

    def for_workers(self) -> "tuple[TerminalSpec, Callable[[list], Any]]":
        # Like a collector, the three-argument form may hold lambdas: if it
        # does not pickle, leaves return their element lists and the parent
        # folds them from ``identity`` in encounter order.  The one- and
        # two-argument forms keep the refusal: their operator must pickle.
        if not self._three_arg or _pickles(self):
            return self, self.fold
        return _ELEMENT_LISTS, self._fold_element_lists

    def _fold_element_lists(self, partials: list) -> tuple:
        elements = itertools.chain.from_iterable(
            p for p in partials if p is not None
        )
        return functools.reduce(self.accumulator, elements, self.identity), True


class ForEachSpec(TerminalSpec):
    """``for_each`` (unordered when parallel, like Java's)."""

    __slots__ = ("action",)
    name = "for_each"
    what = "pipeline stage functions and action"

    def __init__(self, action: Callable[[Any], None]) -> None:
        self.action = action

    def leaf_sink(self, cancel: Any = None) -> ForEachSink:
        return ForEachSink(self.action, cancel)


def _fails(predicate: Callable[[Any], Any], item: Any) -> bool:
    return not predicate(item)


class MatchSpec(TerminalSpec):
    """``any_match`` / ``all_match`` / ``none_match``.  Leaves look for a
    witness (``any``/``none``) or a counterexample (``all``); the partial
    is whether they found one."""

    __slots__ = ("predicate", "kind")
    name = "match"
    what = "pipeline stage functions and predicate"
    short_circuit = True
    broadcasts = True

    def __init__(self, predicate: Callable[[Any], Any], kind: str) -> None:
        if kind not in ("any", "all", "none"):
            raise ValueError(f"unknown match kind: {kind}")
        self.predicate = predicate
        self.kind = kind

    def leaf_sink(self, cancel: Any = None) -> MatchSink:
        trigger = self.predicate
        if self.kind == "all":
            trigger = functools.partial(_fails, trigger)
        return MatchSink(trigger, cancel)

    def partial(self, sink: MatchSink) -> bool:
        return sink.found

    def empty(self) -> bool:
        return False

    def merge(self, prefix: bool, suffix: bool) -> bool:
        return prefix or suffix

    def finish(self, partial: bool) -> bool:
        return partial if self.kind == "any" else not partial

    def hit(self, partial: Any) -> bool:
        return partial is True

    def feeds_memo(self, merged: bool) -> bool:
        # A triggered match aborted leaves mid-scan; those timings would
        # teach the memo that elements are cheaper than they are.
        return not merged


class FindSpec(TerminalSpec):
    """``find_first`` / ``find_any``.  The partial is ``[]`` or
    ``[element]``.  ``find_any`` broadcasts its first hit; ``find_first``
    must not — a leftmost element may still be found — so every leaf
    stops at its own first element and the ordered merge keeps the
    leftmost."""

    __slots__ = ("first",)
    name = "find"
    short_circuit = True
    observes = False

    def __init__(self, first: bool) -> None:
        self.first = first

    @property
    def broadcasts(self) -> bool:
        return not self.first

    def leaf_sink(self, cancel: Any = None) -> FindSink:
        return FindSink(cancel, broadcast=not self.first)

    def partial(self, sink: FindSink) -> list:
        return sink.result

    def empty(self) -> list:
        return []

    def merge(self, prefix: list, suffix: list) -> list:
        return prefix if prefix else suffix

    def finish(self, partial: list) -> Optional:
        return Optional.of(partial[0]) if partial else Optional.empty()

    def hit(self, partial: Any) -> bool:
        return bool(partial)


# --------------------------------------------------------------------------- #
# The sequential driver and the shared counted-limit budget
# --------------------------------------------------------------------------- #


def run_sequential(
    spliterator: Spliterator, ops: list[Op], spec: TerminalSpec
) -> Any:
    """Evaluate ``spec`` in the calling thread: one leaf over the whole
    source, no barrier segmentation (stateful ops run inside the chain)."""
    return spec.finish(spec.leaf(spliterator, ops))


class PrefixBudget:
    """Encounter-order output budget for a parallel ``limit(n)`` prefix.

    Both parallel drivers report completed leaves as ``(start, end,
    produced)`` intervals over an ordered key space — source positions on
    the thread tree, leaf slots on the process scatter.  The budget is
    *satisfied* once the contiguous-from-origin prefix of completed
    intervals has produced >= ``n`` outputs.  Only then may sibling
    leaves be cancelled: every aborted or skipped leaf lies strictly to
    the right of the satisfied prefix, so concatenating partials in
    encounter order and truncating to ``n`` still yields exactly the
    stream's first ``n`` outputs.
    """

    __slots__ = ("n", "_origin", "_lock", "_intervals", "satisfied")

    def __init__(self, n: int, origin: int = 0) -> None:
        self.n = n
        self._origin = origin
        self._lock = threading.Lock()
        self._intervals: dict[int, tuple[int, int]] = {}
        self.satisfied = n <= 0

    def note(self, start: int, end: int, produced: int) -> bool:
        """Record a completed leaf; True once the budget is satisfied."""
        if self.satisfied:
            return True
        with self._lock:
            self._intervals[start] = (end, produced)
            frontier = self._origin
            total = 0
            while True:
                entry = self._intervals.get(frontier)
                if entry is None:
                    return self.satisfied
                end_pos, count = entry
                total += count
                if total >= self.n:
                    self.satisfied = True
                    return True
                if end_pos <= frontier:
                    # Zero-width interval (empty source/leaf): the walk
                    # cannot advance past it, and it contributes nothing.
                    return self.satisfied
                frontier = end_pos
