"""Java-parity surface: close handlers, bounded iterate, range_closed,
of_nullable, collecting_and_then, immutable collectors."""

import pytest

from repro.streams import Collectors, Stream


class TestCloseHandlers:
    def test_close_runs_in_order(self):
        calls = []
        s = Stream.of_items(1).on_close(lambda: calls.append("a")).on_close(
            lambda: calls.append("b")
        )
        s.close()
        assert calls == ["a", "b"]

    def test_close_idempotent(self):
        calls = []
        s = Stream.of_items(1).on_close(lambda: calls.append(1))
        s.close()
        s.close()
        assert calls == [1]

    def test_handlers_travel_through_pipeline(self):
        calls = []
        s = (
            Stream.range(0, 4)
            .on_close(lambda: calls.append("closed"))
            .map(lambda x: x + 1)
            .filter(lambda x: x > 1)
        )
        assert s.to_list() == [2, 3, 4]
        s.close()
        assert calls == ["closed"]

    def test_all_handlers_run_despite_exception(self):
        calls = []

        def boom():
            raise ValueError("x")

        s = Stream.of_items(1).on_close(boom).on_close(lambda: calls.append(2))
        with pytest.raises(ValueError):
            s.close()
        assert calls == [2]

    def test_context_manager(self):
        calls = []
        with Stream.range(0, 3).on_close(lambda: calls.append("done")) as s:
            assert s.sum() == 3
        assert calls == ["done"]

    def test_concat_runs_both_inputs_handlers(self):
        # Java's Stream.concat: closing the result closes both inputs.
        calls = []
        a = Stream.of_items(1, 2).on_close(lambda: calls.append("a"))
        b = Stream.of_items(3).on_close(lambda: calls.append("b"))
        s = Stream.concat(a, b)
        assert s.to_list() == [1, 2, 3]
        s.close()
        assert calls == ["a", "b"]


class TestConcatKeepsConfiguration:
    def test_backend_deadline_and_target_size_survive(self):
        from repro.faults.policy import Deadline

        deadline = Deadline.after(60.0)
        a = (
            Stream.range(0, 8)
            .parallel()
            .with_backend("sequential")
            .with_deadline(deadline)
        )
        b = Stream.range(8, 16).with_target_size(3)
        s = Stream.concat(a, b)
        assert s.is_parallel
        assert s._backend == "sequential"
        assert s._deadline is deadline
        assert s._target_size == 3
        assert s.explain()["execution"]["backend"] == "sequential"
        assert s.to_list() == list(range(16))

    def test_first_input_wins_over_second(self):
        a = Stream.range(0, 4).with_target_size(2).with_backend("threads")
        b = Stream.range(4, 8).with_target_size(5).with_backend("sequential")
        s = Stream.concat(a, b)
        assert s._target_size == 2
        assert s._backend == "threads"


class TestLazyConcat:
    """``Stream.concat`` is evaluated at the terminal, as in Java."""

    def test_inputs_untouched_until_terminal(self):
        calls = []
        s = Stream.concat(
            Stream.of_items(1, 2).peek(calls.append), Stream.of_items(3)
        )
        assert calls == []
        assert s.to_list() == [1, 2, 3]
        assert calls == [1, 2]

    def test_infinite_first_input_with_limit(self):
        s = Stream.concat(Stream.iterate(0, lambda x: x + 1), Stream.of_items(-1))
        assert s.limit(5).to_list() == [0, 1, 2, 3, 4]

    def test_parallel_parity_with_ops_on_each_input(self):
        def make():
            return Stream.concat(
                Stream.range(0, 300).map(lambda x: x * 2),
                Stream.of_iterable(list(range(50))).filter(lambda x: x % 3),
            )

        expected = make().to_list()
        assert expected == [x * 2 for x in range(300)] + [
            x for x in range(50) if x % 3
        ]
        assert make().parallel().to_list() == expected
        assert make().parallel().with_target_size(16).sum() == sum(expected)

    def test_sized_when_both_inputs_are(self):
        from repro.streams.spliterator import Characteristics

        s = Stream.concat(Stream.range(0, 8), Stream.range(8, 16))
        spliterator = s._spliterator
        assert spliterator.get_exact_size_if_known() == 16
        assert not spliterator.has_characteristics(Characteristics.SORTED)
        assert not spliterator.has_characteristics(Characteristics.POWER2)
        assert s.parallel().with_target_size(3).to_list() == list(range(16))
        unsized = Stream.concat(
            Stream.range(0, 8), Stream.of_iterable(iter(range(3)))
        )
        assert unsized._spliterator.get_exact_size_if_known() == -1
        assert unsized.count() == 11


class TestJava9Iterate:
    def test_bounded_iterate(self):
        out = Stream.iterate(1, lambda x: x < 100, lambda x: x * 3).to_list()
        assert out == [1, 3, 9, 27, 81]

    def test_bounded_iterate_empty(self):
        assert Stream.iterate(5, lambda x: x < 0, lambda x: x + 1).to_list() == []

    def test_unbounded_still_works(self):
        assert Stream.iterate(0, lambda x: x + 2).limit(4).to_list() == [0, 2, 4, 6]


class TestSmallFactories:
    def test_range_closed(self):
        assert Stream.range_closed(1, 4).to_list() == [1, 2, 3, 4]

    def test_of_nullable(self):
        assert Stream.of_nullable(7).to_list() == [7]
        assert Stream.of_nullable(None).to_list() == []


class TestStreamSpliterator:
    def test_source_passthrough_without_ops(self):
        from repro.streams import Characteristics, ListSpliterator

        s = Stream(ListSpliterator([1, 2, 3, 4]))
        spliterator = s.spliterator()
        assert isinstance(spliterator, ListSpliterator)
        assert spliterator.has_characteristics(Characteristics.POWER2)

    def test_wrapped_pipeline_output(self):
        out = []
        Stream.range(0, 6).map(lambda x: x * 10).spliterator().for_each_remaining(
            out.append
        )
        assert out == [0, 10, 20, 30, 40, 50]

    def test_consumes_stream(self):
        from repro.common import IllegalStateError

        s = Stream.of_items(1, 2)
        s.spliterator()
        with pytest.raises(IllegalStateError):
            s.to_list()

    def test_splittable_downstream(self):
        spliterator = Stream.range(0, 5000).filter(lambda x: x % 2 == 0).spliterator()
        prefix = spliterator.try_split()
        out = []
        if prefix is not None:
            prefix.for_each_remaining(out.append)
        spliterator.for_each_remaining(out.append)
        assert out == list(range(0, 5000, 2))


class TestCollectingAndThen:
    def test_post_transform(self):
        out = Stream.range(0, 5).collect(
            Collectors.collecting_and_then(Collectors.to_list(), len)
        )
        assert out == 5

    def test_parallel(self):
        out = (
            Stream.range(0, 100)
            .parallel()
            .collect(Collectors.collecting_and_then(Collectors.to_list(), sum))
        )
        assert out == 4950

    def test_to_tuple(self):
        out = Stream.of_items(1, 2, 3).collect(Collectors.to_tuple())
        assert out == (1, 2, 3)
        assert isinstance(out, tuple)

    def test_to_frozenset(self):
        out = Stream.of_items(1, 2, 1).parallel().collect(Collectors.to_frozenset())
        assert out == frozenset({1, 2})
        assert isinstance(out, frozenset)
