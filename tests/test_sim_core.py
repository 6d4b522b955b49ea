"""Unit tests for the discrete-event simulation kernel."""

import heapq

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def body():
        yield sim.timeout(1.5)
        return sim.now

    assert sim.run_process(body()) == 1.5
    assert sim.now == 1.5


def test_timeouts_fire_in_order():
    sim = Simulator()
    fired = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        fired.append(tag)

    sim.process(waiter(3.0, "c"))
    sim.process(waiter(1.0, "a"))
    sim.process(waiter(2.0, "b"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []

    def waiter(tag):
        yield sim.timeout(1.0)
        fired.append(tag)

    for tag in ("first", "second", "third"):
        sim.process(waiter(tag))
    sim.run()
    assert fired == ["first", "second", "third"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_process_return_value():
    sim = Simulator()

    def body():
        yield sim.timeout(0.1)
        return 42

    assert sim.run_process(body()) == 42


def test_process_join():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return "done"

    def parent():
        result = yield sim.process(child())
        return result, sim.now

    assert sim.run_process(parent()) == ("done", 2.0)


def test_joining_already_finished_process():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "early"

    def parent(proc):
        yield sim.timeout(5.0)
        result = yield proc
        return result

    proc = sim.process(child())
    assert sim.run_process(parent(proc)) == "early"
    assert sim.now == 5.0


def test_exception_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            return f"caught {exc}"

    assert sim.run_process(parent()) == "caught boom"


def test_unhandled_exception_raises_from_run():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        raise RuntimeError("unobserved")

    sim.process(body())
    with pytest.raises(RuntimeError, match="unobserved"):
        sim.run()


def test_run_until_stops_clock():
    sim = Simulator()
    done = []

    def body():
        yield sim.timeout(10.0)
        done.append(True)

    sim.process(body())
    assert sim.run(until=4.0) == 4.0
    assert not done
    sim.run()
    assert done


def test_run_process_stops_when_its_process_triggers():
    # run_process returns right after the entry that finishes its
    # process; a later entry of the same instant stays queued, and the
    # next run() fires it without moving the clock.
    sim = Simulator()
    fired = []

    def late():
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)  # due at 2.0, queued after body's wake-up
        fired.append(sim.now)

    def body():
        yield sim.timeout(2.0)
        return sim.now

    sim.process(late())
    assert sim.run_process(body()) == 2.0
    assert fired == []
    assert sim.now == 2.0
    sim.run()
    assert fired == [2.0]
    assert sim.now == 2.0


def test_failure_inside_run_until_keeps_failing_instant():
    sim = Simulator()

    def body():
        yield sim.timeout(3.0)
        raise RuntimeError("boom")

    sim.process(body())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=10.0)
    assert sim.now == 3.0


def test_run_until_advances_past_empty_queue():
    sim = Simulator()
    assert sim.run(until=7.0) == 7.0
    assert sim.now == 7.0


def test_yielding_non_event_fails():
    sim = Simulator()

    def body():
        yield 42

    with pytest.raises(SimulationError, match="yielded"):
        sim.run_process(body())


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()

    def opener():
        yield sim.timeout(3.0)
        gate.succeed("open sesame")

    def waiter():
        value = yield gate
        return value, sim.now

    sim.process(opener())
    assert sim.run_process(waiter()) == ("open sesame", 3.0)


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()
    with pytest.raises(SimulationError):
        event.fail(ValueError())


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def worker(delay, value):
        yield sim.timeout(delay)
        return value

    def body():
        procs = [sim.process(worker(d, d * 10)) for d in (3.0, 1.0, 2.0)]
        values = yield sim.all_of(procs)
        return values, sim.now

    values, now = sim.run_process(body())
    assert values == [30.0, 10.0, 20.0]
    assert now == 3.0


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def body():
        values = yield sim.all_of([])
        return values, sim.now

    assert sim.run_process(body()) == ([], 0.0)


def test_all_of_propagates_failure():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise KeyError("broken")

    def good():
        yield sim.timeout(5.0)

    def body():
        with pytest.raises(KeyError):
            yield sim.all_of([sim.process(bad()), sim.process(good())])
        return "survived"

    assert sim.run_process(body()) == "survived"


def test_deadlock_detected_by_run_process():
    sim = Simulator()

    def body():
        yield sim.event()  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(body())


def test_nested_subroutine_with_yield_from():
    sim = Simulator()

    def inner():
        yield sim.timeout(1.0)
        return 10

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b, sim.now

    assert sim.run_process(outer()) == (20, 2.0)


def test_run_until_in_the_past_rejected():
    sim = Simulator()
    sim.run(until=12.0)
    with pytest.raises(SimulationError, match="until"):
        sim.run(until=5.0)
    assert sim.now == 12.0
    fired = []

    def body():
        yield sim.timeout(1.0)
        fired.append(sim.now)

    sim.process(body())
    sim.run()
    assert fired == [13.0]


def test_nan_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(float("nan"))
    with pytest.raises(SimulationError):
        sim.run(until=float("nan"))
    assert sim.now == 0.0


# -- every branch of the dispatch loop ------------------------------------

def _raise_before_first_yield(sim):
    raise ValueError("early")
    yield sim.timeout(1.0)  # pragma: no cover - makes this a generator


def test_process_raising_before_first_yield_reaches_its_joiner():
    sim = Simulator()

    def parent():
        try:
            yield sim.process(_raise_before_first_yield(sim))
        except ValueError as exc:
            return f"caught {exc}", sim.now

    assert sim.run_process(parent()) == ("caught early", 0.0)


def test_process_raising_before_first_yield_surfaces_from_run():
    sim = Simulator()
    sim.process(_raise_before_first_yield(sim))
    with pytest.raises(ValueError, match="early"):
        sim.run()
    assert sim.now == 0.0


def test_process_returning_without_yielding():
    sim = Simulator()

    def child():
        return "instant"
        yield  # pragma: no cover - makes this a generator

    def parent():
        proc = sim.process(child())
        value = yield proc
        return value, sim.now, proc.processed

    assert sim.run_process(parent()) == ("instant", 0.0, True)
    assert sim.run_process(child()) == "instant"


def test_yielding_an_already_fired_event_continues_at_once():
    sim = Simulator()
    done = sim.event()
    broken = sim.event()
    done.succeed("ready")
    broken.fail(KeyError("gone"))

    def body():
        # Both events fire before this process starts: one is yielded
        # from the first step, the other after a wait.
        value = yield done
        yield sim.timeout(1.0)
        try:
            yield broken
        except KeyError:
            return value, sim.now

    assert sim.run_process(body()) == ("ready", 1.0)


def test_yielding_non_event_after_a_wait_surfaces_from_run():
    sim = Simulator()

    def body():
        yield sim.timeout(2.0)
        yield "not an event"

    sim.process(body())
    with pytest.raises(SimulationError, match="yielded"):
        sim.run()
    assert sim.now == 2.0


@pytest.mark.parametrize("all_of_first", [True, False])
def test_leg_watched_by_all_of_and_joiner_resumes_in_registration_order(
        all_of_first):
    # Each listener pushes a same-instant entry when it resumes, so the
    # order of those entries is the order the listeners ran in.
    sim = Simulator()
    order = []

    def leg():
        yield sim.timeout(1.0)
        return "leg"

    def joiner(proc):
        value = yield proc
        yield sim.timeout(0.0)
        order.append(("joiner", value, sim.now))

    def all_of_waiter(condition):
        values = yield condition
        order.append(("all_of", values, sim.now))

    proc = sim.process(leg())
    if all_of_first:
        condition = sim.all_of([proc])
        sim.process(all_of_waiter(condition))
        sim.process(joiner(proc))
    else:
        sim.process(joiner(proc))
        sim.run(until=0.0)  # the joiner registers on proc first
        condition = sim.all_of([proc])
        sim.process(all_of_waiter(condition))
    sim.run()
    expected = [("all_of", ["leg"], 1.0), ("joiner", "leg", 1.0)]
    assert order == (expected if all_of_first else expected[::-1])


def test_all_of_over_an_already_finished_process():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return 7

    proc = sim.process(child())
    sim.run()
    assert proc.processed

    def body():
        values = yield sim.all_of([proc])
        return values, sim.now

    assert sim.run_process(body()) == ([7], 1.0)


def test_failing_leg_under_unwatched_all_of_is_absorbed():
    # The AllOf is the leg's listener, so the leg's failure goes to it
    # rather than out of run(); with nobody waiting on the AllOf, the
    # failure stays recorded on the condition.
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise KeyError("broken")

    condition = sim.all_of([sim.process(bad())])
    assert sim.run() == 1.0
    assert condition.processed
    assert not condition.ok
    with pytest.raises(KeyError):
        _ = condition.value


def test_run_process_returning_at_start_leaves_same_instant_entries():
    sim = Simulator()
    fired = []

    def side():
        fired.append(sim.now)
        yield sim.timeout(0.0)

    def body():
        sim.process(side())
        return "done"
        yield  # pragma: no cover - makes this a generator

    assert sim.run_process(body()) == "done"
    assert fired == []
    sim.run()
    assert fired == [0.0]


# -- fork: one call for a stage's legs and their join ---------------------

def _pushes(scenario, join_of):
    """Run ``scenario(sim, join_of)`` on a fresh Simulator with every
    heap push recorded as ``(when, kind, type, name)``."""
    sim = Simulator()
    trace = []
    original = heapq.heappush

    def hook(heap, entry):
        when, _seq, kind, obj = entry
        trace.append((when, kind, type(obj).__name__,
                      getattr(obj, "name", None)))
        return original(heap, entry)

    heapq.heappush = hook
    try:
        result = scenario(sim, join_of)
        sim.run()
    finally:
        heapq.heappush = original
    return result, trace


def _fork(sim, generators, names=None):
    return sim.fork(generators, names)


def _spawn_then_join(sim, generators, names=None):
    names = names if names is not None else [""] * len(generators)
    return sim.all_of([sim.process(generator, name)
                       for generator, name in zip(generators, names)])


def _leg(sim, delay, value):
    yield sim.timeout(delay)
    return value


def _instant():
    return "now"
    yield  # pragma: no cover - makes this a generator


def _broken(sim):
    yield sim.timeout(0.5)
    raise KeyError("broken")


def _mixed_names(sim, join_of):
    def body():
        values = yield join_of(sim, [_leg(sim, 2.0, "a"), _leg(sim, 1.0, "b"),
                                     _instant()], ["first", "", "third"])
        return values, sim.now

    return sim.run_process(body())


def _empty(sim, join_of):
    def body():
        yield sim.timeout(1.0)
        values = yield join_of(sim, [])
        return values, sim.now

    return sim.run_process(body())


def _returns_without_yielding(sim, join_of):
    def body():
        values = yield join_of(sim, [_instant(), _instant()])
        return values, sim.now

    return sim.run_process(body())


def _failing_leg(sim, join_of):
    def body():
        try:
            yield join_of(sim, [_leg(sim, 1.0, "a"), _broken(sim)])
        except KeyError as exc:
            return f"caught {exc}", sim.now

    return sim.run_process(body())


@pytest.mark.parametrize("scenario", [_mixed_names, _empty,
                                      _returns_without_yielding,
                                      _failing_leg],
                         ids=lambda scenario: scenario.__name__.lstrip("_"))
def test_fork_pushes_what_process_and_all_of_push(scenario):
    forked = _pushes(scenario, _fork)
    assert forked == _pushes(scenario, _spawn_then_join)
    assert forked[1]  # the scenario scheduled something


def test_fork_results_and_names():
    assert _pushes(_mixed_names, _fork)[0] == (["a", "b", "now"], 2.0)
    assert _pushes(_empty, _fork)[0] == ([], 1.0)
    assert _pushes(_failing_leg, _fork)[0] == ("caught 'broken'", 0.5)
    names = [name for _when, kind, _type, name in _pushes(_mixed_names,
                                                          _fork)[1]
             if kind == 1]
    assert names == ["body", "first", "_leg", "third"]


def test_fork_rejects_a_bad_leg_before_pushing_anything():
    sim = Simulator()
    pushed = []
    original = heapq.heappush

    def hook(heap, entry):
        pushed.append(entry)
        return original(heap, entry)

    heapq.heappush = hook
    try:
        with pytest.raises(SimulationError, match="generator"):
            sim.fork([_leg(sim, 1.0, "a"), 42])
        with pytest.raises(SimulationError, match="names"):
            sim.fork([_instant()], ["one", "two"])
    finally:
        heapq.heappush = original
    assert pushed == [] and sim._heap == []
    assert sim.run() == 0.0


def test_fork_leg_with_later_listeners_resumes_them_in_registration_order():
    # The join holds each leg's first-listener slot from birth, so a
    # process and a second join registered later queue in callbacks
    # (the second join through AllOf._check).  Each listener pushes one
    # same-instant entry when it resumes, so the order those entries
    # fire in is the order the listeners ran in.
    sim = Simulator()
    order = []

    def waiter(tag, event):
        value = yield event
        order.append((tag, value, sim.now))

    def joiner(leg):
        value = yield leg
        yield sim.timeout(0.0)
        order.append(("joiner", value, sim.now))

    join = sim.fork([_leg(sim, 1.0, "leg")])
    leg = join._events[0]
    sim.process(waiter("fork", join))
    sim.process(joiner(leg))
    sim.run(until=0.0)  # the joiner registers on the leg
    sim.process(waiter("all_of", sim.all_of([leg])))
    sim.run()
    assert order == [("fork", ["leg"], 1.0), ("joiner", "leg", 1.0),
                     ("all_of", ["leg"], 1.0)]
