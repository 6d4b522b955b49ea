"""Unit tests for the discrete-event simulation kernel."""

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
