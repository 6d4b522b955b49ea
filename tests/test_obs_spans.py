"""The span table: installed only while a tracing session is open.

Outside ``observe(trace=True)`` the data path runs its bare methods, so
a disk operation opens no span at all, not even a null one.  A session
swaps the methods in :data:`repro.obs.spans.SPAN_SITES` for recording
wrappers and puts the original function objects back when it closes,
however it closes.
"""

import inspect

import pytest

from repro.obs import observe
from repro.obs.spans import SPAN_SITES
from repro.obs.trace import NullTracer
from repro.units import KIB


def _methods():
    return {site: vars(site.owner())[site.method] for site in SPAN_SITES}


def test_tracing_off_opens_no_span(monkeypatch):
    from repro.experiments import fig5_hw_throughput as fig5

    calls = 0
    null_span = NullTracer.span

    def counting_span(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return null_span(self, *args, **kwargs)

    monkeypatch.setattr(NullTracer, "span", counting_span)
    fig5._measure("read", 256 * KIB, 4, 101)
    fig5._measure("write", 256 * KIB, 4, 202)
    assert calls == 0


def test_every_site_is_a_generator_method():
    for site, method in _methods().items():
        assert inspect.isgeneratorfunction(method), site


def test_session_installs_wrappers_that_keep_names():
    originals = _methods()
    with observe(trace=True):
        for site, wrapper in _methods().items():
            assert wrapper is not originals[site]
            assert wrapper.__name__ == originals[site].__name__
            assert inspect.isgeneratorfunction(wrapper)
    assert _methods() == originals


def test_untraced_session_installs_nothing():
    originals = _methods()
    with observe(trace=False):
        assert _methods() == originals


def test_session_restores_originals_after_an_exception():
    originals = _methods()
    with pytest.raises(RuntimeError):
        with observe(trace=True):
            raise RuntimeError("boom")
    assert all(_methods()[site] is method
               for site, method in originals.items())


def test_nested_sessions_restore_on_the_outermost_exit():
    originals = _methods()
    with observe(trace=True):
        installed = _methods()
        with observe(trace=True):
            assert _methods() == installed
        assert _methods() == installed
    assert all(_methods()[site] is method
               for site, method in originals.items())
