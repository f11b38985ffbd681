"""The tracer restores what it wraps, and self times add up."""

import time
import types

import pytest

import tracing


def make_module():
    mod = types.ModuleType("fake")

    def leaf(x):
        time.sleep(0.002)
        return x + 1

    def outer(x):
        time.sleep(0.002)
        return mod.leaf(x) + mod.leaf(x)  # looked up on the module, as callers do

    class Store:
        def save(self, x):
            return mod.leaf(x)

        @classmethod
        def load(cls, x):
            return mod.outer(x)

    mod.leaf, mod.outer, mod.Store = leaf, outer, Store
    return mod


def points(mod):
    return [(mod, "leaf", "leaf"), (mod, "outer", "outer"),
            (mod.Store, "save", "save"), (mod.Store, "load", "load")]


def test_self_times_add_up_to_the_root_span():
    mod = make_module()
    tracer = tracing.Tracer()
    with tracer.installed(points(mod)):
        assert mod.Store.load(1) == 4
        assert mod.Store().save(1) == 2
    spans = tracer.spans
    assert [s.name for s in spans] == ["load", "outer", "leaf", "leaf", "save", "leaf"]
    assert [s.parent for s in spans] == [None, 0, 1, 1, None, 4]
    st = tracer.self_times()
    assert st["leaf"][1] == 3 and st["outer"][1] == 1
    roots = sum(s.end - s.start for s in spans if s.parent is None)
    assert sum(v[0] for v in st.values()) == pytest.approx(roots, rel=1e-9)
    assert all(v[0] >= 0 for v in st.values())
    assert st["outer"][0] >= 0.002 and st["outer"][0] < spans[1].end - spans[1].start


def test_wrapped_attributes_are_restored_even_after_an_error():
    mod = make_module()
    before = {(id(o), a): vars(o)[a] for o, a, _ in points(mod)}
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(points(mod)):
            assert vars(mod.Store)["load"] is not before[(id(mod.Store), "load")]
            assert isinstance(vars(mod.Store)["load"], classmethod)
            raise RuntimeError
    assert {(id(o), a): vars(o)[a] for o, a, _ in points(mod)} == before


def test_real_wrap_points_exist_and_are_restored():
    pts = tracing.wrap_points()
    before = [vars(o)[a] for o, a, _ in pts]
    with tracing.Tracer().installed(pts):
        assert all(vars(o)[a] is not b for (o, a, _), b in zip(pts, before))
    assert all(vars(o)[a] is b for (o, a, _), b in zip(pts, before))
