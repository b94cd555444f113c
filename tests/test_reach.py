"""``tests/reach.py`` on a toy package: how a ``def`` is named, what
counts as reached, and what fails the check."""

import importlib
import sys

import pytest

from tests import reach

TOY = '''\
import functools


def plain():
    return 1


@functools.lru_cache(maxsize=None)
def decorated():
    return 2


class Box:
    @property
    def size(self):
        return 3

    def method(self):
        def inner():
            return 4
        return inner()

    def unused(self):
        return 5

    def __repr__(self):
        return "Box()"

    def stub(self):
        """Subclasses say."""

    def abstract(self):
        raise NotImplementedError


def never():
    return 6
'''


@pytest.fixture
def toy(tmp_path, monkeypatch):
    (tmp_path / "toy").mkdir()
    (tmp_path / "toy" / "__init__.py").write_text("")
    (tmp_path / "toy" / "mod.py").write_text(TOY)
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        yield importlib.import_module("toy.mod"), \
            reach.package_defs(tmp_path, "toy")
    finally:
        sys.modules.pop("toy.mod", None)
        sys.modules.pop("toy", None)


def test_each_def_gets_its_qualified_name_and_first_line(toy):
    _, defs = toy
    by_name = {d.qualname: d for d in defs}
    assert set(by_name) == {
        "toy.mod:plain", "toy.mod:decorated", "toy.mod:Box.size",
        "toy.mod:Box.method", "toy.mod:Box.method.<locals>.inner",
        "toy.mod:Box.unused", "toy.mod:Box.__repr__", "toy.mod:Box.stub",
        "toy.mod:Box.abstract", "toy.mod:never"}
    # a decorated def's code object starts at its first decorator
    lines = TOY.splitlines()
    assert by_name["toy.mod:decorated"].line == 1 + lines.index(
        "@functools.lru_cache(maxsize=None)")
    assert by_name["toy.mod:Box.size"].line == 1 + lines.index(
        "    @property")
    assert {d.qualname for d in defs if d.exempt} == {
        "toy.mod:Box.__repr__", "toy.mod:Box.stub", "toy.mod:Box.abstract"}


def test_a_decorated_function_a_property_and_a_method_count_as_reached(toy):
    mod, defs = toy
    with reach.reaching() as codes:
        mod.plain()
        mod.decorated()
        box = mod.Box()
        assert box.size == 3 and box.method() == 4
    assert [d.qualname for d in reach.unreached(defs, codes)] == [
        "toy.mod:Box.unused", "toy.mod:never"]


def test_an_unreached_function_without_a_keep_row_fails(toy):
    mod, defs = toy
    with reach.reaching() as codes:
        mod.plain()
    missed = reach.unreached(defs, codes)
    keep = {d.qualname: "kept" for d in missed}
    assert reach.verdict(missed, keep) == []
    del keep["toy.mod:never"]
    assert reach.verdict(missed, keep) == [
        "unreached and not in KEEP: toy.mod:never"]


def test_a_stale_keep_row_fails(toy):
    mod, defs = toy
    with reach.reaching() as codes:
        mod.plain()
    missed = reach.unreached(defs, codes)
    keep = {d.qualname: "kept" for d in missed}
    keep["toy.mod:plain"] = "reached after all"
    keep["toy.mod:gone"] = "no such def"
    assert reach.verdict(missed, keep) == [
        "stale KEEP row (reached, or no such def): toy.mod:gone",
        "stale KEEP row (reached, or no such def): toy.mod:plain"]


KNOBS = '''\
import numpy as np


class Knobs:
    def __init__(self, need, used=1, unused=2.0, *, flag=None):
        self.need = need


class Child(Knobs):
    def __init__(self, scale=3, table=None):
        super().__init__(0, used=scale)
'''


@pytest.fixture
def knobs(tmp_path, monkeypatch):
    (tmp_path / "knobs").mkdir()
    (tmp_path / "knobs" / "__init__.py").write_text("")
    (tmp_path / "knobs" / "mod.py").write_text(KNOBS)
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        defs = reach.package_defs(tmp_path, "knobs")
        yield importlib.import_module("knobs.mod"), reach.Bindings(
            d for d in defs if d.name == "__init__")
    finally:
        sys.modules.pop("knobs.mod", None)
        sys.modules.pop("knobs", None)


def test_a_keyword_left_at_its_default_by_every_call_is_unset(knobs):
    mod, bindings = knobs
    with reach.reaching(bindings):
        mod.Knobs("x", used=5)
        mod.Knobs("y", unused=2.0)      # its default's value: not set
        mod.Child(table=mod.np.zeros(2))  # an array is not its default
    assert bindings.unset() == ["knobs.mod:Child.__init__(scale)",
                                "knobs.mod:Knobs.__init__(flag)",
                                "knobs.mod:Knobs.__init__(unused)"]


def test_an_unset_keyword_without_a_keep_row_fails_and_a_stale_row_too(
        knobs):
    mod, bindings = knobs
    with reach.reaching(bindings):
        mod.Knobs("x", used=5, unused=1.0, flag=True)
    assert bindings.unset() == []
    assert reach.settings_verdict(bindings.unset(), {}) == []
    with reach.reaching(bindings):
        mod.Child()
    unset = bindings.unset()
    assert unset == ["knobs.mod:Child.__init__(scale)",
                     "knobs.mod:Child.__init__(table)"]
    keep = {"knobs.mod:Child.__init__(scale)": "kept",
            "knobs.mod:Knobs.__init__(used)": "set after all"}
    assert reach.settings_verdict(unset, keep) == [
        "keyword parameter no run sets, not in KEEP_PARAMS: "
        "knobs.mod:Child.__init__(table)",
        "stale KEEP_PARAMS row (some run sets it, or no such parameter): "
        "knobs.mod:Knobs.__init__(used)"]
