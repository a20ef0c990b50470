"""Helpers shared by the test suites.  The seeded case generators live in
``scripts/random_cases.py``, on pytest's ``pythonpath``; they are re-exported
here so the suites import them from one place."""
import functools

from random_cases import (  # noqa: F401
    pathological_sequence,
    random_admissible_case,
    random_block_structure,
    random_minimal_spec,
    random_sequence,
)


def count_calls(monkeypatch, original, modules):
    """Route every listed module's binding of ``original`` through a counter;
    returns the list that gains one entry per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in modules:
        if hasattr(module, original.__name__):
            monkeypatch.setattr(module, original.__name__, counting)
    return calls


def count_builds(monkeypatch, cls, name):
    """Count the builds of the cached property ``name`` of ``cls``; returns
    the list that gains one entry per build."""
    calls = []
    build = getattr(cls, name).func

    def counting(self):
        calls.append(1)
        return build(self)

    prop = functools.cached_property(counting)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return calls
