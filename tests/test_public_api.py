"""The names `lognet` exports stay put when modules are merged or split."""

import inspect
import os
import types

import lognet


def _public_names() -> list[str]:
    return sorted(
        name for name in dir(lognet)
        if not name.startswith("_") and not isinstance(getattr(lognet, name), types.ModuleType)
    )


def test_public_names_match_the_snapshot(fixture_dir):
    with open(os.path.join(fixture_dir, "public_api.txt")) as f:
        assert _public_names() == f.read().split()


def test_no_public_class_or_function_has_two_names():
    names_by_object: dict[int, list[str]] = {}
    for name in _public_names():
        obj = getattr(lognet, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            names_by_object.setdefault(id(obj), []).append(name)
    assert [names for names in names_by_object.values() if len(names) > 1] == []
