"""The names `lognet` exports stay put when modules are merged or split."""

import os
import types

import lognet


def test_public_names_match_the_snapshot(fixture_dir):
    names = sorted(
        name for name in dir(lognet)
        if not name.startswith("_") and not isinstance(getattr(lognet, name), types.ModuleType)
    )
    with open(os.path.join(fixture_dir, "public_api.txt")) as f:
        assert names == f.read().split()
