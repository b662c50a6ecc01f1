"""The package namespace: every public name and submodule resolves on first
access, to the object its home module defines."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import veesys


def test_public_names_are_their_home_modules_objects():
    assert set(veesys._HOMES) == set(veesys.__all__)
    for name in veesys.__all__:
        home = importlib.import_module(f"veesys.{veesys._HOMES[name]}")
        value = getattr(veesys, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_dir_and_star_import_list_every_public_name():
    assert set(veesys.__all__) <= set(dir(veesys))
    namespace = {}
    exec("from veesys import *", namespace)
    for name in veesys.__all__:
        assert namespace[name] is getattr(veesys, name), name


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        veesys.no_such_name
    assert not hasattr(veesys, "__wrapped__")


def test_plain_import_loads_nothing_until_a_name_is_read():
    source = pathlib.Path(veesys.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(source), os.environ.get("PYTHONPATH"))))}
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, veesys\n"
         "print(sorted(m for m in sys.modules if m.startswith(('veesys.', 'numpy'))))\n"
         "print(veesys.deform.__name__, veesys.check_vee.__module__)"],
        env=env, capture_output=True, text=True, check=True)
    assert probe.stdout.splitlines() == ["[]", "veesys.deform veesys.verify"]
