"""The lazy package surface: what `import spincat` loads, and what it binds."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import spincat


def _fresh(code: str) -> str:
    """Run `code` in a new interpreter that imports this same spincat."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=Path(spincat.__file__).parents[1],
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_bare_import_loads_no_numpy():
    out = _fresh(
        "import sys, spincat\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('spincat')))"
    )
    assert out.strip() == "['spincat']"


def test_every_public_name_is_the_submodule_object():
    assert len(spincat.__all__) == 33
    for name in spincat.__all__:
        module = importlib.import_module(f"spincat.{spincat._EXPORTS[name]}")
        value = getattr(spincat, name)
        assert value is getattr(module, name), name
        if callable(value):
            assert value.__module__ == module.__name__, name


def test_dir_covers_all_before_any_access():
    out = _fresh("import spincat\nprint(set(spincat.__all__) <= set(dir(spincat)))")
    assert out.strip() == "True"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nosuch'"):
        spincat.nosuch
    assert not hasattr(spincat, "nosuch")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from spincat import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == spincat.__all__
    assert len(namespace) == 33


def test_submodules_resolve_after_bare_import():
    out = _fresh(
        "import spincat\n"
        "print(spincat.oracle.__name__, spincat._kernels.__name__, spincat.ramsey.__name__)"
    )
    assert out.split() == ["spincat.oracle", "spincat._kernels", "spincat.ramsey"]


def test_concurrent_first_access_gives_identical_objects():
    # 8 threads start on different names at once, so several submodules are
    # first imported concurrently; every thread must see the same objects
    out = _fresh(
        """
import importlib, sys, threading
import spincat

sys.setswitchinterval(1e-6)
names = spincat.__all__
barrier = threading.Barrier(8)
results = [None] * 8

def resolve(i):
    barrier.wait()
    order = names[4 * i:] + names[:4 * i]
    results[i] = dict((name, getattr(spincat, name)) for name in order)

threads = [threading.Thread(target=resolve, args=(i,)) for i in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
assert all(result is not None for result in results), results
for name in names:
    expected = getattr(importlib.import_module("spincat." + spincat._EXPORTS[name]), name)
    assert all(result[name] is expected for result in results), name
print("ok")
"""
    )
    assert out.strip() == "ok"
