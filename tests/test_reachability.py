"""The reachability instrument (``tools/reachability.py``) can fail, and
its kept-on-purpose list cannot rot.

The full drives take minutes; these run the tool's own machinery on a
toy package in seconds.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "reachability", ROOT / "tools" / "reachability.py")
reachability = sys.modules.setdefault(
    "reachability", importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(reachability)


def test_every_kept_entry_names_a_live_def():
    src = reachability.PACKAGE.parent
    live = {reachability.key_of(f, src)
            for f in reachability.inventory(reachability.PACKAGE)}
    assert sorted(set(reachability.KEPT) - live) == []
    assert all(reason for reason in reachability.KEPT.values())


TOY = '''
import os


def entry():
    return helper() + 1


def helper():
    return 1


def only_tested():
    return 2


def kept():
    return 3


def in_a_fork():
    return 4


def dead():
    def nested():
        return 5
    return nested()


class Thing:
    def used(self):
        return 6

    def unused(self):
        return 7


def fork_and_call():
    pid = os.fork()
    if pid == 0:
        in_a_fork()
        os._exit(0)
    os.waitpid(pid, 0)
'''


@pytest.fixture
def toy(tmp_path, monkeypatch):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text(TOY)
    monkeypatch.syspath_prepend(str(tmp_path))
    sys.modules.pop("toy", None)
    import toy
    yield package, toy
    sys.modules.pop("toy", None)


def rows_by_name(rows):
    return {row.key.partition("::")[2]: row for row in rows}


def test_a_function_only_a_test_calls_is_flagged(toy):
    package, module = toy

    def entry_drive():
        module.entry()
        module.Thing().used()

    def test_drive():
        entry_drive()
        module.only_tested()
        module.kept()

    entry = reachability.record(entry_drive, package)
    tests = reachability.record(test_drive, package)
    kept = {"toy/__init__.py::kept": "an oracle"}
    rows = rows_by_name(reachability.unreached(package, entry, tests, kept))

    assert set(rows) == {"only_tested", "kept", "in_a_fork", "dead",
                         "Thing.unused", "fork_and_call"}
    assert rows["only_tested"].tests and not rows["only_tested"].kept
    assert rows["kept"].kept == "an oracle"
    assert not rows["dead"].tests
    assert rows["dead"].lines == 4  # its nested def is not listed again


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_function_reached_only_in_a_forked_child_counts(toy):
    package, module = toy
    reached = reachability.record(module.fork_and_call, package)
    by_first = {(f.path, f.first): f.qualname
                for f in reachability.inventory(package)}
    assert {by_first[key] for key in reached} == {"fork_and_call",
                                                  "in_a_fork"}
