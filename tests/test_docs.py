"""The documents name code that exists.

Every backticked dotted ``repro.`` name in README.md, DESIGN.md and
EXPERIMENTS.md must import as a module or resolve, attribute by
attribute, from the longest importable module prefix.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")


def resolves(name: str) -> bool:
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
def test_backticked_repro_names_resolve(doc):
    names = set(NAME.findall((ROOT / doc).read_text(encoding="utf-8")))
    assert sorted(n for n in names if not resolves(n)) == []
