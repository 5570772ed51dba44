"""Hypothesis writes no patch file for a failing example in this suite.

When a property test fails, Hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to write the failing example as a patch.
That module imports ``libcst``, whose import raises a DeprecationWarning,
and pyproject.toml turns DeprecationWarning into an error: the run would
end in an INTERNALERROR after the first failing property test and report
none of the tests after it.  Marked absent, the module raises ImportError
on import, which the plugin handles by skipping the patch, as it does when
libcst is not installed; the failure is then reported like any other.

``maps.planar_word`` keeps one planar word per word for the whole process,
and a word compiles its code from ``maps._FORMULAS`` on first use.  Some
tests patch that table to compile a broken word, so every test starts with
an empty memo: a planar word compiled from a patched table never reaches
another test.
"""

import sys

import pytest

from shearbasins import maps

sys.modules["hypothesis.extra._patching"] = None


@pytest.fixture(autouse=True)
def fresh_planar_words():
    maps.planar_word.cache_clear()
