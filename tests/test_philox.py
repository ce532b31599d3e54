"""The array Philox4x64-10 and the committed ziggurat tables."""
import importlib.util
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacsim import _ziggurat, philox
from lacsim._ziggurat import KI, WI

ROOT = Path(__file__).resolve().parents[1]
_WORD = st.integers(0, 2 ** 64 - 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 128 - 1), st.lists(st.tuples(_WORD, _WORD), min_size=1, max_size=20))
def test_first_words_are_numpys_first_raw_words(seed, counters):
    # a generator whose counter is c returns word 0 of Philox(c + 1) first
    c0, c1 = (np.array(c, dtype=np.uint64) for c in zip(*counters))
    key = np.array([seed & philox.MASK64, seed >> 64], dtype=np.uint64)
    expected = [int(np.random.Philox(counter=np.array([a, b, 0, 0], dtype=np.uint64),
                                     key=key).random_raw())
                for a, b in counters]
    # c0 + 1 wraps to 0 and carries into c1 for the generator, not here
    wrapped = c0 == np.uint64(philox.MASK64)
    got = philox.Philox(seed, 32).first_words(c0 + np.uint64(1), c1)
    assert got[~wrapped].tolist() == np.array(expected, dtype=np.uint64)[~wrapped].tolist()


def test_tables_are_a_ziggurat():
    # layer i >= 1 spans x_i = wi[i] 2**52 and accepts rabs below 2**52 x_(i-1) / x_i;
    # the base layer's widest accepted draw ki[0] wi[0] is the edge x_255
    x = [w * 2.0 ** 52 for w in WI]
    assert len(KI) == len(WI) == 256 and KI[1] == 0
    assert all(a < b for a, b in zip(x[1:], x[2:]))
    assert max(abs(KI[i] - 2.0 ** 52 * x[i - 1] / x[i]) for i in range(2, 256)) <= 1.0
    assert KI[0] * WI[0] == pytest.approx(x[255], rel=1e-15)


def _script():
    spec = importlib.util.spec_from_file_location("ziggurat_tables",
                                                  ROOT / "scripts" / "ziggurat_tables.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_tables_are_the_installed_numpys():
    script = _script()
    archive = script.default_archive()
    if not archive.exists() or not (shutil.which("ar") and shutil.which("readelf")):
        pytest.skip("needs numpy's libnpyrandom.a and binutils' ar and readelf")
    ki, wi = script.read_tables(archive)
    assert ki == list(KI)
    assert np.array(wi).tobytes() == np.array(WI).tobytes()
    assert script.render(ki, wi) == Path(_ziggurat.__file__).read_text()
