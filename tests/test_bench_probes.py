"""The traced benchmark (`perfbench/run.py --trace 1`) wraps library
functions at the module attributes their callers look up.  A refactor that
renames or moves one of them would break the traced run, so check here
that every probed attribute still exists."""

import sys
from pathlib import Path

import twoec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import layers, selftest  # noqa: E402
from perfbench.spans import Recorder    # noqa: E402


def test_every_probed_attribute_exists():
    probes = layers.probes(Recorder(), twoec)
    assert probes
    for module, attribute, wrapper in probes:
        assert callable(getattr(module, attribute, None)), \
            f"{module.__name__}.{attribute}"
        assert callable(wrapper)


def test_span_recorder_selftest():
    selftest.check()
