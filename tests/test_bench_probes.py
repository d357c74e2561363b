"""The traced benchmark (`perfbench/run.py --trace 1`) wraps library
functions at the module attributes their callers look up.  A refactor that
renames or moves one of them would break the traced run, so check here
that every probed attribute still exists.  Also check that the two exact
skips still fire on every dense-random graph, so a change that turns them
off fails here and not only in the benchmark."""

import sys
from fractions import Fraction
from pathlib import Path

import twoec
from twoec.graph import _no_certifiable_candidate, three_cut_core

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import layers, selftest  # noqa: E402
from perfbench.spans import Recorder    # noqa: E402
from perfbench.workloads import dense_random  # noqa: E402


def test_every_probed_attribute_exists():
    probes = layers.probes(Recorder(), twoec)
    assert probes
    for module, attribute, wrapper in probes:
        assert callable(getattr(module, attribute, None)), \
            f"{module.__name__}.{attribute}"
        assert callable(wrapper)


def test_span_recorder_selftest():
    selftest.check()


def test_dense_random_skips_both_scans():
    # on every dense-random graph the core proves that no 3-cut has two
    # sides of 7 and no short cycle can be certified contractible, so
    # neither scan runs
    for label, g in dense_random(301):
        assert g.n - len(three_cut_core(g)) <= 6, label
        assert _no_certifiable_candidate(g, Fraction(5, 4), 7), label
