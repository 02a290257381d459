"""Eager/lazy/staged differential tests over the parity corpus.

Every program in :data:`tests.harness.parity.CORPUS` runs three times —
sync eager, lazy eager (recorded and flushed through the staged
pipeline), ``repro.function``-staged — and must produce
identical outputs *and* identical input gradients.  A failure here
localizes immediately: the program is tiny and the diverging mode is in
the test id.
"""

import numpy as np
import pytest

import repro
from repro.graph import fusion
from repro.runtime.context import context
from repro.tensor import LazyTensor
from tests.harness.parity import (
    CORPUS,
    MODES,
    assert_compiled_parity,
    assert_parity,
    assert_relaxed_parity,
    assert_staged_backward_parity,
    assert_tracked_parity,
    assert_unfused_parity,
    run_program,
)

_IDS = [p.name for p in CORPUS]
_RELAXABLE = [p for p in CORPUS if p.alt_inputs is not None]


@pytest.fixture
def fused_regions_built(monkeypatch):
    """The ``_fusion_stats`` of every function the ``fuse`` pass ran on."""
    built = []
    fuse_function = fusion.fuse_function

    def recording(fn):
        regions = fuse_function(fn)
        stats = getattr(fn, "_fusion_stats", None)
        if stats is not None:
            built.append((fn.name, stats))
        return regions

    monkeypatch.setattr(fusion, "fuse_function", recording)
    return built


def test_corpus_is_large_enough():
    # The differential harness only earns its keep with real coverage.
    assert len(CORPUS) >= 35
    assert len(_IDS) == len(set(_IDS)), "duplicate program names"
    # The autograph family (plain-Python control flow, lowered at trace
    # time) must stay represented: at least 8 distinct programs.
    assert sum(1 for n in _IDS if n.startswith("ag_")) >= 8


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("program", CORPUS, ids=_IDS)
def test_modes_agree(program, dtype):
    if dtype not in program.dtypes:
        pytest.skip(f"{program.name} not defined for {dtype}")
    assert_parity(program, dtype)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("program", CORPUS, ids=_IDS)
def test_fused_staging_agrees(program, dtype):
    """Graph fusion + memory planning is semantics-preserving.  The
    staged column of ``test_modes_agree`` runs fused (the default); this
    one forces fusion off, so every program's outputs and input
    gradients must match sync eager on the per-node plan too."""
    if dtype not in program.dtypes:
        pytest.skip(f"{program.name} not defined for {dtype}")
    assert_unfused_parity(program, dtype)


def test_fusion_axis_builds_regions(fused_regions_built):
    """The fused side of the axis is only worth something if the corpus
    does build regions — forward and staged backward."""
    context.graph_fusion = True
    program = next(p for p in CORPUS if p.name == "chain_long")
    run_program(program, "staged", "float32")
    assert sum(len(stats["regions"]) for _, stats in fused_regions_built) >= 2


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("program", CORPUS, ids=_IDS)
def test_compiled_execution_agrees(program, dtype):
    """The same clustered graph on the other executor: every program
    compiles (``jit_compile=True``), and the XLA-sim executable's output
    and the gradients taken through the jitted function match sync
    eager."""
    if dtype not in program.dtypes:
        pytest.skip(f"{program.name} not defined for {dtype}")
    assert_compiled_parity(program, dtype)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("program", CORPUS, ids=_IDS)
def test_staged_tape_backward_agrees(program, dtype):
    """An eager tape seen three times runs its backward as the staged
    plan, and its gradients match the walk's."""
    if dtype not in program.dtypes:
        pytest.skip(f"{program.name} not defined for {dtype}")
    assert_staged_backward_parity(program, dtype)


@pytest.mark.parametrize("kernels", ["tracked"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("program", CORPUS, ids=_IDS)
def test_backend_agrees(program, dtype, kernels):
    """Every kernel re-registered as a counting wrapper: sync and staged
    outputs and gradients match sync eager on the original kernels."""
    if dtype not in program.dtypes:
        pytest.skip(f"{program.name} not defined for {dtype}")
    assert_tracked_parity(program, dtype)


def test_relaxable_subset_is_large_enough():
    # Shape relaxation must be exercised across most of the corpus, not
    # a couple of cherry-picked elementwise programs.
    assert len(_RELAXABLE) >= 30


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("program", _RELAXABLE, ids=[p.name for p in _RELAXABLE])
def test_relaxed_trace_agrees(program, dtype):
    """One symbolic trace (batch dims = None) must reproduce sync eager
    outputs *and* gradients — shape relaxation is semantics-preserving."""
    if dtype not in program.dtypes:
        pytest.skip(f"{program.name} not defined for {dtype}")
    assert_relaxed_parity(program, dtype)


def test_lazy_mode_actually_records():
    """The harness must genuinely exercise the lazy runtime: a plain
    elementwise program yields recorded pending tensors under ``lazy``
    mode, and forcing one flushes the whole segment."""
    with repro.execution_mode("lazy"):
        x = repro.constant([1.0, 2.0, 3.0])
        y = x * 2.0 + 1.0
        assert isinstance(y, LazyTensor)
        assert not y.is_ready()
        np.testing.assert_allclose(y.numpy(), [3.0, 5.0, 7.0])
        assert y.is_ready()


def test_run_program_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        run_program(CORPUS[0], "turbo", "float32")


def test_modes_tuple_is_the_public_contract():
    assert MODES == ("sync", "lazy", "staged")
