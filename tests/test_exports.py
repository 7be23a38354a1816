"""Every exported name resolves, and deleted APIs stay deleted."""

import importlib
import pkgutil

import pytest

import membound

MODULES = ["membound"] + [f"membound.{m.name}" for m in pkgutil.iter_modules(membound.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize(
    "name",
    [
        "SolverConfig",
        "RateReport",
        "rate_report",
        "nullspace_vector",
        "sample_field_element",
        "inv",
        "dot",
        "BinnedHistogram",
        "frontier_to_csv",
        "frontier_sidecar",
        "FRONTIER_CSV_HEADER",
        "PrimeField",
        "rp_binary_oracle",
    ],
)
def test_deleted_solver_apis_are_gone(name):
    modules = (membound, membound.rate_distortion, membound.galois, membound.measures)
    for module in modules:
        assert not hasattr(module, name)
        assert name not in module.__all__


def test_word_stream_keeps_only_its_base():
    # The sampler mixes every word from the stream's base itself.
    for method in ("word", "words_at", "word_block", "_mix"):
        assert not hasattr(membound.WordStream, method)


def test_field_vector_keeps_only_its_array():
    # The coordinates live in one array; there is no second representation.
    for method in ("from_array", "as_array", "is_zero", "_array"):
        assert not hasattr(membound.FieldVector, method)
