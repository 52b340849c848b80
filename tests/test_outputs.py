"""Pinned pipeline outputs: tests/data/outputs.json, recomputed.

Discrete fields (sweep masks, the table order, the outcome sets) must be
equal. Betas and costs agree within 1e-9 relative, table and gain values
within 1e-9 of the largest value, and j_attack within 1e-6 relative: it
prices a gain off any optimum, so it magnifies tiny moves of that gain (the
README's note on j_attack). Under the python, numpy and scipy versions
that stamp the digests, every write_artifacts file and the cold gain
document must also be byte-identical, and each run's work counts
(make_outputs.work_counts) must equal the pinned ones exactly; under other
versions those tests skip and name both stamps. tests/data/make_outputs.py
regenerates the corpus; a change that moves these outputs or this work on
purpose regenerates it and argues for the diff.
"""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_SCRIPT = Path(__file__).parent / "data" / "make_outputs.py"
_spec = importlib.util.spec_from_file_location("make_outputs", _SCRIPT)
make_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_outputs)

CORPUS = json.loads(make_outputs.CORPUS.read_text(encoding="utf-8"))
DIGESTS = CORPUS["digests"]
WORK = CORPUS["work"]
COST_REL = 1e-9
VALUE_REL = 1e-9
J_ATTACK_REL = 1e-6


def assert_close(got, want, rel):
    if want is None:  # an infinite j_attack, or no j_reroute
        assert got is None
    else:
        np.testing.assert_allclose(got, want, rtol=rel, atol=0.0)


def assert_values(got, want):
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=VALUE_REL * np.max(np.abs(want)))


def test_corpus_covers_the_listed_scenarios():
    for records in (CORPUS["pipelines"], DIGESTS["pipelines"], WORK["pipelines"]):
        assert [tuple(r["spec"]) for r in records] == list(make_outputs.PIPELINES)
    for record in (CORPUS["cold"], DIGESTS["cold"], WORK["cold"]):
        assert tuple(record["spec"]) == make_outputs.COLD


def require_stamp(section=DIGESTS):
    got = make_outputs.stamp()
    if got != section["stamp"]:
        pytest.skip(f"stamped {section['stamp']}, running {got}")


@pytest.mark.parametrize(
    "want", CORPUS["pipelines"], ids=lambda r: "GeneratorSpec(%d, %d)" % tuple(r["spec"])
)
def test_pipeline_outputs(want):
    got = make_outputs.pipeline_record(*want["spec"])
    for key in ("masks", "table_order", "outcome"):
        assert got[key] == want[key], key
    for key in ("betas", "costs_polished", "j_before", "j_reroute"):
        assert_close(got[key], want[key], COST_REL)
    assert_close(got["j_attack"], want["j_attack"], J_ATTACK_REL)
    assert_values(got["table_values"], want["table_values"])


def test_cold_synthesis_output():
    want = CORPUS["cold"]
    got = make_outputs.cold_record(*want["spec"])
    assert_close(got["cost"], want["cost"], COST_REL)
    assert_values(got["gain"], want["gain"])


@pytest.mark.parametrize(
    "want", DIGESTS["pipelines"], ids=lambda r: "GeneratorSpec(%d, %d)" % tuple(r["spec"])
)
def test_pipeline_artifact_bytes(want):
    require_stamp()
    assert make_outputs.artifact_digests(*want["spec"]) == want["files"]


def test_cold_gain_document_bytes():
    require_stamp()
    want = DIGESTS["cold"]
    assert make_outputs.cold_digest(*want["spec"]) == want["gain.json"]


@pytest.mark.parametrize(
    "want", WORK["pipelines"], ids=lambda r: "GeneratorSpec(%d, %d)" % tuple(r["spec"])
)
def test_pipeline_work_counts(want):
    require_stamp(WORK)
    assert make_outputs.pipeline_run(*want["spec"])[1] == want["counts"]


def test_cold_work_counts():
    require_stamp(WORK)
    want = WORK["cold"]
    assert make_outputs.cold_run(*want["spec"])[1] == want["counts"]
