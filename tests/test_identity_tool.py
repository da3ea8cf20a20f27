"""The bit-identity tool is deterministic and names what differs.

Hashes are not pinned: they depend on the host's BLAS build.
"""

import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity.py"


@pytest.fixture(scope="module")
def identity():
    spec = importlib.util.spec_from_file_location("identity_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def tiny(identity):
    return replace(
        identity.SHAPES["toy"], name="tiny", n=120, seed=3, feature_dim=2**8,
        hidden_dim=4, epochs=1, predict_texts=10,
    )


def test_two_runs_in_one_process_hash_equal(identity, tiny):
    first = identity.shape_hashes(tiny)
    second = identity.shape_hashes(tiny)
    assert first == second
    shape_level = {"tiny/stats", "tiny/miss-dense-features"}
    assert shape_level <= set(first)
    first = {key: value for key, value in first.items() if key not in shape_level}
    artifacts = {key.split("/", 4)[4] for key in first}
    assert {
        "W_S", "history", "val_joint_nll", "evaluate", "predict", "head.W_U"
    } <= artifacts
    cases = {tuple(key.split("/")[1:4]) for key in first}
    assert len(cases) == 7 * 2 + 2 * 2  # every variant, frozen or not, + mixture
    assert ("joint", "frozen", "mixture") in cases
    predicted = {key.split("/")[1] for key in first if key.endswith("/predict")}
    assert predicted == {"joint", "joint-unit"}


def test_compare_names_every_difference(identity, tmp_path, capsys):
    a = {"s/v/frozen/plain/W_S": "1", "s/v/frozen/plain/history": "2", "x": "3"}
    b = {"s/v/frozen/plain/W_S": "1", "s/v/frozen/plain/history": "9", "y": "3"}
    assert identity.compare(a, b) == [
        "differs: s/v/frozen/plain/history", "only in A: x", "only in B: y",
    ]
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    assert identity.main(["--compare", str(paths[0]), str(paths[1])]) == 1
    assert "3 of 4 artifacts differ" in capsys.readouterr().out
    assert identity.main(["--compare", str(paths[0]), str(paths[0])]) == 0


def test_reloaded_artifacts_hash_as_trained(identity, tiny):
    hashes = identity.shape_hashes(tiny)
    reloaded = [key for key in hashes if "/reloaded/" in key]
    assert len(reloaded) == 18 + 6  # W_S of every case, predict of the 6 joint ones
    for key in reloaded:
        assert hashes[key] == hashes[key.replace("/reloaded/", "/")], key
