"""The train and predict half of the regression oracle, ``scripts/oracle.py``:
a change that alters what a model learns or predicts must update
``scripts/oracle.sha256`` in the same diff."""

import importlib.util
from pathlib import Path

ORACLE = Path(__file__).resolve().parent.parent / "scripts" / "oracle.py"


def load_oracle():
    spec = importlib.util.spec_from_file_location("oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_train_and_predict_digests_match_the_record(tmp_path):
    oracle = load_oracle()
    digests = oracle.model_digests(tmp_path)
    recorded = oracle.recorded()
    assert len(digests) == 10
    assert {name: recorded.get(name) for name in digests} == digests
