"""How the package's records compare: by identity when they hold arrays,
by value otherwise."""

import dataclasses
import importlib
import pkgutil
import typing

import numpy as np
import pytest

import rnnp
from rnnp.datagen import MixtureSpec, generate_mixture
from rnnp.episodes import CorruptionSpec, EmbeddingSet, Episode, sample_episode
from rnnp.harness import ExperimentConfig, MethodSpec
from rnnp.metrics import EvalReport
from rnnp.refine import RefinementTrace, RnnpConfig


def array_records():
    """Pairs of distinct records of each array-holding type, built from the same arrays."""
    pool = generate_mixture(MixtureSpec(4, 3, 5.0, 6, seed=1))
    resp = np.full((6, 3), 1 / 3)
    trace = dict(initial_prototypes=np.eye(3), refined_prototypes=np.eye(3),
                 support_responsibilities=resp)
    return {
        "EmbeddingSet": [EmbeddingSet(features=pool.features, labels=pool.labels)
                         for _ in range(2)],
        "Episode": [sample_episode(pool, 3, 2, 2, seed=5) for _ in range(2)],
        "RefinementTrace": [RefinementTrace(**trace) for _ in range(2)],
    }


# One sample of every record that holds no array; a new record needs one here.
VALUE_RECORDS = {
    "MixtureSpec": MixtureSpec(4, 3, 5.0, 6, seed=1),
    "CorruptionSpec": CorruptionSpec(rate=0.4, seed=2),
    "RnnpConfig": RnnpConfig(beta=2),
    "MethodSpec": MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=2), label="r"),
    "ExperimentConfig": ExperimentConfig(methods=(MethodSpec(method="nnp"),),
                                         data_path="pool.csv", data_format="csv", workers=2),
    "EvalReport": EvalReport.from_accuracies("rnnp", 0.4, 5, 5, 15, [0.5, 0.75], 1, 7, (0, 2),
                                             [(20, 21.0), (19, 25.0)]),
}


def package_records():
    """Every dataclass defined in one of rnnp's modules."""
    records = {}
    for info in pkgutil.iter_modules(rnnp.__path__):
        module = importlib.import_module(f"rnnp.{info.name}")
        records.update({name: obj for name, obj in vars(module).items()
                        if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__})
    return records


def holds_arrays(cls) -> bool:
    """cls has a field typed np.ndarray or dict, alone or in a union."""
    return any(t in (np.ndarray, dict) for hint in typing.get_type_hints(cls).values()
               for t in (hint, *typing.get_args(hint)))


@pytest.mark.parametrize("name", ["EmbeddingSet", "Episode", "RefinementTrace"])
def test_array_records_compare_by_identity(name):
    a, b = array_records()[name]
    assert a != b and not a == b
    assert a == a and a in [a]
    assert a not in [b]
    assert isinstance(hash(a), int) and hash(a) == hash(a)
    assert {a: 1, b: 2}[a] == 1


def test_every_record_follows_the_contract():
    records = package_records()
    with_arrays = {name for name, cls in records.items() if holds_arrays(cls)}
    assert with_arrays >= {"EmbeddingSet", "Episode", "RefinementTrace"}
    for name in with_arrays:
        cls = records[name]
        assert not cls.__dataclass_params__.eq, name
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, name
    assert set(records) - with_arrays == set(VALUE_RECORDS)
    for name, sample in VALUE_RECORDS.items():
        again = dataclasses.replace(sample)
        assert again is not sample and again == sample, name
        assert hash(again) == hash(sample), name


def test_config_writes_its_compare_fields():
    cfg = VALUE_RECORDS["ExperimentConfig"]
    compared = {f.name for f in dataclasses.fields(ExperimentConfig) if f.compare}
    assert set(cfg.to_dict()) == compared
    assert compared == {f.name for f in dataclasses.fields(ExperimentConfig)} - {"workers"}
