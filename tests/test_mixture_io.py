"""JSON mixture and noise-covariance loading."""

import json

import numpy as np
import pytest

from mixent import (
    GaussianComponent,
    MixtureError,
    NonFiniteValue,
    NotPositiveDefinite,
    UniformBox,
    load_mixture,
    load_noise_cov,
    parse_mixture,
)
from support import nested

GAUSSIAN_DOC = {
    "family": "gaussian",
    "weights": [0.5, 0.5],
    "components": [
        {"mean": [0.0], "cov": [[1.0]]},
        {"mean": [2.0], "cov": [[1.0]]},
    ],
}

UNIFORM_DOC = {
    "family": "uniform",
    "weights": [1.0, 3.0],
    "components": [
        {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        {"lower": [0.5, 0.5], "upper": [2.0, 2.0]},
    ],
}


def test_parse_gaussian_document():
    mix = parse_mixture(GAUSSIAN_DOC)
    assert mix.n_components == 2 and mix.dim == 1
    assert isinstance(mix.components[0], GaussianComponent)
    assert mix.weights.tolist() == [0.5, 0.5]


def test_parse_uniform_document_normalizes_weights():
    mix = parse_mixture(UNIFORM_DOC)
    assert isinstance(mix.components[0], UniformBox)
    assert mix.weights.tolist() == [0.25, 0.75]


def test_parse_rejects_unknown_family():
    with pytest.raises(MixtureError):
        parse_mixture({"family": "poisson", "weights": [1.0], "components": []})


def test_parse_rejects_missing_keys():
    with pytest.raises(MixtureError):
        parse_mixture({"family": "gaussian", "weights": [1.0]})
    with pytest.raises(MixtureError):
        parse_mixture(
            {"family": "gaussian", "weights": [1.0], "components": [{"mean": [0.0]}]}
        )


def test_load_mixture_round_trip(tmp_path):
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(GAUSSIAN_DOC))
    mix = load_mixture(path)
    assert mix.n_components == 2
    assert mix.components[1].mean.tolist() == [2.0]


def test_load_mixture_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MixtureError):
        load_mixture(path)
    array = tmp_path / "array.json"
    array.write_text("[1, 2, 3]")
    with pytest.raises(MixtureError):
        load_mixture(array)
    components = json.dumps(GAUSSIAN_DOC["components"])
    for depth in (990, 3000):
        path.write_text(f'{{"family": "gaussian", "weights": {nested(depth)}, '
                        f'"components": {components}}}')
        with pytest.raises(MixtureError):
            load_mixture(path)


def test_load_mixture_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_mixture(tmp_path / "absent.json")


def test_load_noise_cov(tmp_path):
    path = tmp_path / "noise.json"
    path.write_text(json.dumps({"cov": [[2.0, 0.0], [0.0, 1.0]]}))
    cov = load_noise_cov(path)
    assert np.array_equal(cov, [[2.0, 0.0], [0.0, 1.0]])


def test_load_noise_cov_accepts_bare_matrix(tmp_path):
    path = tmp_path / "noise.json"
    path.write_text(json.dumps([[2.0, 0.5], [0.5, 1.0]]))
    assert np.array_equal(load_noise_cov(path), [[2.0, 0.5], [0.5, 1.0]])


def test_load_noise_cov_rejects_malformed(tmp_path):
    path = tmp_path / "noise.json"
    path.write_text(json.dumps({"sigma": 1.0}))
    with pytest.raises(MixtureError):
        load_noise_cov(path)
    path.write_text("nonsense")
    with pytest.raises(MixtureError):
        load_noise_cov(path)
    path.write_text(json.dumps([[1.0, 0.0], [0.0]]))
    with pytest.raises(MixtureError):
        load_noise_cov(path)
    for cov in ({"cov": [[True]]}, [[2.0, False], [False, 1.0]], True):
        path.write_text(json.dumps(cov))
        with pytest.raises(MixtureError, match="booleans"):
            load_noise_cov(path)
    path.write_text(f'{{"cov": {nested(3000)}}}')
    with pytest.raises(MixtureError):
        load_noise_cov(path)


def test_non_numeric_entries_become_mixture_errors():
    for key, value in (("weights", "ab"), ("weights", [[1.0], [2.0, 3.0]])):
        with pytest.raises(MixtureError, match="malformed"):
            parse_mixture({**GAUSSIAN_DOC, key: value})
    bad_cov = [{"mean": [0.0], "cov": [["x"]]}, {"mean": [2.0], "cov": [[1.0]]}]
    with pytest.raises(MixtureError, match="malformed"):
        parse_mixture({**GAUSSIAN_DOC, "components": bad_cov})
    # JSON booleans would pass np.asarray as 1.0 and 0.0.
    two = GAUSSIAN_DOC["components"]
    boxes = UNIFORM_DOC["components"]
    for doc in (
        {**GAUSSIAN_DOC, "weights": [True, True]},
        {**GAUSSIAN_DOC, "weights": [0.5, False]},
        {**GAUSSIAN_DOC, "components": [{"mean": [False], "cov": [[1.0]]}, two[1]]},
        {**GAUSSIAN_DOC, "components": [two[0], {"mean": [2.0], "cov": [[True]]}]},
        {**UNIFORM_DOC, "components": [{"lower": [0.0, False], "upper": [1.0, 1.0]}, boxes[1]]},
        {**UNIFORM_DOC, "components": [boxes[0], {"lower": [0.5, 0.5], "upper": [True, 2.0]}]},
    ):
        with pytest.raises(MixtureError, match="malformed.*booleans"):
            parse_mixture(doc)
    # Nesting deeper than the interpreter's recursion limit.
    weights = [1.0]
    for _ in range(3000):
        weights = [weights]
    with pytest.raises(MixtureError, match="malformed"):
        parse_mixture({**GAUSSIAN_DOC, "weights": weights})


def test_the_loader_and_the_constructors_refuse_alike():
    # One intake rule: a spec's entries raise what the constructor raises.
    cases = [
        (GaussianComponent, {"mean": [0.0], "cov": [["x"]]}),
        (GaussianComponent, {"mean": [0.0], "cov": [[1.0, 0.0], [0.0]]}),
        (UniformBox, {"lower": [0.0, 0.0], "upper": [True, 1.0]}),
    ]
    for family, entry in cases:
        with pytest.raises(MixtureError) as direct:
            family(*entry.values())
        doc = GAUSSIAN_DOC if family is GaussianComponent else UNIFORM_DOC
        with pytest.raises(MixtureError) as loaded:
            parse_mixture({**doc, "components": [entry, doc["components"][1]]})
        assert type(loaded.value) is type(direct.value)
        assert str(loaded.value) == str(direct.value)


def test_constructor_errors_keep_their_own_type():
    nan_mean = [{"mean": [float("nan")], "cov": [[1.0]]}, {"mean": [2.0], "cov": [[1.0]]}]
    with pytest.raises(NonFiniteValue):
        parse_mixture({**GAUSSIAN_DOC, "components": nan_mean})
    indefinite = [{"mean": [0.0], "cov": [[-1.0]]}, {"mean": [2.0], "cov": [[1.0]]}]
    with pytest.raises(NotPositiveDefinite):
        parse_mixture({**GAUSSIAN_DOC, "components": indefinite})
