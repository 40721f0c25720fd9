"""Load mixture definitions and noise covariances from JSON files.

A mixture file looks like

    {"family": "gaussian",
     "weights": [0.5, 0.5],
     "components": [{"mean": [0.0], "cov": [[1.0]]},
                    {"mean": [2.0], "cov": [[1.0]]}]}

or, for the uniform family, components of the form
``{"lower": [...], "upper": [...]}``.  Covariances are full row-major
matrices.  A noise file holds a single ``{"cov": [[...]]}`` object.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import MixtureError
from .gaussian import GaussianComponent
from .mixture import MixtureModel
from .uniform import UniformBox


def _numbers(value):
    """``value``, or a TypeError if a JSON true or false (NumPy's 1 and 0) is in it."""
    if isinstance(value, bool):
        raise TypeError("JSON booleans are not numbers")
    for item in value if isinstance(value, list) else ():
        _numbers(item)
    return value


def parse_mixture(data: dict) -> MixtureModel:
    """Build a MixtureModel from a parsed mixture definition.

    Constructor errors keep their own MixtureError subclass; malformed
    structure, non-numeric entries or nesting too deep to walk raise a plain
    MixtureError.
    """
    try:
        family = data["family"]
        weights = _numbers(data["weights"])
        entries = data["components"]
        if family == "gaussian":
            comps = [GaussianComponent(_numbers(c["mean"]), _numbers(c["cov"])) for c in entries]
        elif family == "uniform":
            comps = [UniformBox(_numbers(c["lower"]), _numbers(c["upper"])) for c in entries]
        else:
            raise MixtureError(f"unknown family {family!r}, expected 'gaussian' or 'uniform'")
        return MixtureModel(weights, comps)
    except MixtureError:
        raise
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise MixtureError(f"malformed mixture definition: {exc}") from None


def _read_json(path):
    """Parse a UTF-8 JSON file; undecodable bytes, bad JSON and nesting too
    deep for the parser are MixtureErrors."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise MixtureError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MixtureError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise MixtureError(f"{path} is nested too deeply to parse") from None


def load_mixture(path) -> MixtureModel:
    """Read and validate a JSON mixture definition file."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise MixtureError(f"{path} must hold a JSON object")
    return parse_mixture(data)


def load_noise_cov(path) -> np.ndarray:
    """Read a noise covariance from JSON: a bare matrix or an object with a 'cov' entry."""
    data = _read_json(path)
    try:
        cov = _numbers(data["cov"] if isinstance(data, dict) else data)
        return np.atleast_2d(np.asarray(cov, dtype=float))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise MixtureError(f"malformed noise definition: {exc}") from None
