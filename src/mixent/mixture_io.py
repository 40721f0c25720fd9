"""Load mixture definitions and noise covariances from JSON files.

A mixture file looks like

    {"family": "gaussian",
     "weights": [0.5, 0.5],
     "components": [{"mean": [0.0], "cov": [[1.0]]},
                    {"mean": [2.0], "cov": [[1.0]]}]}

or, for the uniform family, components of the form
``{"lower": [...], "upper": [...]}``.  Covariances are full row-major
matrices.  A noise file holds a single ``{"cov": [[...]]}`` object.

The numbers are read by the constructors' own intake rule, so JSON
``true`` and ``false`` are refused as booleans, not taken as 1 and 0, and
``null`` and strings such as ``"1.5"`` are refused, not read as NaN or parsed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ._numeric import as_floats
from .errors import MixtureError
from .gaussian import GaussianComponent
from .mixture import MixtureModel
from .uniform import UniformBox

__all__ = ["parse_mixture", "load_mixture", "load_noise_cov"]


def parse_mixture(data: dict) -> MixtureModel:
    """Build a MixtureModel from a parsed mixture definition.

    Constructor errors, booleans and non-numeric entries among them, pass
    through unchanged; malformed structure (a missing key, a component that
    is not an object, nesting too deep to walk) raises a plain MixtureError.
    """
    try:
        family = data["family"]
        weights = data["weights"]
        entries = data["components"]
        if family == "gaussian":
            comps = [GaussianComponent(c["mean"], c["cov"]) for c in entries]
        elif family == "uniform":
            comps = [UniformBox(c["lower"], c["upper"]) for c in entries]
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
    if isinstance(data, dict) and "cov" not in data:
        raise MixtureError(f"malformed noise definition: no 'cov' entry in {path}")
    cov = data["cov"] if isinstance(data, dict) else data
    return np.atleast_2d(as_floats(cov, "noise covariance"))
