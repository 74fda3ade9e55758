import json

import numpy as np
import pytest

from liefourier import Symbol, enumerate_dual, random_coefficients
from liefourier.dual import spin_cutoff
from liefourier.errors import ConfigurationError
from liefourier.serialize import from_payload, load, save, to_payload


def test_coefficients_roundtrip_bit_exact(torus2, tmp_path):
    dual = enumerate_dual(torus2, 4.0)
    coeffs = random_coefficients(dual, np.random.default_rng(0))
    path = tmp_path / "coeffs.json"
    save(path, coeffs)
    back = load(path)
    for a, b in zip(coeffs.blocks, back.blocks):
        assert np.array_equal(a, b)  # bit exact
    save(tmp_path / "again.json", back)
    assert (tmp_path / "coeffs.json").read_bytes() == (tmp_path / "again.json").read_bytes()


def test_su2_symbol_roundtrip(su2, tmp_path):
    dual = enumerate_dual(su2, spin_cutoff(2))
    rng = np.random.default_rng(1)
    sig = Symbol.from_blocks(
        dual, [rng.standard_normal((ir.dim, ir.dim)) + 1j * rng.standard_normal((ir.dim, ir.dim)) for ir in dual.irreps]
    )
    path = tmp_path / "symbol.json"
    save(path, sig)
    back = load(path)
    assert isinstance(back, Symbol)
    for a, b in zip(sig.blocks, back.blocks):
        assert np.array_equal(a, b)
    payload = json.loads(path.read_text())
    assert payload["role"] == "symbol"
    assert payload["group"]["kind"] == "su2"


def test_label_mismatch_rejected(torus1):
    dual = enumerate_dual(torus1, 2.0)
    coeffs = random_coefficients(dual, np.random.default_rng(2))
    payload = to_payload(coeffs)
    payload["entries"] = payload["entries"][:-1]
    with pytest.raises(ConfigurationError):
        from_payload(payload)


def test_bad_role_rejected(torus1):
    dual = enumerate_dual(torus1, 2.0)
    payload = to_payload(random_coefficients(dual, np.random.default_rng(3)))
    payload["role"] = "mystery"
    with pytest.raises(ConfigurationError):
        from_payload(payload)
