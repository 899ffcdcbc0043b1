"""Environment-variable parsing: one helper, one error type.

``REPRO_LATTICE_CHUNK_BYTES`` and its kind used to be parsed ad hoc
(bare ``ValueError``); they now go through :mod:`repro.config`, which
raises a clear :class:`~repro.errors.ConfigError` naming the variable
on malformed input.
"""

from __future__ import annotations

import pytest

from repro.config import env_int
from repro.errors import ConfigError


class TestEnvInt:
    def test_unset_and_empty_mean_default(self):
        assert env_int("X", 7, environ={}) == 7
        assert env_int("X", 7, environ={"X": ""}) == 7

    def test_parses_integers(self):
        assert env_int("X", 7, environ={"X": "42"}) == 42
        assert env_int("X", 7, environ={"X": " -3 "}) == -3

    @pytest.mark.parametrize("text", ["4.5", "ten", "0x10", ""])
    def test_non_integer_raises(self, text):
        if text == "":
            assert env_int("X", 1, environ={"X": text}) == 1
            return
        with pytest.raises(ConfigError, match="X"):
            env_int("X", 1, environ={"X": text})

    def test_minimum_enforced(self):
        assert env_int("X", 5, minimum=1, environ={"X": "1"}) == 1
        with pytest.raises(ConfigError, match=">= 1"):
            env_int("X", 5, minimum=1, environ={"X": "0"})


class TestLatticeChunkBytes:
    def test_env_overrides_chunk_size(self, monkeypatch):
        monkeypatch.setenv("REPRO_LATTICE_CHUNK_BYTES", "1024")
        from repro.systolic.engine.lattice import LatticeEngine

        assert LatticeEngine().chunk_bytes == 1024

    def test_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_LATTICE_CHUNK_BYTES", "lots")
        from repro.systolic.engine.lattice import LatticeEngine

        with pytest.raises(ConfigError, match="REPRO_LATTICE_CHUNK_BYTES"):
            LatticeEngine()

    def test_below_minimum_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_LATTICE_CHUNK_BYTES", "0")
        from repro.systolic.engine.lattice import LatticeEngine

        with pytest.raises(ConfigError, match=">= 1"):
            LatticeEngine()
