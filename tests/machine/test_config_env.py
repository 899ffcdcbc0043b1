"""Environment-variable parsing: one helper, one error type.

``REPRO_MACHINE_PARALLEL`` and ``REPRO_LATTICE_CHUNK_BYTES`` used to
be parsed ad hoc (silent truthiness, bare ``ValueError``); they now go
through :mod:`repro.config`, which raises a clear
:class:`~repro.errors.ConfigError` naming the variable on malformed
input.
"""

from __future__ import annotations

import pytest

from repro.config import env_flag, env_int
from repro.errors import ConfigError
from repro.machine.execution import resolve_parallel


class TestEnvFlag:
    def test_unset_and_empty_mean_default(self):
        assert env_flag("X", True, environ={}) is True
        assert env_flag("X", False, environ={}) is False
        assert env_flag("X", True, environ={"X": ""}) is True
        assert env_flag("X", True, environ={"X": "   "}) is True

    @pytest.mark.parametrize("text", ["1", "true", "on", "yes", "TRUE", " On "])
    def test_true_spellings(self, text):
        assert env_flag("X", False, environ={"X": text}) is True

    @pytest.mark.parametrize("text", ["0", "false", "off", "no", "False", " NO "])
    def test_false_spellings(self, text):
        assert env_flag("X", True, environ={"X": text}) is False

    @pytest.mark.parametrize("text", ["maybe", "2", "yes!", "troo"])
    def test_garbage_raises_naming_the_variable(self, text):
        with pytest.raises(ConfigError, match="REPRO_TEST_FLAG"):
            env_flag("REPRO_TEST_FLAG", True, environ={"REPRO_TEST_FLAG": text})


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


class TestMachineParallelFlag:
    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MACHINE_PARALLEL", "0")
        assert resolve_parallel(True) is True
        assert resolve_parallel(False) is False

    def test_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_MACHINE_PARALLEL", "off")
        assert resolve_parallel(None) is False

    def test_unset_defaults_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_MACHINE_PARALLEL", raising=False)
        assert resolve_parallel(None) is True

    def test_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_MACHINE_PARALLEL", "fastplease")
        with pytest.raises(ConfigError, match="REPRO_MACHINE_PARALLEL"):
            resolve_parallel(None)


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
