"""Tests for the shared provenance helpers (repro.utils.provenance)."""

import platform

from repro.config import SimConfig
from repro.service.checkpoint import atomic_write_bytes
from repro.service.checkpoint import config_fingerprint as checkpoint_fp
from repro.utils.provenance import (config_fingerprint, git_revision,
                                    runtime_provenance)


class TestRuntimeProvenance:
    def test_standard_keys(self):
        stamp = runtime_provenance()
        assert stamp["python"] == platform.python_version()
        assert isinstance(stamp["numpy"], str) and stamp["numpy"]
        assert isinstance(stamp["cpu_count"], int) and stamp["cpu_count"] >= 1
        assert "platform" in stamp
        assert "git_rev" in stamp  # str or None, never missing

    def test_no_timestamps(self):
        # Provenance feeds bit-identity comparisons across reruns, so wall
        # clocks must never leak in.
        stamp = runtime_provenance()
        for key in stamp:
            assert "time" not in key and "date" not in key

    def test_extra_keys_merge(self):
        stamp = runtime_provenance(role="test", attempt=2)
        assert stamp["role"] == "test"
        assert stamp["attempt"] == 2

    def test_deterministic(self):
        assert runtime_provenance() == runtime_provenance()


class TestGitRevision:
    def test_in_repo_returns_hex_or_none(self):
        rev = git_revision()
        assert rev is None or (
            isinstance(rev, str) and len(rev) >= 7
            and all(ch in "0123456789abcdef" for ch in rev))

    def test_bogus_root_returns_none(self, tmp_path):
        assert git_revision(tmp_path) is None


class TestConfigFingerprint:
    def test_stable_and_prefetcher_sensitive(self):
        config = SimConfig.experiment_scale()
        assert (config_fingerprint("planaria", config)
                == config_fingerprint("planaria", config))
        assert (config_fingerprint("planaria", config)
                != config_fingerprint("bop", config))

    def test_checkpoint_reexport_is_same_function(self):
        # service.checkpoint re-exports the shared helper; restore
        # validation and campaign provenance must agree byte for byte.
        assert checkpoint_fp is config_fingerprint

    def test_sixteen_hex_chars(self):
        fp = config_fingerprint("none", SimConfig.experiment_scale())
        assert len(fp) == 16
        assert all(ch in "0123456789abcdef" for ch in fp)


class TestAtomicWriteBytes:
    def test_write_and_replace(self, tmp_path):
        target = tmp_path / "deep" / "state.json"
        atomic_write_bytes(target, b"one")
        assert target.read_bytes() == b"one"
        atomic_write_bytes(target, b"two")
        assert target.read_bytes() == b"two"
        # no stray tmp files left behind
        assert [p.name for p in target.parent.iterdir()] == ["state.json"]
