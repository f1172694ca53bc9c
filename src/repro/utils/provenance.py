"""Shared run provenance: who produced a number, on what machine.

Every ``BENCH_*.json`` writer and the campaign runner stamp their
output with the same provenance block — git revision, python/numpy
versions, CPU count and platform — so a recorded number can always be
traced back to the exact code and host that produced it, instead of
each writer growing its own ad-hoc dict.

:func:`config_fingerprint` lives here too (re-exported by
:mod:`repro.service.checkpoint` for compatibility): the short stable
hash over (prefetcher name, full config) that checkpoint restore
validation, cross-worker migration and per-campaign-cell provenance all
share.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional

_REPO_ROOT = Path(__file__).resolve().parents[3]


def git_revision(repo_root: Optional[Path] = None) -> Optional[str]:
    """The current git commit hash, or ``None`` outside a work tree.

    Never raises: provenance stamping must not be able to fail a
    benchmark or campaign, so any git problem (no binary, not a repo,
    timeout) degrades to ``None``.
    """
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_root or _REPO_ROOT),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    revision = result.stdout.strip()
    return revision or None


def runtime_provenance(**extra: Any) -> Dict[str, Any]:
    """The shared provenance block: git rev, versions, cpu count.

    ``extra`` key/values are merged in (and may override the defaults),
    so writers can add their own fields — e.g. ``engine_mode`` — without
    a second dict merge at the call site.  Deliberately excludes wall
    timestamps: reports that embed this block stay byte-comparable
    across reruns of the same code on the same host.
    """
    import numpy

    entry: Dict[str, Any] = {
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }
    entry.update(extra)
    return entry


def config_fingerprint(prefetcher: str, config: Any) -> str:
    """A stable short hash over (prefetcher name, full config).

    Two engines share a fingerprint exactly when a checkpoint written by
    one can be ``load_state()``-ed into the other: same prefetcher
    registry name, bit-identical configuration.  The hash is computed
    over the canonical JSON of :func:`repro.config_io.to_dict`, so it is
    stable across processes and Python versions — the property
    cross-worker migration and campaign-cell re-verification rely on.
    """
    from repro.config_io import to_dict as config_to_dict

    canonical = json.dumps({"prefetcher": prefetcher,
                            "config": config_to_dict(config)},
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
