"""The package's public surface: every exported name resolves."""

from __future__ import annotations

import seqrel


def test_every_exported_name_resolves():
    missing = [name for name in seqrel.__all__ if not hasattr(seqrel, name)]
    assert not missing
    assert len(set(seqrel.__all__)) == len(seqrel.__all__)
