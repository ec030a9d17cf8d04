"""Guard for the package's public names: every name in `flowcomp.__all__`
resolves, so a deleted function or class leaves no stale export behind."""

import flowcomp


def test_every_name_in_all_resolves():
    assert len(flowcomp.__all__) == len(set(flowcomp.__all__))
    missing = [name for name in flowcomp.__all__ if not hasattr(flowcomp, name)]
    assert missing == []
