"""The benchmark's per-layer tracer (``perfbench/tracer.py``) wraps names of
``repro.core`` where the synopsis looks them up. Installing it fails if one of
those names is gone, and uninstalling must put every original back."""
import os
import sys
import types

from repro.core import synopsis, tree

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import tracer  # noqa: E402


def test_tracer_installs_and_restores():
    owners = (synopsis, synopsis.PassSynopsis, tree.Node)
    before = [dict(vars(o)) for o in owners]
    t = tracer.Tracer(None, types.SimpleNamespace(count=lambda: 0))
    with t.installed():
        assert synopsis.mcf is not before[0]["mcf"]
    for owner, saved in zip(owners, before):
        after = vars(owner)
        assert after.keys() == saved.keys()
        for name, obj in saved.items():
            assert after[name] is obj, f"{owner.__name__}.{name} not restored"
