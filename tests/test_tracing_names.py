"""The benchmark's tracer wraps program attributes by name.

`perfbench/tracing.py` looks up each wrapped function or method in the
module or class that calls it.  Entering `traced()` here turns a rename
or removal of any of them into a tier-1 failure.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer, _targets, traced

    targets = [(owner, attr) for owner, attr, *_ in _targets()]
    before = [vars(owner)[attr] for owner, attr in targets]
    with traced(Tracer()):
        for (owner, attr), original in zip(targets, before):
            assert vars(owner)[attr].__wrapped__ is original, attr
    for (owner, attr), original in zip(targets, before):
        assert vars(owner)[attr] is original, attr
