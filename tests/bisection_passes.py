"""The spectral bottoms with their passes counted and their guide replaced."""

from collections import Counter

import pytest

from hardy_lab import spectral_ops

PASSES = ("_negative_pivots", "_tree_pivots_positive")

_CLOSED_FORM = object()


def counted(compute, guess=_CLOSED_FORM):
    """compute() and a Counter of the Sturm and tree pivot passes it made,
    by name.  A ``guess`` replaces every closed-form bottom (None: no
    guide), so compute() bisects as guided by it."""
    passes = Counter()

    def spy(name, original):
        def counting(*args):
            passes[name] += 1
            return original(*args)
        return counting

    with pytest.MonkeyPatch.context() as mp:
        for name in PASSES:
            mp.setattr(spectral_ops, name, spy(name, getattr(spectral_ops, name)))
        if guess is not _CLOSED_FORM:
            mp.setattr(spectral_ops, "_homogeneous_bottom", lambda *args: guess)
        return compute(), passes
