"""The spectral bottoms with their passes counted and their guide replaced."""

from collections import Counter

import pytest

from hardy_lab import spectral_ops

PASSES = ("_negative_pivots", "_tree_pivots_positive")

_OWN_GUIDES = object()


def counted(compute, guess=_OWN_GUIDES):
    """compute() and a Counter of the Sturm and tree pivot passes it made,
    by name.  A ``guess`` replaces every closed-form bottom, and every
    extrapolated bottom at the pass where the extrapolation would first
    give one, so compute() bisects as guided by it; None switches both
    guides off, which is the unguided bisection."""
    passes = Counter()

    def spy(name, original):
        def counting(*args):
            passes[name] += 1
            return original(*args)
        return counting

    def extrapolated(*args, _extrapolate=spectral_ops._extrapolated_bottom):
        return None if _extrapolate(*args) is None else guess

    with pytest.MonkeyPatch.context() as mp:
        for name in PASSES:
            mp.setattr(spectral_ops, name, spy(name, getattr(spectral_ops, name)))
        if guess is not _OWN_GUIDES:
            mp.setattr(spectral_ops, "_homogeneous_bottom", lambda *args: guess)
            mp.setattr(spectral_ops, "_extrapolated_bottom", extrapolated)
        return compute(), passes
