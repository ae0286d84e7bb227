"""The sweep's branches keyed by path, with each leaf numerator recomputed.

evaluate_profiles keeps only each leaf's path and numerator; the tests that
check the rule steps and interval counts along a branch read them from
sweep.branches, the walk evaluate_profiles itself runs.
"""

from __future__ import annotations

from khr.sweep import branches, reconstruct_path


def branches_by_path(params, profiles):
    """sweep.branches keyed by the word of each branch's reconstructed path.

    Each value is (steps, terminal, nums), nums holding per profile the
    base numerator times the product of profile.weight(tag, k) over that
    branch's own steps: recomputed here branch by branch, with no memo and
    nothing shared between branches, independently of evaluate_profiles'
    factored weights.
    """
    out = {}
    for steps, terminal in branches(params):
        nums = []
        for profile in profiles:
            num = profile.base.num
            for tag, k in steps.values():
                num = num * profile.weight(tag, k)
            nums.append(num)
        out[str(reconstruct_path(steps, terminal, params))] = (steps, terminal, tuple(nums))
    return out
