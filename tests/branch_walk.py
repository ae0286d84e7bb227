"""A reference walk over the sweep's branch tree, built on the public
apply_rule stepper.

evaluate_profiles keeps only each leaf's path and numerator; the tests that
check the rule steps and interval counts along a branch read them from this
walk instead.
"""

from __future__ import annotations

from khr.laurent import ONE
from khr.sweep import (
    Rule,
    apply_rule,
    event_list,
    initial_coloring,
    reconstruct_path,
)


def walk_branches(params, profiles):
    """Every branch of the sweep of params, in the order the walk finishes them.

    Each item is (steps, terminal, nums): the branch's {point: (tag, k)}
    rule steps, the point whose contraction ended it, and per profile the
    product of its weights over the branch's successors times its base
    numerator.
    """
    events = event_list(params)
    out = []

    def charged(weights, tag, k):
        return tuple(w * prof.weight(tag, k) for w, prof in zip(weights, profiles))

    stack = [(0, initial_coloring(params), {}, (ONE,) * len(profiles))]
    while stack:
        start, state, steps, weights = stack.pop()
        for i in range(start, len(events)):
            p = events[i]
            successors = apply_rule(state, p)
            state, tag, k = successors[0]
            if tag is Rule.TERMINAL:
                nums = tuple(w * prof.base.num for w, prof in zip(weights, profiles))
                out.append((steps, p, nums))
                break
            if len(successors) == 2:
                keep_state, keep_tag, keep_k = successors[1]
                stack.append(
                    (i + 1, keep_state, {**steps, p: (keep_tag, keep_k)},
                     charged(weights, keep_tag, keep_k))
                )
            if tag is not Rule.NOOP:
                steps[p] = (tag, k)
                weights = charged(weights, tag, k)
        else:
            raise RuntimeError(f"{params}: events exhausted with intervals alive")
    return out


def branches_by_path(params, profiles):
    """walk_branches keyed by the word of each branch's reconstructed path."""
    return {
        str(reconstruct_path(steps, terminal, params)): (steps, terminal, nums)
        for steps, terminal, nums in walk_branches(params, profiles)
    }
