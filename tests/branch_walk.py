"""A reference walk over the sweep's branch tree, built on the public
classify/apply_rule stepper.

evaluate_profiles keeps only each leaf's path and value; the tests that
check the rule tags and interval counts along a branch read them from this
walk instead.
"""

from __future__ import annotations

from khr.laurent import ONE
from khr.sweep import (
    BranchRecord,
    Rule,
    apply_rule,
    classify,
    event_list,
    initial_coloring,
    reconstruct_path,
)


def walk_branches(params, profiles):
    """Every branch of the sweep of params, in the order the walk finishes them.

    Each item is (record, values): the branch's BranchRecord, and per
    profile the product of its weights over the branch's transitions times
    its base value.
    """
    events = event_list(params)
    out = []

    def charged(weights, step):
        return tuple(w * prof.weight(step.tag, step.weight_k) for w, prof in zip(weights, profiles))

    stack = [(0, initial_coloring(params), {}, {}, (ONE,) * len(profiles))]
    while stack:
        start, state, tags, kvals, weights = stack.pop()
        for i in range(start, len(events)):
            p = events[i].p
            rule, _ = classify(state, p)
            successors = apply_rule(state, p, rule)
            step = successors[0]
            if step.tag is Rule.TERMINAL:
                values = tuple(prof.base * w for w, prof in zip(weights, profiles))
                out.append((BranchRecord(tags, kvals, p), values))
                break
            if len(successors) == 2:
                keep = successors[1]
                stack.append(
                    (i + 1, keep.state, {**tags, p: keep.tag}, {**kvals, p: keep.weight_k},
                     charged(weights, keep))
                )
            if step.tag is not Rule.NOOP:
                tags[p] = step.tag
                if step.tag in (Rule.SPLIT, Rule.CONTRACT):
                    kvals[p] = step.weight_k
                weights = charged(weights, step)
            state = step.state
        else:
            raise RuntimeError(f"{params}: events exhausted with intervals alive")
    return out


def branches_by_path(params, profiles):
    """walk_branches keyed by the word of each record's reconstructed path."""
    return {
        str(reconstruct_path(record, params)): (record, values)
        for record, values in walk_branches(params, profiles)
    }
