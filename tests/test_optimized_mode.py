"""Correctness guards are explicit raises, so `python -O` keeps them and
prints the same results."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import khr

SRC = str(Path(khr.__file__).resolve().parents[1])

# Trips each guard once and prints its exception type; a guard that was an
# assert would print "missed" under -O.
GUARDS = r"""
import sys
from types import SimpleNamespace

import khr.dyck as dyck
import khr.formula as formula
import khr.sweep as sweep
from khr.dyck import DyckPath, KnotParams, hplus, k_of, rational_catalan, vstar


def link_params(m, n):
    params = object.__new__(KnotParams)
    object.__setattr__(params, "m", m)
    object.__setattr__(params, "n", n)
    return params


def link_path(m, n, word):
    return DyckPath.from_string(link_params(m, n), word)


def patched(name, fake, call):
    # trips a dyck guard by making one statistic lie, through the module
    # global its caller looks up
    original = getattr(dyck, name)
    setattr(dyck, name, fake)
    try:
        call(DyckPath.from_string(KnotParams(3, 2), "NENEE"))
    finally:
        setattr(dyck, name, original)


def missing_inner_corner():
    patched("corners", lambda path: (((0, 1), (1, 2)), ()), dyck.stats_json)


def wrong_area():
    patched("area", lambda path: 1, dyck.interior_points)


def rule_without_interval():
    classify = sweep.classify
    sweep.classify = lambda state, p: (sweep.Rule.CONTRACT, None)
    try:
        sweep.apply_rule(sweep.initial_coloring(KnotParams(3, 2)), (0, 2))
    finally:
        sweep.classify = classify


# the steps of the NENEE branch of (3, 2), whose terminal is (1, 2)
NENEE_STEPS = {
    (1, 1): (sweep.Rule.SPLIT, 1),
    (2, 2): (sweep.Rule.END_PASS, 2),
    (0, 1): (sweep.Rule.CONTRACT, 1),
}


def tampered_record():
    # the terminal moved off the most distant corner (1, 2)
    sweep.reconstruct_path(NENEE_STEPS, (0, 1), KnotParams(3, 2))


def foreign_step_tag():
    # a NoOp step, which no branch records, at the top corner (0, 2)
    steps = {**NENEE_STEPS, (0, 2): (sweep.Rule.NOOP, None)}
    sweep.reconstruct_path(steps, (1, 2), KnotParams(3, 2))


def keep_added():
    # a Keep at (1, 0) in row 0, which has no interior point, moves that
    # row's column to -1
    steps = {**NENEE_STEPS, (1, 0): (sweep.Rule.KEEP, 1)}
    sweep.reconstruct_path(steps, (1, 2), KnotParams(3, 2))


def keep_in_row_n():
    # the EndPass at (2, 2), in the top row n = 2, retagged as a Keep
    steps = {**NENEE_STEPS, (2, 2): (sweep.Rule.KEEP, 2)}
    sweep.reconstruct_path(steps, (1, 2), KnotParams(3, 2))


def wrong_leaf_count(edit):
    # the walk of (3, 2) with its branches edited
    branches = sweep.branches
    sweep.branches = lambda params: iter(edit(list(branches(params))))
    try:
        sweep.evaluate(KnotParams(3, 2), sweep.HHH_PROFILE)
    finally:
        sweep.branches = branches


def walk_guard(m, n, text):
    # the record walk over a link must trip the guard whose message holds text
    try:
        tuple(formula.records(link_params(m, n)))
    except (ValueError, RuntimeError) as exc:
        if text not in str(exc):
            raise LookupError(f"another guard tripped: {exc}") from exc
        raise


checks = [
    ("path below diagonal", lambda: DyckPath(KnotParams(3, 2), (0, 2))),
    ("k agreement", lambda: k_of(DyckPath.from_string(KnotParams(3, 2), "NNEEE"), (0, 1))),
    ("off-path point", lambda: k_of(DyckPath.from_string(KnotParams(3, 2), "NENEE"), (0, 2))),
    ("degenerate contact", lambda: hplus(link_path(3, 3, "NENNEE"))),
    ("corner collision", lambda: vstar(link_path(3, 3, "NENENE"))),
    ("catalan divisibility", lambda: rational_catalan(SimpleNamespace(m=2, n=2))),
    ("genus parity", lambda: formula.genus(SimpleNamespace(m=2, n=2))),
    ("corner count", missing_inner_corner),
    ("area", wrong_area),
    ("event collision", lambda: sweep.event_list(link_params(2, 2))),
    ("rule without interval", rule_without_interval),
    ("tampered record", tampered_record),
    ("foreign step tag", foreign_step_tag),
    ("keep added", keep_added),
    ("keep in row n", keep_in_row_n),
    ("step map k agreement", lambda: sweep.expected_steps(link_path(4, 2, "NNEEEE"))),
    ("leaf path missing", lambda: wrong_leaf_count(lambda walk: walk[1:])),
    ("leaf path twice", lambda: wrong_leaf_count(lambda walk: walk[:1] + walk)),
    ("leaf path twice, last", lambda: wrong_leaf_count(lambda walk: walk + walk[-1:])),
    ("walk corner collision", lambda: walk_guard(2, 2, "collide")),
    ("walk degenerate contact", lambda: walk_guard(3, 3, "degenerate")),
    ("walk k agreement", lambda: walk_guard(4, 2, "disagree")),
]
print("optimize", sys.flags.optimize)
for name, check in checks:
    try:
        check()
    except (ValueError, RuntimeError) as exc:
        print(name, type(exc).__name__)
    else:
        print(name, "missed")
"""


def khr_python(*args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_outputs_unchanged_under_optimize():
    for command in (["compute", "7", "5"], ["verify", "5", "3"]):
        plain = khr_python("-m", "khr", *command)
        optimized = khr_python("-O", "-m", "khr", *command)
        assert plain.returncode == optimized.returncode == 0, optimized.stderr
        assert plain.stdout == optimized.stdout
        assert plain.stdout


def test_guards_raise_under_optimize():
    result = khr_python("-O", "-c", GUARDS)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "optimize 1",
        "path below diagonal ValueError",
        "k agreement ValueError",
        "off-path point ValueError",
        "degenerate contact RuntimeError",
        "corner collision RuntimeError",
        "catalan divisibility ValueError",
        "genus parity ValueError",
        "corner count ValueError",
        "area ValueError",
        "event collision RuntimeError",
        "rule without interval RuntimeError",
        "tampered record RuntimeError",
        "foreign step tag RuntimeError",
        "keep added RuntimeError",
        "keep in row n RuntimeError",
        "step map k agreement ValueError",
        "leaf path missing RuntimeError",
        "leaf path twice RuntimeError",
        "leaf path twice, last RuntimeError",
        "walk corner collision RuntimeError",
        "walk degenerate contact RuntimeError",
        "walk k agreement ValueError",
    ]


def test_no_assert_in_package():
    # python -O strips assert statements, so no guard in the package may be one
    found = []
    for source in sorted(Path(khr.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        found += [f"{source.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
