"""Show that the benchmark's output checks reject corrupted outputs.

    python3 perfbench/selftest.py

Runs a small round of khr commands, confirms that the checks pass on the
real outputs, then corrupts one outcome at a time (its output, its stderr or
the cache entry it left) and confirms that every corruption is reported.
Exits 1 if a corruption goes unnoticed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

import checks
import run
from run import Command


def bump_first_coefficient(text: str) -> str:
    obj = json.loads(text)
    obj["num"][0]["c"] = str(int(obj["num"][0]["c"]) + 1)
    return json.dumps(obj, sort_keys=True)


def bump_asymmetric_coefficient(text: str) -> str:
    obj = json.loads(text)
    term = next(t for t in obj["num"] if t["q2"] != t["t2"])
    term["c"] = str(int(term["c"]) + 1)
    return json.dumps(obj, sort_keys=True)


def bump_diagonal_coefficient(text: str) -> str:
    """Change a term with q2 == t2: sign, a-range and q <-> t symmetry still hold."""
    obj = json.loads(text)
    term = next(t for t in obj["num"] if t["q2"] == t["t2"] and abs(int(t["c"])) > 1)
    term["c"] = str(int(term["c"]) + (1 if int(term["c"]) > 0 else -1))
    return json.dumps(obj, sort_keys=True)


def edit_json(text: str, edit) -> str:
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj, sort_keys=True)


def main() -> int:
    range_pairs = tuple(checks.coprime_range(7))
    cmds = [
        Command("compute", ((7, 5),), "P", "json"),
        Command("compute", ((7, 5),), "HHH", "json"),
        Command("compute", ((7, 5),), "euler", "latex"),
        Command("compute", ((7, 5),), "P", "text"),
        Command("paths", ((5, 3),), fmt="json"),
        Command("verify", ((5, 3),), fmt="json"),
        Command("verify", ((5, 3),), fmt="text"),
        Command("verify", range_pairs, fmt="json", extra=("--range", "msum<=7")),
        Command("compute", ((5, 3),), "P", "json", cached=True),
        Command("compute", ((5, 3),), "P", "json", primary=True, cached=True),
        Command("compute", ((7, 4),), "P", "json"),
    ]

    # each corruption maps the real outcome to a corrupted one
    def output(corrupt):
        return lambda o: dataclasses.replace(o, output=corrupt(o.output.decode()).encode())

    corruptions = [
        (0, "P json: one coefficient changed", output(bump_asymmetric_coefficient)),
        (1, "HHH json: one coefficient changed", output(bump_first_coefficient)),
        (2, "euler latex: one sign flipped", output(lambda s: s.replace(" + ", " - ", 1))),
        (3, "P text: one exponent changed", output(lambda s: s.replace("a^12", "a^11", 1))),
        (4, "paths json: one path dropped", output(lambda s: edit_json(s, lambda o: o.pop()))),
        (5, "verify json: leaf count changed",
         output(lambda s: edit_json(s, lambda o: o[0]["cross_check"].update(leaf_count=6)))),
        (6, "verify text: overall verdict changed", output(lambda s: s.replace("overall: pass", "overall: FAIL"))),
        (7, "verify --range json: one knot dropped", output(lambda s: edit_json(s, lambda o: o.pop(3)))),
        (9, "cache hit: one byte changed", output(lambda s: s.replace('"c": "1"', '"c": "2"', 1))),
        (9, "cache hit: warning on stderr",
         lambda o: dataclasses.replace(o, stderr=b"warning: discarding corrupt cache file\n")),
        (9, "cache hit: entry stored again",
         lambda o: dataclasses.replace(o, entry_stamp=(o.entry_stamp[0] + 1, o.entry_stamp[1]))),
        (10, "P json without HHH in the round: one q2 == t2 coefficient changed", output(bump_diagonal_coefficient)),
    ]
    table = checks.expected_values(k for c in cmds for k in c.knots)
    env = run.child_env()
    workdir = run.fresh_dir(run.WORK / f"selftest-{os.getpid()}")
    unnoticed = 0
    try:
        outcomes, _ = run.run_pass(cmds, workdir, env, traced=False)
        cache_dir = workdir / "cache"
        failed = [o for o in outcomes if o.returncode != 0]
        problems = run.check_pass(outcomes, cache_dir, table)
        if failed or problems:
            print(f"real outputs do not pass: {len(failed)} commands failed; {problems}")
            return 1
        print("real outputs pass")
        for index, label, corrupt in corruptions:
            changed = corrupt(outcomes[index])
            if changed == outcomes[index]:
                raise RuntimeError(f"corruption {label!r} left the outcome unchanged")
            bad = list(outcomes)
            bad[index] = changed
            found = run.check_pass(bad, cache_dir, table)
            unnoticed += not found
            print(f"{'rejected' if found else 'NOT REJECTED'}: {label}: {found[:1]}")
        (cache_dir / "stray.json").write_text("{}")
        found = run.check_pass(outcomes, cache_dir, table)
        unnoticed += not found
        print(f"{'rejected' if found else 'NOT REJECTED'}: cache directory with an extra entry: {found[:1]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if unnoticed else 0


if __name__ == "__main__":
    sys.exit(main())
