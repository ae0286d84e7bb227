"""The runnable scripts and the benchmark tracer keep working against the
package: the scripts run to completion, every function the tracer wraps
still exists under the name it looks up, and a traced verify counts the
sweep's rule steps."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import khr

SRC = str(Path(khr.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]


def run_script(path, *args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, str(ROOT / path), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestScripts:
    def test_superpolynomial_table_json(self):
        result = run_script("scripts/superpolynomial_table.py", "--max-sum", "7", "--json")
        assert result.returncode == 0, result.stderr
        rows = json.loads(result.stdout)
        assert {(row["m"], row["n"]) for row in rows} >= {(3, 2), (5, 2), (4, 3)}

    def test_profile_ratio_survey(self):
        # the trefoil's header and the lines below it, without and with --per-leaf
        header = "T(3,2): 2 leaves, 2 distinct ratios, shared=no, single-interval prediction q^(-1/2)"
        for flags, trefoil in (
            ((), ["    ratios: q, q^(3/2)"]),
            (("--per-leaf",), ["    NNEEE: q", "    NENEE: q^(3/2)"]),
        ):
            result = run_script("scripts/profile_ratio_survey.py", "--max-sum", "7", *flags)
            assert result.returncode == 0, result.stderr
            assert "pairs share one global monomial" in result.stdout
            lines = result.stdout.splitlines()
            start = lines.index(header) + 1
            assert lines[start : start + len(trefoil)] == trefoil


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = []
    for span in (*tracer.SELF_TIME, *tracer.INCLUSIVE_TIME):
        module_name, *attrs = span.split(".")
        owner = importlib.import_module(f"khr.{module_name}")
        for attr in attrs:
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(span)
    assert missing == []


def test_tracer_sees_every_rule_step(tmp_path):
    # the sweep steps every event through apply_rule, which classifies it
    # once, so the traced counts of the two agree
    trace = tmp_path / "trace"
    result = run_script("perfbench/tracer.py", str(trace), "--", "verify", "5", "3")
    assert result.returncode == 0, result.stderr
    metrics = load_tracer().summarize([trace])
    assert metrics["sweep.rule_firings"] == metrics["sweep.classify_calls"] > 0
