"""The runnable scripts, the README's Library example and Command line
block, and the benchmark tracer keep working against the package: the
scripts, the example and each command run to completion, every function the
tracer wraps still exists under the name it looks up, and a traced verify
counts the sweep's rule steps."""

import importlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import khr
import khr.cli as cli

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


def test_readme_library_block_runs():
    # the README's Library example must keep naming real functions and fields
    text = (ROOT / "README.md").read_text()
    start = text.index("```python\n", text.index("## Library")) + len("```python\n")
    block = text[start : text.index("```", start)]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert [str(leaf.path) for leaf in namespace["result"].leaves] == ["NNEEE", "NENEE"]


def test_readme_command_line_block_runs(tmp_path, capsys):
    # each command the README shows exits 0, its cache pointed at tmp_path
    text = (ROOT / "README.md").read_text()
    start = text.index("```\n", text.index("## Command line")) + len("```\n")
    block = text[start : text.index("```", start)]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert all(argv[0] == "khr" for argv in commands)
    for argv in commands:
        if "--cache-dir" in argv:
            argv[argv.index("--cache-dir") + 1] = str(tmp_path)
        code = cli.run(argv[1:])
        assert code == 0, (argv, capsys.readouterr().err)
    assert len(commands) == 8


def test_console_script_resolves():
    # [project.scripts] names the entry point an installed khr runs, and
    # requires-python the oldest Python it runs on
    import tomllib  # Python 3.11+, as the tier-1 jobs are

    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    # cli._path_count reads sys.get_int_max_str_digits, new in 3.10.7
    assert project["requires-python"] == ">=3.10.7"
    scripts = project["scripts"]
    assert list(scripts) == ["khr"]
    module_name, _, attr = scripts["khr"].partition(":")
    target = getattr(importlib.import_module(module_name), attr)
    assert callable(target) and target is cli.main


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
