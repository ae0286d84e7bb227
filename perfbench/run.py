"""Fresh-process benchmark of the khr command line.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 30 --trace 0

Each workload is one round of khr invocations, generated from the seed.
Every invocation runs in a fresh process, one at a time, and the run repeats
whole rounds until its time is spent.  Every output is checked with
perfbench/checks.py.  The last line of standard output is one JSON object:
with --trace 0 it holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced pass (perfbench/tracer.py) that repeats the same
commands.  The line before it records the machine and the sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
TRACER = Path(__file__).resolve().parent / "tracer.py"

# set-up takes about 2 ms and moves with the machine's load, so it is timed
# a few times before the first round and again between commands, spread over the run
SETUP_REPEATS = 3
STARTUP_PROBES = 5
COMMAND_LIMIT_S = 120  # a hung command is killed early enough for the run to end within 180 s


@dataclass(frozen=True)
class Command:
    """One khr invocation and what its output must satisfy."""

    kind: str  # compute, paths or verify
    knots: tuple[tuple[int, int], ...]
    form: str = ""
    fmt: str = "text"
    extra: tuple[str, ...] = ()
    primary: bool = False  # counts in primary_s; in the cache stream, a request that should hit
    cached: bool = False

    def argv(self, cache_dir: Path | None) -> list[str]:
        if self.kind == "compute":
            (m, n), = self.knots
            args = ["compute", str(m), str(n), "--form", self.form, "--format", self.fmt]
            if self.cached:
                args += ["--cache-dir", str(cache_dir)]
            return args
        if self.kind == "paths":
            (m, n), = self.knots
            return ["paths", str(m), str(n), "--with-stats", "--format", self.fmt]
        if self.extra:
            return ["verify", *self.extra, "--format", self.fmt]
        (m, n), = self.knots
        return ["verify", str(m), str(n), "--format", self.fmt]

    @property
    def key(self) -> tuple:
        return (self.knots, self.form)


# -- workloads ---------------------------------------------------------------------

# A ladder of compute commands: every rung but the top runs all three forms,
# the formats rotate, and (9,7) HHH and the top rung's P run in text and json
# so the two can be compared.  The top rung's P is the workload's primary
# command; running it twice per round doubles its samples.
CLOSED_FORM = [
    ((7, 5), "P", "text"), ((7, 5), "HHH", "json"), ((7, 5), "euler", "latex"),
    ((8, 7), "P", "json"), ((8, 7), "HHH", "latex"), ((8, 7), "euler", "text"),
    ((9, 7), "P", "latex"), ((9, 7), "HHH", "text"), ((9, 7), "HHH", "json"),
    ((9, 7), "euler", "json"),
    ((10, 9), "P", "text"), ((10, 9), "HHH", "json"),
]
TOP_RUNG = (11, 10)
PATHS_RUNG = (9, 7)

# Single-knot verifies and one range; the largest knot, the primary command,
# and the range run in both formats.
CROSS_CHECK = [((7, 5), "text"), ((8, 5), "json"), ((8, 7), "text")]
TOP_VERIFY = (9, 7)
RANGE_BOUND = 12

# Cache stream: (knot, form, format, requests per round).  The first request
# for a key misses and stores; the rest hit.  Large entries get most hits.
CACHE_KEYS = [
    ((11, 9), "P", "json", 10),
    ((10, 9), "HHH", "text", 6),
    ((9, 8), "euler", "latex", 5),
    ((9, 8), "P", "json", 4),
    ((8, 7), "P", "text", 4),
    ((7, 5), "HHH", "json", 4),
    ((7, 5), "euler", "text", 3),
]


def closed_form_round(rng: random.Random) -> list[Command]:
    cmds = [Command("compute", (k,), form, fmt) for k, form, fmt in CLOSED_FORM]
    cmds.append(Command("paths", (PATHS_RUNG,), fmt="json"))
    cmds += [Command("compute", (TOP_RUNG,), "P", fmt, primary=True) for fmt in ("json", "text")]
    rng.shuffle(cmds)
    return cmds


def cross_check_round(rng: random.Random) -> list[Command]:
    cmds = [Command("verify", (k,), fmt=fmt) for k, fmt in CROSS_CHECK]
    pairs = tuple(checks.coprime_range(RANGE_BOUND))
    for fmt in ("text", "json"):
        cmds.append(Command("verify", (TOP_VERIFY,), fmt=fmt, primary=True))
        cmds.append(Command("verify", pairs, fmt=fmt, extra=("--range", f"msum<={RANGE_BOUND}")))
    rng.shuffle(cmds)
    return cmds


def cache_round(rng: random.Random) -> list[Command]:
    stream = [(k, form, fmt) for k, form, fmt, count in CACHE_KEYS for _ in range(count)]
    rng.shuffle(stream)
    seen: set = set()
    cmds = []
    for k, form, fmt in stream:
        hit = (k, form) in seen
        seen.add((k, form))
        cmds.append(Command("compute", (k,), form, fmt, primary=hit, cached=True))
    return cmds


WORKLOADS = {
    "closed-form": closed_form_round,
    "cross-check": cross_check_round,
    "cache": cache_round,
}


# -- running commands -------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "KHR_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Outcome:
    cmd: Command
    seconds: float
    returncode: int
    maxrss_kb: int
    output: bytes
    stderr: bytes
    entry_bytes: int = 0  # size of the cache entry the command read or wrote
    entry_stamp: tuple[int, int] | None = None  # (st_ino, st_mtime_ns) of that entry afterwards


def spawn(argv: list[str], workdir: Path, env: dict[str, str]) -> tuple[float, int, int, bytes, bytes]:
    """Run one process to its end; wall seconds, exit code, max RSS (KB), stdout, stderr."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(COMMAND_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes()


def khr_argv(args: list[str], trace_file: Path | None) -> list[str]:
    if trace_file is None:
        return [sys.executable, "-m", "khr", *args]
    return [sys.executable, str(TRACER), str(trace_file), "--", *args]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_pass(
    cmds: list[Command], workdir: Path, env: dict[str, str], traced: bool, between: Callable[[], None] | None = None
) -> tuple[list[Outcome], list[Path]]:
    """One round in fresh processes, with a fresh cache directory; `between`
    runs before each command, outside its timing."""
    cache_dir = fresh_dir(workdir / "cache")
    trace_dir = fresh_dir(workdir / "traces") if traced else None
    entries: dict[tuple, Path] = {}
    outcomes, traces = [], []
    for i, cmd in enumerate(cmds):
        trace_file = trace_dir / f"{i}.trace" if traced else None
        if between is not None:
            between()
        before = set(cache_dir.iterdir()) if cmd.cached else set()
        seconds, code, rss, out, err = spawn(khr_argv(cmd.argv(cache_dir), trace_file), workdir, env)
        outcome = Outcome(cmd, seconds, code, rss, out, err)
        if cmd.cached and code == 0:
            if cmd.key not in entries:
                new = set(cache_dir.iterdir()) - before
                if len(new) == 1:
                    entries[cmd.key] = new.pop()
            entry = entries.get(cmd.key)
            if entry is not None and entry.exists():
                stat = entry.stat()
                outcome.entry_bytes = stat.st_size
                outcome.entry_stamp = (stat.st_ino, stat.st_mtime_ns)
        outcomes.append(outcome)
        if trace_file is not None and trace_file.exists():
            traces.append(trace_file)
    return outcomes, traces


# -- checking outputs ----------------------------------------------------------------


def check_pass(outcomes: list[Outcome], cache_dir: Path, table: dict[tuple[int, int], checks.Expected]) -> list[str]:
    """Problems with the outputs of one pass; commands that failed are skipped."""
    problems = []
    values: dict[tuple, list] = {}
    miss_output: dict[tuple, bytes] = {}
    miss_stamp: dict[tuple, tuple[int, int] | None] = {}
    for o in outcomes:
        cmd = o.cmd
        if o.returncode != 0:
            continue
        text = o.output.decode()
        try:
            if cmd.kind == "compute":
                if cmd.cached and cmd.key in miss_output:
                    if o.output != miss_output[cmd.key]:
                        problems.append(f"cache hit for {cmd.key} printed other bytes than its miss")
                    # a hit that found its entry unusable warns, recomputes and
                    # stores again; cache_store's os.replace gives a new inode
                    if o.stderr:
                        problems.append(f"cache hit for {cmd.key} wrote to stderr: {o.stderr[:200]!r}")
                    if o.entry_stamp is None or o.entry_stamp != miss_stamp[cmd.key]:
                        problems.append(f"cache hit for {cmd.key} rewrote or lost the entry its miss stored")
                    continue
                if cmd.cached:
                    miss_output[cmd.key] = o.output
                    miss_stamp[cmd.key] = o.entry_stamp
                (m, n), = cmd.knots
                value = checks.parse_invariant(text, cmd.fmt)
                problems += checks.FORM_CHECKS[cmd.form](*value, m, n, table[(m, n)])
                values.setdefault((m, n), {}).setdefault(cmd.form, []).append((cmd.fmt, value))
            elif cmd.kind == "paths":
                (m, n), = cmd.knots
                problems += checks.check_paths_json(text, m, n, table[(m, n)])
            elif cmd.fmt == "json":
                problems += checks.check_verify_json(text, list(cmd.knots), table)
            else:
                problems += checks.check_verify_text(text, list(cmd.knots), table)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            problems.append(f"{' '.join(cmd.argv(cache_dir))}: unreadable output ({exc})")
    for (m, n), forms in values.items():
        first = {}
        for form, found in forms.items():
            fmt0, value0 = found[0]
            for fmt, value in found[1:]:
                if value != value0:
                    problems.append(f"{form}({m},{n}) reads differently in {fmt} and {fmt0}")
            first[form] = value0
        problems += checks.check_forms_agree(first, m, n)
    if any(o.cmd.cached for o in outcomes):
        keys = {o.cmd.key for o in outcomes if o.cmd.cached}
        files = sorted(p.name for p in cache_dir.iterdir())
        if len(files) != len(keys) or any(not name.endswith(".json") for name in files):
            problems.append(f"cache holds {files} for {len(keys)} distinct (knot, form) keys")
    return problems


# -- metrics ----------------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def setup(workload: str, seed: int, workdir: Path) -> tuple[list[Command], dict, float]:
    """Make the round's commands, the values their outputs must reproduce
    and a fresh cache directory; returns these and the time taken."""
    start = time.perf_counter()
    cmds = WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
    table = checks.expected_values(k for c in cmds for k in c.knots)
    fresh_dir(workdir / "cache")
    return cmds, table, time.perf_counter() - start


def warm_up(workdir: Path, env: dict[str, str]) -> None:
    """Start khr once, untimed, so its bytecode and files are warm."""
    _, code, _, out, err = spawn(khr_argv(["--version"], None), workdir, env)
    if code != 0 or not out.startswith(b"khr "):
        raise RuntimeError(f"khr --version failed ({code}): {err.decode(errors='replace')}")


def machine_info(rounds: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "khr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rounds": rounds,
    }


def end_to_end(rounds: list[list[Outcome]], setups: list[float]) -> tuple[dict, dict]:
    primary = [o.seconds for r in rounds for o in r if o.cmd.primary]
    # the other commands span several sizes, so a median over them would jump
    # between size clusters; the mean over a round's fixed set does not
    secondary = [statistics.mean(o.seconds for o in r if not o.cmd.primary) for r in rounds]
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median([sum(o.seconds for o in r) for r in rounds]), "s"),
        "primary_s": (median(primary), "s"),
        "secondary_s": (median(secondary), "s"),
        "peak_rss_mb": (median([max(o.maxrss_kb for o in r) / 1024 for r in rounds]), "MB"),
    }
    samples = {"primary": len(primary), "secondary": sum(1 for r in rounds for o in r if not o.cmd.primary)}
    if len(primary) >= 100:
        samples["primary_p90_s"] = statistics.quantiles(primary, n=10)[-1]
    return metrics, samples


def per_layer(rounds: list[tuple[list[Outcome], list[Outcome], dict, list[float]]]) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced passes: counts from the first round (every
    round must repeat them exactly), times as medians over rounds."""
    summaries = []
    problems = []
    for plain, traced, s, probes in rounds:
        cmds = [o.cmd for o in traced]
        hits = sum(1 for c in cmds if c.cached and c.primary)
        if s["cli.cache_hits"] != hits:
            problems.append(f"traced pass hit the cache {s['cli.cache_hits']} times, the stream has {hits} repeats")
        requested = sum(
            checks.dyck_count(m, n)
            for c in cmds
            if c.kind == "verify" or (c.kind == "compute" and not (c.cached and c.primary))
            for m, n in c.knots
        )
        knots = sum(len(c.knots) for c in cmds if c.kind == "verify")
        s["formula.summands_per_path"] = s["formula.summands"] / requested if requested else 0.0
        s["sweep.evaluations_per_knot"] = s["sweep.evaluations"] / knots if knots else 0.0
        attempts = s["laurent.divide_attempts"]
        s["laurent.divide_ok_ratio"] = s.pop("laurent.divide_ok") / attempts if attempts else 0.0
        s["cli.cache_bytes"] = sum(o.entry_bytes for o in traced)
        s["cli.output_bytes"] = sum(len(o.output) for o in traced)
        s["cli.startup_s"] = median(probes)
        s["trace.overhead"] = sum(o.seconds for o in traced) / sum(o.seconds for o in plain)
        summaries.append(s)
    metrics = {}
    for name, value in summaries[0].items():
        if isinstance(value, int) or name.endswith(("_per_path", "_per_knot", "_ratio")):
            if any(s[name] != value for s in summaries[1:]):
                problems.append(f"{name} differs between rounds: {[s[name] for s in summaries]}")
            unit = "count" if isinstance(value, int) else "ratio"
            metrics[name] = (value, "bytes" if name.endswith("_bytes") else unit)
        else:
            unit = "x" if name == "trace.overhead" else "s"
            metrics[name] = (median([s[name] for s in summaries]), unit)
    return metrics, problems


def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    env = child_env()
    workdir = fresh_dir(WORK / f"{workload}-{os.getpid()}")
    try:
        setups = []

        def time_setups() -> None:
            # in a directory of its own, so the pass's cache directory is left alone
            for _ in range(SETUP_REPEATS):
                setups.append(setup(workload, seed, workdir / "setup")[-1])

        cmds, table, _ = setup(workload, seed, workdir)
        time_setups()
        warm_up(workdir, env)
        start = time.perf_counter()
        durations: list[float] = []
        plain_rounds, traced_rounds = [], []
        problems: list[str] = []
        attempted = failed = 0
        while not durations or time.perf_counter() - start + max(durations) <= seconds:
            round_start = time.perf_counter()
            plain, _ = run_pass(cmds, workdir, env, traced=False, between=time_setups)
            problems += check_pass(plain, workdir / "cache", table)
            passes = [plain]
            if traced:
                probes = [spawn(khr_argv(["--version"], None), workdir, env) for _ in range(STARTUP_PROBES)]
                attempted += len(probes)
                failed += sum(1 for p in probes if p[1] != 0)
                traced_pass, traces = run_pass(cmds, workdir, env, traced=True)
                problems += check_pass(traced_pass, workdir / "cache", table)
                passes.append(traced_pass)
                traced_rounds.append((plain, traced_pass, tracer.summarize(traces), [p[0] for p in probes]))
            for outcomes in passes:
                attempted += len(outcomes)
                for o in outcomes:
                    if o.returncode != 0:
                        failed += 1
                        print(f"failed ({o.returncode}): khr {' '.join(o.cmd.argv(workdir / 'cache'))}\n"
                              f"{o.stderr.decode(errors='replace')[-2000:]}", file=sys.stderr)
            plain_rounds.append(plain)
            durations.append(time.perf_counter() - round_start)
        if traced:
            metrics, trace_problems = per_layer(traced_rounds)
            problems += trace_problems
            samples = {}
        else:
            metrics, samples = end_to_end(plain_rounds, setups)
        info = machine_info(len(plain_rounds))
        info["samples"] = samples
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (SRC / "khr" / "__init__.py").is_file():
        print(f"error: no khr sources under {SRC}", file=sys.stderr)
        return 2
    try:
        info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"info": {"workload": args.workload, "seed": args.seed, "trace": args.trace, **info}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
