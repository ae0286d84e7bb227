import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import khr.cli as cli
import khr.verify
from khr.dyck import KnotParams
from khr.formula import superpolynomial
from khr.laurent import ONE, Invariant, invariant_from_json


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_trefoil_latex(self, capsys):
        code, out, _ = run(capsys, "compute", "3", "2", "--form", "P", "--format", "latex")
        assert code == 0
        assert out.strip() == (
            "\\frac{a (qt)^{-1/2} t + a (qt)^{1/2} t^{-1} - a^{2} (qt)^{-1/2}}{1-t}"
        )

    def test_unknot_text(self, capsys):
        code, out, _ = run(capsys, "compute", "1", "5", "--form", "P")
        assert code == 0
        assert out.strip() == "(1) / (1-t)"

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "compute", "3", "2", "--format", "json")
        assert code == 0
        assert invariant_from_json(json.loads(out)) == superpolynomial(KnotParams(3, 2))

    def test_hhh_and_euler_forms(self, capsys):
        code, hhh_out, _ = run(capsys, "compute", "3", "2", "--form", "HHH")
        assert code == 0 and "a*q^-1" in hhh_out
        code, euler_out, _ = run(capsys, "compute", "3", "2", "--form", "euler")
        assert code == 0 and euler_out.startswith("(-a")

    def test_link_rejected_with_exit_3(self, capsys):
        code, _, err = run(capsys, "compute", "4", "2")
        assert code == 3
        assert "gcd" in err

    def test_usage_error_exit_2(self, capsys):
        assert run(capsys, "compute", "3")[0] == 2
        assert run(capsys, "compute", "0", "2")[0] == 2
        assert run(capsys, "compute", "3", "2", "--form", "bogus")[0] == 2

    def test_max_leaves_guard(self, capsys):
        code, _, err = run(capsys, "compute", "8", "5", "--max-leaves", "10")
        assert code == 2
        assert "refusing" in err

    def test_max_leaves_must_be_positive(self, capsys):
        for command in (["compute", "3", "2"], ["paths", "3", "2"], ["verify", "3", "2"]):
            for bound in ("0", "-5"):
                assert run(capsys, *command, "--max-leaves", bound)[0] == 2

    def test_byte_determinism(self, capsys):
        first = run(capsys, "compute", "5", "3", "--format", "json")
        second = run(capsys, "compute", "5", "3", "--format", "json")
        assert first == second


class TestCache:
    def test_store_then_load(self, capsys, tmp_path):
        code, first, _ = run(capsys, "compute", "3", "2", "--cache-dir", str(tmp_path))
        assert code == 0
        files = list(tmp_path.glob("compute_*.json"))
        assert len(files) == 1
        code, second, _ = run(capsys, "compute", "3", "2", "--cache-dir", str(tmp_path))
        assert code == 0 and second == first

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: "{not json",
            lambda text: "[" * 100000,
            lambda text: text.replace('"one_minus_t_pow": 1', '"one_minus_t_pow": 1e400'),
        ],
        ids=["not-json", "too-deep", "power-overflows-int"],
    )
    def test_corrupt_file_recomputed_with_warning(self, capsys, tmp_path, corrupt):
        run(capsys, "compute", "3", "2", "--cache-dir", str(tmp_path))
        (victim,) = tmp_path.glob("compute_*.json")
        text = victim.read_text()
        victim.write_text(corrupt(text))
        assert victim.read_text() != text
        code, out, err = run(capsys, "compute", "3", "2", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "discarding corrupt cache" in err
        assert out.strip().startswith("(a*q^(-1/2)")
        # the overwrite repaired the entry
        assert json.loads(victim.read_text())["m"] == 3

    def test_version_bump_misses(self, capsys, tmp_path, monkeypatch):
        run(capsys, "compute", "3", "2", "--cache-dir", str(tmp_path))
        monkeypatch.setattr(cli, "CACHE_VERSION", "999.0")
        run(capsys, "compute", "3", "2", "--cache-dir", str(tmp_path))
        assert len(list(tmp_path.glob("compute_*.json"))) == 2

    def test_env_var_selects_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
        code, _, _ = run(capsys, "compute", "2", "3")
        assert code == 0
        assert len(list(tmp_path.glob("compute_*.json"))) == 1

    def test_cache_info_and_clear(self, capsys, tmp_path):
        run(capsys, "compute", "3", "2", "--cache-dir", str(tmp_path))
        code, out, _ = run(capsys, "cache", "info", "--cache-dir", str(tmp_path))
        assert code == 0 and "entries: 1" in out
        code, out, _ = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
        assert code == 0 and "removed 1" in out
        assert not list(tmp_path.glob("compute_*.json"))

    def test_clear_removes_temporary_files(self, capsys, tmp_path):
        run(capsys, "compute", "3", "2", "--cache-dir", str(tmp_path))
        (tmp_path / "tmpabc123.tmp").write_text('{"version"')
        code, out, _ = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
        assert code == 0 and "removed 1 entries and 1 temporary files" in out
        assert not list(tmp_path.iterdir())

    def test_clear_warns_on_entry_it_cannot_remove(self, capsys, tmp_path):
        run(capsys, "compute", "3", "2", "--cache-dir", str(tmp_path))
        stuck = tmp_path / f"compute_7_5_P_v{cli.CACHE_VERSION}.json"
        stuck.mkdir()
        code, out, err = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "removed 1 entries and 0 temporary files" in out
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"warning: could not remove {stuck}: ")
        assert list(tmp_path.iterdir()) == [stuck] and stuck.is_dir()

    def test_unreadable_entry_recomputed_with_warning(self, capsys, tmp_path):
        # a directory where the entry should be: reading and storing both
        # fail, and neither changes the printed result or the exit code
        (tmp_path / f"compute_7_5_P_v{cli.CACHE_VERSION}.json").mkdir()
        code, out, err = run(capsys, "compute", "7", "5", "--cache-dir", str(tmp_path))
        assert code == 0
        assert out == run(capsys, "compute", "7", "5")[1]
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("warning: discarding corrupt cache file")
        assert lines[1].startswith("warning: could not store cache file")
        assert [entry.name for entry in tmp_path.iterdir()] == [f"compute_7_5_P_v{cli.CACHE_VERSION}.json"]

    def test_file_as_cache_directory_warns_once(self, capsys, tmp_path):
        blocker = tmp_path / "F"
        blocker.touch()
        code, out, err = run(capsys, "compute", "7", "5", "--cache-dir", str(blocker))
        assert code == 0
        assert out == run(capsys, "compute", "7", "5")[1]
        assert err.startswith("warning: could not store cache file")
        assert err.count("\n") == 1
        assert blocker.read_text() == ""

    def test_cache_without_directory_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        assert run(capsys, "cache", "info")[0] == 2

    @pytest.mark.parametrize("action", ["info", "clear"])
    def test_cache_on_regular_file_is_usage_error(self, capsys, tmp_path, action):
        blocker = tmp_path / "F"
        blocker.write_text("kept")
        assert run(capsys, "cache", action, "--cache-dir", str(blocker)) == (
            2,
            "",
            f"error: {blocker} is not a directory\n",
        )
        assert blocker.read_text() == "kept"

    def test_cache_on_missing_directory_is_empty(self, capsys, tmp_path):
        missing = tmp_path / "D"
        assert run(capsys, "cache", "info", "--cache-dir", str(missing))[:2] == (
            0,
            f"cache directory: {missing}\nentries: 0\n",
        )
        assert run(capsys, "cache", "clear", "--cache-dir", str(missing))[:2] == (
            0,
            f"removed 0 entries and 0 temporary files from {missing}\n",
        )
        assert not missing.exists()


class TestPaths:
    def test_plain_listing(self, capsys):
        code, out, _ = run(capsys, "paths", "3", "2")
        assert code == 0
        assert out.splitlines() == ["NNEEE", "NENEE"]

    def test_json_with_stats(self, capsys):
        code, out, _ = run(capsys, "paths", "3", "2", "--with-stats", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data[0]["path"] == "NNEEE" and data[0]["area"] == 1
        assert data[1]["hplus"] == 1

    def test_closed_pipe_exits_141_quietly(self):
        # the 370 KB listing overflows any pipe buffer, so the writer meets
        # the closed pipe
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        with subprocess.Popen(
            [sys.executable, "-m", "khr", "paths", "11", "10"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert first == b"NNNNNNNNNNEEEEEEEEEEE\n"
        assert proc.returncode == 141
        assert err == b""


class TestVerify:
    def test_single_pair(self, capsys):
        code, out, _ = run(capsys, "verify", "3", "2")
        assert code == 0
        assert "overall: pass" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "3", "2", "--format", "json")
        assert code == 0
        (report,) = json.loads(out)
        assert report["overall_pass"] is True

    def test_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--range", "msum<=5", "--suite", "cross", "--suite", "catalan")
        assert code == 0
        assert out.count("overall: pass") == sum(1 for _ in _range_pairs(5))

    def test_range_refused_before_any_knot_runs(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run_suite", lambda params, **kwargs: ran.append(params))
        code, out, err = run(capsys, "verify", "--range", "msum<=32")
        assert code == 2 and not out
        assert "(13,11)" in err and "refusing" in err
        assert ran == []

    def test_large_range_refused_without_building_it(self, capsys, monkeypatch):
        # the range holds about 1.2 million knots; the walk must stop at the
        # first refusal, (13,11), not build them all first
        built = []
        validate = KnotParams.__post_init__

        def counting(params):
            built.append((params.m, params.n))
            if len(built) > 1000:
                raise RuntimeError("built more than 1000 knots")
            validate(params)

        monkeypatch.setattr(KnotParams, "__post_init__", counting)
        code, out, err = run(capsys, "verify", "--range", "msum<=2000")
        assert code == 2 and not out
        assert "(13,11)" in err and "refusing" in err
        assert built[-1] == (13, 11)

    def test_verify_default_bound_is_lower(self, capsys):
        # verify keeps every sweep leaf, so its default stops at 10^5 paths;
        # compute and paths keep 10^7
        parser = cli.build_parser()
        for command, bound in (("compute", 10**7), ("paths", 10**7), ("verify", 10**5)):
            assert parser.parse_args([command, "13", "11"]).max_leaves == bound
        code, out, err = run(capsys, "verify", "13", "11")
        assert code == 2 and not out
        assert "(13,11) has 104006 Dyck paths" in err and "refusing" in err

    def test_empty_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--range", "msum<=1")
        assert code == 2 and not out
        assert "selects no knot" in err

    def test_bad_range_spec(self, capsys):
        for spec in ("k<=4", "msum<=abc", "msum<="):
            code, out, err = run(capsys, "verify", "--range", spec)
            assert code == 2 and out == ""
            assert err == f"error: range must look like 'msum<=K', got {spec!r}\n"

    def test_range_and_pair_conflict(self, capsys):
        assert run(capsys, "verify", "3", "2", "--range", "msum<=4")[0] == 2

    def test_missing_arguments(self, capsys):
        assert run(capsys, "verify")[0] == 2

    def test_link_exit_code(self, capsys):
        assert run(capsys, "verify", "4", "2")[0] == 3


class TestVerifyFailure:
    """verify reports a broken evaluator: FAIL marks, exit 1, and a false
    overall_pass; a failing symmetry check alone can be demoted."""

    @staticmethod
    def break_closed_form(monkeypatch):
        monkeypatch.setattr(khr.verify, "hhh_direct", lambda params: Invariant(ONE, 1))

    @staticmethod
    def break_symmetry(monkeypatch):
        real = khr.verify.superpolynomial

        def lopsided(params):
            return real(params) if params.m > params.n else Invariant(ONE, 1)

        monkeypatch.setattr(khr.verify, "superpolynomial", lopsided)

    def test_text_marks_failures(self, capsys, monkeypatch):
        self.break_closed_form(monkeypatch)
        self.break_symmetry(monkeypatch)
        code, out, _ = run(capsys, "verify", "3", "2")
        assert code == 1
        lines = out.splitlines()
        assert lines[1].endswith(": pass")  # the identities read no evaluator
        assert lines[2] == "  cross-check (closed form vs sweep), 2 leaves: FAIL"
        assert lines[3] == "  catalan specialization: expected 2, got 1: FAIL"
        assert lines[4] == "  symmetry [external property]: (m,n)<->(n,m) FAIL, q<->t pass"
        assert lines[-1] == "  overall: FAIL"

    def test_json_overall_false(self, capsys, monkeypatch):
        self.break_closed_form(monkeypatch)
        self.break_symmetry(monkeypatch)
        code, out, _ = run(capsys, "verify", "3", "2", "--format", "json")
        assert code == 1
        (report,) = json.loads(out)
        assert report["overall_pass"] is False
        assert report["cross_check"]["pass"] is False
        assert report["cross_check"]["total_match"] is False
        assert report["catalan"]["pass"] is False
        assert report["symmetry"]["pass"] is False
        assert report["identities"]["pass"] is True

    def test_symmetry_failure_demoted_to_warning(self, capsys, monkeypatch):
        self.break_symmetry(monkeypatch)
        code, out, _ = run(capsys, "verify", "3", "2")
        assert code == 1 and out.splitlines()[-1] == "  overall: FAIL"
        code, out, _ = run(capsys, "verify", "3", "2", "--external-as-warnings")
        assert code == 0
        assert "symmetry [external property] (warning only): (m,n)<->(n,m) FAIL" in out
        assert out.splitlines()[-1] == "  overall: pass"
        code, out, _ = run(capsys, "verify", "3", "2", "--external-as-warnings", "--format", "json")
        assert code == 0
        (report,) = json.loads(out)
        assert report["overall_pass"] is True and report["external_strict"] is False
        assert report["symmetry"]["pass"] is False


def _range_pairs(bound):
    import math

    for s in range(2, bound + 1):
        for m in range(1, s):
            if math.gcd(m, s - m) == 1 and m >= s - m:
                yield (m, s - m)


class TestSizeGuard:
    """A path count of 10^L or more, L being the integer string conversion
    limit (4300 digits by default), is refused before it is computed."""

    def test_unprintable_count_refused_fast(self, capsys):
        for argv in (
            ("compute", "3000000", "2999999"),
            ("paths", "3000000", "2999999"),
            ("verify", "3000000", "2999999"),
            ("catalan", "3000000", "2999999"),
            ("compute", "300000", "299999"),
        ):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1, argv
            assert code == 2 and not out, argv
            assert "integer string limit; refusing" in err and "2999" in err, argv

    def test_limit_boundary(self, capsys, monkeypatch):
        # (7153,7152) has a 4300-digit count, (7154,7153) one of 4301 digits
        code, out, _ = run(capsys, "catalan", "7153", "7152")
        assert code == 0 and len(out.split()[1]) == 4300
        code, out, err = run(capsys, "catalan", "7154", "7153")
        assert code == 2 and not out
        assert "at least 10^4300 Dyck paths" in err
        # a limit switched off (0) falls back to the default
        monkeypatch.setattr(cli.sys, "get_int_max_str_digits", lambda: 0)
        code, _, err = run(capsys, "catalan", "7154", "7153")
        assert code == 2 and "at least 10^4300 Dyck paths" in err


class TestCatalanCommand:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "catalan", "5", "3")
        assert code == 0
        assert "7 paths" in out

    def test_oversized_check_refused(self, capsys):
        code, out, err = run(capsys, "catalan", "40", "39", "--check")
        assert code == 2 and not out
        assert "refusing" in err

    def test_oversized_count_still_printed(self, capsys):
        code, out, _ = run(capsys, "catalan", "40", "39")
        assert code == 0 and "paths" in out

    def test_check_json(self, capsys):
        code, out, _ = run(capsys, "catalan", "5", "2", "--check", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {
            "check_pass": True,
            "m": 5,
            "n": 2,
            "paths": 3,
            "specialization": 3,
        }
