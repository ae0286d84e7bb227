"""Golden command-line outputs: the sha256 of stdout and of stderr, and the
exit code, of the commands the benchmark runs and a few more, each run in
process through cli.run.

A change that must not alter any output passes this test unchanged.  A
change meant to alter output regenerates the table with

    PYTHONPATH=src python -m tests.test_golden_cli

pastes it over GOLDEN, and names the entries that changed in CHANGES.md.
"""

import contextlib
import hashlib
import io
import tempfile

import khr.cli as cli

# the closed-form ladder, as the benchmark's closed-form round runs it
CLOSED_FORM = [
    f"compute {m} {n} --form {form} --format {fmt}"
    for (m, n), form, fmt in [
        ((7, 5), "P", "text"), ((7, 5), "HHH", "json"), ((7, 5), "euler", "latex"),
        ((8, 7), "P", "json"), ((8, 7), "HHH", "latex"), ((8, 7), "euler", "text"),
        ((9, 7), "P", "latex"), ((9, 7), "HHH", "text"), ((9, 7), "HHH", "json"),
        ((9, 7), "euler", "json"),
        ((10, 9), "P", "text"), ((10, 9), "HHH", "json"),
        ((11, 10), "P", "json"), ((11, 10), "P", "text"),
    ]
]

# the benchmark's cross-check round
CROSS_CHECK = [
    "verify 7 5 --format text",
    "verify 8 5 --format json",
    "verify 8 7 --format text",
    "verify 9 7 --format text",
    "verify 9 7 --format json",
    "verify --range msum<=12 --format text",
    "verify --range msum<=12 --format json",
]

OTHERS = [
    "paths 9 7 --with-stats --format json",
    "paths 9 7 --with-stats --format text",
    "paths 5 3 --format text",
    "paths 5 3 --format json",
    "verify 5 3 --external-as-warnings",
    "catalan 9 7 --check",
]

# the same compute twice over one fresh cache directory: a miss, then a hit
CACHED = "compute 11 9 --form P --format json --cache-dir {cache}"

COMMANDS = CLOSED_FORM + CROSS_CHECK + OTHERS + [CACHED, CACHED]


def digests(command: str, cache: str) -> tuple[str, str, int]:
    """(sha256 of stdout, sha256 of stderr, exit code) of one cli.run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(command.format(cache=cache).split())
    return (
        hashlib.sha256(out.getvalue().encode()).hexdigest(),
        hashlib.sha256(err.getvalue().encode()).hexdigest(),
        code,
    )


def table(cache: str) -> list[tuple[str, str, str, int]]:
    return [(command, *digests(command, cache)) for command in COMMANDS]


EMPTY = hashlib.sha256(b"").hexdigest()

# (command, stdout sha256, stderr sha256, exit code), in COMMANDS order
GOLDEN = [
    ("compute 7 5 --form P --format text",
     "b62b826617cd6c6d6d6749d0011cff324388e7f6cfe6cca41bac6de6e013f9c5", EMPTY, 0),
    ("compute 7 5 --form HHH --format json",
     "ff35f71d07c076fd7ac0ca1369e7e53f4bc560c2eeb6cdb5dfefc2ebe3697a28", EMPTY, 0),
    ("compute 7 5 --form euler --format latex",
     "d09541f72238eb694beee9f6c28aa25ca8292e643a31016a44e7998d62ae8cde", EMPTY, 0),
    ("compute 8 7 --form P --format json",
     "462ae36c52491c0b31b793163cce66d65bdfedf480497db37eda7bfc908d3c92", EMPTY, 0),
    ("compute 8 7 --form HHH --format latex",
     "28b8f62fb903cf0629cc435eee3e6965b48cc4a46b01ba4af688af47266206db", EMPTY, 0),
    ("compute 8 7 --form euler --format text",
     "9e057ed5df2327984bf610961c4141d0739cc5f223530780bbe5718417af45ac", EMPTY, 0),
    ("compute 9 7 --form P --format latex",
     "78e88697aa422fbe6412e09107de8b94c95694384e60ce44d88f1ca65b9aa6ee", EMPTY, 0),
    ("compute 9 7 --form HHH --format text",
     "019dab862cbff6339d445cff21600fa9e33480f9dcdd2dfbd8d936b71201112e", EMPTY, 0),
    ("compute 9 7 --form HHH --format json",
     "c4049a4e76fba021df910eae4c24e3acc96cc8a40378087cc28107cac4221995", EMPTY, 0),
    ("compute 9 7 --form euler --format json",
     "c079fbaa13fcf0a13018a14c88c21c6e6618c244d4fe93e75b76b84669ec7ba2", EMPTY, 0),
    ("compute 10 9 --form P --format text",
     "1783ea4f7b8ef8a26feee2620d67ead8cff9a18e3349d670092474529484602b", EMPTY, 0),
    ("compute 10 9 --form HHH --format json",
     "9b4bc6ef34379ca596dadac758c9fc39f3add319907f11de55ace7a2d0bf2a57", EMPTY, 0),
    ("compute 11 10 --form P --format json",
     "7e42fefdcd183b151d242e2492a5e1d8f300faf12eabceabd2b99e217df971d7", EMPTY, 0),
    ("compute 11 10 --form P --format text",
     "262e17e8176f2d672de959ceacb84121c3ab23a5701444b2660bc63fdbda6ece", EMPTY, 0),
    ("verify 7 5 --format text",
     "f69b014a995ef073b1d2cdbe6ed573b9b89c54c590319979b74478fa76fedca5", EMPTY, 0),
    ("verify 8 5 --format json",
     "8bffaa2388eef04c6677149f0fb6226a491aed7f290090d707dd2d96ad622c6a", EMPTY, 0),
    ("verify 8 7 --format text",
     "b10f04c5b33e37df686fd7bc63b3efe1d3b49066896d7a4c76c70890e650457a", EMPTY, 0),
    ("verify 9 7 --format text",
     "9e98c84c2118bc1ac88a17d18890b2738c91764995601253e1cbcb5738f5cbda", EMPTY, 0),
    ("verify 9 7 --format json",
     "c5b8f0402fd86c6153b03d2b9c8f40b9818a84afcaa111493be81bf7fbb78e1e", EMPTY, 0),
    ("verify --range msum<=12 --format text",
     "460af3b47b705eb45e7849e12298bb103e0a6be4a02f63584a589e7eb5e6152c", EMPTY, 0),
    ("verify --range msum<=12 --format json",
     "ded991f91a9870604c96ba618306405db756d87069ec5336553f48047b9db003", EMPTY, 0),
    ("paths 9 7 --with-stats --format json",
     "38a632aaa5feb59719b8065a2b7294a1b8b672fa3883f40992b9cd0dafb87a81", EMPTY, 0),
    ("paths 9 7 --with-stats --format text",
     "439468d5d2c5db633feeac8597db236630990162b13e19a3288829dea7c4fd02", EMPTY, 0),
    ("paths 5 3 --format text",
     "11c0e0665fd64f61375a2a26b74249977e3fc9ca2a7cea0d2c629761ccc6a8ae", EMPTY, 0),
    ("paths 5 3 --format json",
     "0e4d395b5c77bdcca8ba7eb39cff9b635db9820a333942b01b4f21bce62d3545", EMPTY, 0),
    ("verify 5 3 --external-as-warnings",
     "93c79133e00d882b86f8991b13e23d573fefb0c330432abcc8a1babe6ffa1536", EMPTY, 0),
    ("catalan 9 7 --check",
     "e84e78f9d68c37118856b16e823d02dcd06875e0f73242e48a5fb19276d6fbfd", EMPTY, 0),
    ("compute 11 9 --form P --format json --cache-dir {cache}",
     "3382b38fc2a42dc07479ee875a226d42558f39adfee1daa7e64fab1362524315", EMPTY, 0),
    ("compute 11 9 --form P --format json --cache-dir {cache}",
     "3382b38fc2a42dc07479ee875a226d42558f39adfee1daa7e64fab1362524315", EMPTY, 0),
]


def test_golden_outputs(tmp_path):
    assert [row[0] for row in GOLDEN] == COMMANDS
    assert table(str(tmp_path)) == GOLDEN
    assert len(list(tmp_path.glob("compute_11_9_P_*.json"))) == 1


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as cache:
        rows = table(cache)
    print("GOLDEN = [")
    for command, out, err, code in rows:
        print(f'    ("{command}",\n     "{out}", {"EMPTY" if err == EMPTY else repr(err)}, {code}),')
    print("]")
