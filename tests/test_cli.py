import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symchar
from symchar import cli
from symchar.cli import main
from symchar.oracle import GradedTruncation, truncated_molien
from symchar.rootsys import from_label
from symchar.weightsys import weight_system

PACKAGE_DIR = Path(symchar.__file__).parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_char_json(capsys):
    code, out, _ = run_cli(capsys, "char", "--algebra", "A1", "--lambda", "2", "--N", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"] == "A1"
    assert payload["N"] == 4
    by_weight = {tuple(item["weight"]): item["mult"] for item in payload["character"]}
    assert by_weight[(0,)] == 3
    assert by_weight[(8,)] == 1
    assert len(by_weight) == 9


def test_char_text(capsys):
    code, out, _ = run_cli(
        capsys, "char", "--algebra", "A1", "--lambda", "2", "--N", "4", "--format", "text"
    )
    assert code == 0
    assert out.strip() == "q^8 + q^6 + 2*q^4 + 2*q^2 + 3 + 2*q^-2 + 2*q^-4 + q^-6 + q^-8"


def test_mult(capsys):
    code, out, _ = run_cli(
        capsys, "mult", "--algebra", "A1", "--lambda", "2", "--N", "4", "--mu", "2",
        "--format", "text",
    )
    assert code == 0
    assert out.strip() == "2"


def test_pfd_includes_order_two(capsys):
    code, out, _ = run_cli(capsys, "pfd", "--algebra", "A2", "--lambda", "1,1")
    assert code == 0
    payload = json.loads(out)
    orders = {(tuple(term["weight"]), term["order"]) for term in payload["terms"]}
    assert ((0, 0), 1) in orders
    assert ((0, 0), 2) in orders


def test_weights(capsys):
    code, out, _ = run_cli(capsys, "weights", "--algebra", "A2", "--lambda", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 8
    assert {"weight": [0, 0], "mult": 2} in payload["weights"]


def test_orbits(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--algebra", "A1", "--lambda", "3", "--N", "4")
    assert code == 0
    payload = json.loads(out)
    assert [s["dominant_weight"] for s in payload["summands"]] == [[1], [3]]


def test_vpart(capsys):
    code, out, _ = run_cli(
        capsys, "vpart", "--algebra", "A1", "--lambda", "2", "--max-n", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [[2, 0, -2], [1, 1, 1]]
    assert payload["all_pass"] is True


def test_verify_quick(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--case", "A1", "--max-n", "3", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert rows and all(row["status"] == "pass" for row in rows)
    checks = {row["check"] for row in rows}
    assert checks == {"coefficient-sum-1", "pfd-vs-molien", "pfd-vs-adams"}


def test_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "pfd", "--algebra", "A2", "--lambda", "1,1")
    _, second, _ = run_cli(capsys, "pfd", "--algebra", "A2", "--lambda", "1,1")
    assert first == second


# Modules with a pole-data factor (1 - q^alpha) that vanished at an earlier
# seeded point of the Kronecker point check; each request exited 2 there.
B5_SPIN, E7_MINUSCULE = ("B5", "0,0,0,0,1"), ("E7", "0,0,0,0,0,0,1")
SEEDED_POINT_CHARS = [
    (*B5_SPIN, 0), (*B5_SPIN, 1), (*B5_SPIN, 2), (*E7_MINUSCULE, 0), (*E7_MINUSCULE, 1),
    ("D8", "0,0,0,0,0,0,0,1", 1), ("A8", "0,0,1,0,0,0,0,0", 1), ("B6", "0,0,0,0,0,1", 1),
]


def _molien(algebra, weight, n):
    """The truncated-product oracle's degree-n character as {weight: multiplicity}."""
    table = weight_system(from_label(algebra), tuple(int(c) for c in weight.split(",")))
    return dict(truncated_molien(table, n).coefficient(n).terms)


@pytest.mark.parametrize("algebra,weight,n", SEEDED_POINT_CHARS)
def test_char_on_modules_with_a_relation_among_the_old_seeds(capsys, algebra, weight, n):
    code, out, err = run_cli(capsys, "char", "--algebra", algebra, "--lambda", weight,
                             "--N", str(n))
    assert (code, err) == (0, "")
    got = {tuple(item["weight"]): item["mult"] for item in json.loads(out)["character"]}
    assert got == _molien(algebra, weight, n)


def test_mult_orbits_and_vpart_on_the_b5_spinor(capsys):
    expected = {n: _molien(*B5_SPIN, n) for n in (0, 1, 2)}
    module = ("--algebra", B5_SPIN[0], "--lambda", B5_SPIN[1])
    code, out, _ = run_cli(capsys, "mult", *module, "--N", "2", "--mu", "0,0,0,0,0")
    assert code == 0 and json.loads(out)["multiplicity"] == expected[2][0, 0, 0, 0, 0]
    # The spinor's weights form one orbit, whose summand is the character.
    code, out, _ = run_cli(capsys, "orbits", *module, "--N", "1")
    (summand,) = json.loads(out)["summands"]
    assert code == 0 and summand["dominant_weight"] == [0, 0, 0, 0, 1]
    assert summand["value"]["den"] == []
    assert {tuple(t["exp"]): int(t["coef"]) for t in summand["value"]["num"]} == expected[1]
    code, out, _ = run_cli(capsys, "vpart", *module, "--max-n", "1")
    payload = json.loads(out)
    assert code == 0 and payload["all_pass"] is True
    for n in (0, 1):
        assert {tuple(case["mu"]): case["multiplicity"] for case in payload["equivalence"]
                if case["N"] == n} == expected[n]


# sha256 of stdout and the exit code of fixed requests.  The other tests
# compare denominators semantically; these pin the reduced form that is
# printed, so a change to the arithmetic core cannot alter it unnoticed.
PINNED_OUTPUTS = [
    (("pfd", "--algebra", "A2", "--lambda", "1,1"), 0,
     "bd583a34b6999acf5f7d8f0386d7d04a50b346fec6a382afd8fbea62eaf2271d"),
    (("pfd", "--algebra", "A2", "--lambda", "2,1"), 0,
     "f40217f22cdd0c231368b7a3276ef60dd806e216fac9f31178b7ec4eba3b41c7"),
    (("pfd", "--algebra", "B2", "--lambda", "1,1"), 0,
     "ec2cdfbceb7be05b5edc91a9a76abe81635d6f5c2b9d3405caced59292297060"),
    (("pfd", "--algebra", "G2", "--lambda", "0,1"), 0,
     "271e7182eec01949b6749395519b83aca20f5e5d92e83534b567fd2b86f4cd1a"),
    (("pfd", "--algebra", "A2", "--lambda", "1,1", "--format", "text"), 0,
     "56fdfc0629d3d6634984863e3708ea8dc5b731558a4f97f5493ba379893390e3"),
    (("orbits", "--algebra", "A1", "--lambda", "3", "--N", "4"), 0,
     "0ecc304f4b4145e02750fc1ba2b8ae8d486ef1e916248a2cd7e6fe8ed92021f0"),
    (("orbits", "--algebra", "A2", "--lambda", "1,1", "--N", "3"), 0,
     "8ec9c9641ceaae18d886f3e852599db8ae505adb0de0b508266bcf049fa28a2b"),
    (("orbits", "--algebra", "A2", "--lambda", "1,1", "--N", "3", "--format", "text"), 0,
     "9d1339328b1e17af3a9c43253e15580e9c9118191ed5617f3d0488a651fc9d52"),
    (("char", "--algebra", "A2", "--lambda", "1,1", "--N", "3", "--format", "text"), 0,
     "e0d38ca2c410e57b8f2ef398446aa987cab3452de5b4d59c79763fba89a427d2"),
    (("char", "--algebra", "G2", "--lambda", "1,0", "--N", "3"), 0,
     "46b27c6ec6f3575d54d3bebb5faa80b649aa1c8d50b482b2c37f43a7848c233d"),
    (("mult", "--algebra", "A2", "--lambda", "1,1", "--N", "3", "--mu", "0,0"), 0,
     "92b405dac9647f28fe2e3559358f636892cd239fd3de797836665d0fdff3cce0"),
    (("weights", "--algebra", "B2", "--lambda", "1,1"), 0,
     "15824b07a96516b3ff0139af36df496f606d3125d0cf3820da81337b8c81a5e5"),
    (("vpart", "--algebra", "A2", "--lambda", "1,0", "--max-n", "3"), 0,
     "872bae8037adb9092a8e8a12ec2d698a4433bb29ebbfb88e5243ac026991b23e"),
    (("verify", "--case", "A1", "--case", "B2", "--max-n", "3", "--format", "text"), 0,
     "e760566a1a29db2e08204593ed01765b1b4d2197902eafd3a4c0b908c85e01ee"),
    (("char", "--algebra", "A1", "--lambda", "2", "--N", "-1"), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("pfd", "--algebra", "A2", "--lambda", "2,2"), 0,
     "8dd7eea6d34884da1c384a7f58c44d7a360577431338d0890eaa69d47788c8be"),
    (("pfd", "--algebra", "B3", "--lambda", "0,1,0"), 0,
     "2c1d550d50971128b29eb47e423bba0457a6d3c982139a840ec1a792317e04b7"),
    (("pfd", "--algebra", "F4", "--lambda", "0,0,0,1"), 0,
     "f874616f87dd09b1b88cb5cd8237b8c70b7af38a9afe87d9e11dfe45639f85f0"),
    (("pfd", "--algebra", "A3", "--lambda", "1,0,1"), 0,
     "4e5bb63138de27dec51365dd0366aa86bdb04c36f90b644479e8f64af32397b4"),
    (("pfd", "--algebra", "D4", "--lambda", "0,1,0,0"), 0,
     "1a6045427be561a9a3e4df94b757cbc0c3a125bdb9be99bd5b4b4b8d5ccb4f0e"),
    (("orbits", "--algebra", "A2", "--lambda", "2,1", "--N", "2"), 0,
     "802931d0a06cde9e215129c3254c7b37305b93660791108bfc8c3d355b5fb055"),
    (("orbits", "--algebra", "B2", "--lambda", "1,1", "--N", "2"), 0,
     "894d3581a08630c04117680abd22efee12cf2086c1d5129f2cb30ce8100810c0"),
    (("pfd", "--algebra", "B2", "--lambda", "2,1"), 0,
     "cfa763215776983c0ce33039d6a32d8b72df9bd9c7ed0ed68e87945e5d095427"),
    (("char", "--algebra", "A3", "--lambda", "1,0,1", "--N", "3"), 0,
     "2850648142bf350ab23c14dc09e77cf1a72c631bb74c4a8f180558689fe38444"),
    (("char", "--algebra", "A3", "--lambda", "1,0,1", "--N", "6"), 0,
     "451e5d21c6b79abbe98906fea78f97a01de46aa56a7faefd76c2675e9d3adc91"),
    (("pfd", "--algebra", "A2", "--lambda", "2,2", "--format", "text"), 0,
     "c61536d590d30172659ec5de3aba100bd789e5c0713ed01366ee4cf0639c4ccf"),
    # Most terms of these three are transported from a dominant weight.
    (("pfd", "--algebra", "A2", "--lambda", "3,3"), 0,
     "01645d5901270dab094e5752fe7a88baa77933846294b025e015b861763268fe"),
    (("pfd", "--algebra", "B2", "--lambda", "1,3"), 0,
     "ce85edae14128473eebd23c56473cf96990588bf58b37f271a26f35f61808d70"),
    (("pfd", "--algebra", "G2", "--lambda", "1,1"), 0,
     "04ccb101a8f15af0e27ad017b643e882bef7be1c61c67d61183173ee69341ed0"),
]


@pytest.mark.parametrize("argv,expected_code,expected_sha", PINNED_OUTPUTS,
                         ids=[" ".join(argv) for argv, _, _ in PINNED_OUTPUTS])
def test_pinned_output(capsys, argv, expected_code, expected_sha):
    # The memos start empty (conftest), so the first run computes everything
    # and the second is served from the memos; both must print the same bytes.
    for _ in range(2):
        code, out, _ = run_cli(capsys, *argv)
        assert code == expected_code
        assert hashlib.sha256(out.encode()).hexdigest() == expected_sha


class TestUserErrors:
    def test_wrong_length_weight_fails_before_building(self, capsys, monkeypatch):
        # Building A60 takes over a second; a wrong-length weight must not wait for it.
        def build(*args):
            raise AssertionError("root system built")

        monkeypatch.setattr(symchar.rootsys, "build_root_system", build)
        monkeypatch.setattr(cli, "build_root_system", build, raising=False)
        monkeypatch.setattr(symchar.rootsys, "_ROOT_SYSTEMS", {})
        code, out, err = run_cli(capsys, "weights", "--algebra", "A60", "--lambda", "1")
        assert (code, out, err) == (1, "", "error: weight '1' has 1 coordinates, expected 60\n")
        # With the right length the request does reach the build, so the
        # error above was not served from a memo.
        code, out, err = run_cli(capsys, "weights", "--algebra", "A60", "--lambda", ",".join("0" * 60))
        assert (code, out, err) == (2, "", "internal inconsistency: root system built\n")

    def test_unknown_algebra(self, capsys):
        code, _, err = run_cli(capsys, "char", "--algebra", "Z9", "--lambda", "1", "--N", "2")
        assert code == 1
        assert "label" in err

    def test_non_dominant_weight(self, capsys):
        code, _, err = run_cli(capsys, "char", "--algebra", "A1", "--lambda", "-2", "--N", "2")
        assert code == 1
        assert "dominant" in err

    def test_missing_degree(self, capsys):
        code, _, err = run_cli(capsys, "char", "--algebra", "A1", "--lambda", "2")
        assert code == 1

    def test_negative_degree(self, capsys):
        code, _, err = run_cli(capsys, "char", "--algebra", "A1", "--lambda", "2", "--N", "-3")
        assert code == 1

    def test_malformed_weight(self, capsys):
        code, _, err = run_cli(capsys, "char", "--algebra", "A2", "--lambda", "1", "--N", "2")
        assert code == 1
        assert "coordinates" in err
        # A coordinate is a sign and ASCII digits: no underscores, no other digits.
        for argv in (
            ("weights", "--algebra", "A1", "--lambda", "1_0"),
            ("weights", "--algebra", "A1", "--lambda", "\u0661"),
            ("mult", "--algebra", "A1", "--lambda", "2", "--N", "4", "--mu", "0_2"),
            ("mult", "--algebra", "A1", "--lambda", "2", "--N", "4", "--mu", "\u0662"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "")
            message = "malformed weight %r (expected comma-separated integers)" % argv[-1]
            assert err == "error: %s\n" % message
        # Surrounding spaces and a plus sign stay accepted.
        assert run_cli(capsys, "weights", "--algebra", "A2", "--lambda", " +1 , 0 ")[0] == 0

    @pytest.mark.parametrize("text", ["0_2", " 2", "2 ", "+2", "٢", "2.0", "", "1e2"])
    @pytest.mark.parametrize("argv", [
        ("char", "--algebra", "A1", "--lambda", "1", "--N"),
        ("mult", "--algebra", "A1", "--lambda", "1", "--mu", "0", "--N"),
        ("vpart", "--algebra", "A1", "--lambda", "1", "--max-n"),
        ("verify", "--case", "A1", "--max-n"),
    ], ids=lambda argv: argv[0])
    def test_integer_options_take_ascii_digits_only(self, capsys, argv, text):
        # argparse's own line for a value that is not an int, as for --N x.
        option = argv[-1]
        message = "error: argument %s: invalid int value: %r\n" % (option, text)
        assert run_cli(capsys, *argv, text) == (1, "", message)

    def test_integer_options_accept_digits_with_a_minus_sign(self, capsys):
        assert run_cli(capsys, "char", "--algebra", "A1", "--lambda", "1", "--N", "02",
                       "--format", "text") == (0, "q^2 + 1 + q^-2\n", "")
        assert run_cli(capsys, "vpart", "--algebra", "A1", "--lambda", "1", "--max-n", "-0")[0] == 0
        for argv in (("char", "--algebra", "A1", "--lambda", "1", "--N", "-3"),
                     ("verify", "--max-n", "-1")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "") and "non-negative" in err

    def test_unknown_verify_case(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--case", "A1", "--case", "X9")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "X9" in err
        for label, _, _ in cli.VERIFY_CASES:
            assert label in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--max-n", "-1"),
        ("vpart", "--algebra", "A1", "--lambda", "2", "--max-n", "-1"),
    ], ids=" ".join)
    def test_negative_max_degree(self, capsys, argv):
        # One message for both subcommands, naming the option, not an oracle parameter.
        assert run_cli(capsys, *argv) == (1, "", "error: --max-n must be non-negative\n")

    def test_unknown_verify_case_wins_over_negative_max_degree(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--case", "X9", "--max-n", "-1")
        assert (code, out) == (1, "")
        assert err.startswith("error: unknown verify case X9")


@pytest.mark.parametrize("error", [KeyError, IndexError])
def test_lookup_errors_are_internal(capsys, monkeypatch, error):
    def broken(args):
        raise error("missing")

    monkeypatch.setitem(cli._HANDLERS, "weights", broken)
    code, out, err = run_cli(capsys, "weights", "--algebra", "A1", "--lambda", "1")
    assert code == 2
    assert out == ""
    assert "internal inconsistency" in err


def test_failing_verify_check_is_internal(capsys, monkeypatch):
    # A pipeline/oracle mismatch is a bug, not a user error.
    monkeypatch.setattr(symchar.oracle, "adams_series", lambda char_v, n_max: GradedTruncation(
        tuple(char_v * 0 + 7 for _ in range(n_max + 1))))
    code, out, err = run_cli(capsys, "verify", "--case", "A1", "--max-n", "2")
    assert code == 2
    rows = json.loads(out)
    assert {row["status"] for row in rows if row["check"] == "pfd-vs-adams"} == {"fail"}
    assert {row["status"] for row in rows if row["check"] == "pfd-vs-molien"} == {"pass"}
    assert err.startswith("internal inconsistency: ")


def test_failing_vpart_report_is_internal(capsys, monkeypatch):
    real = symchar.check_partition_equivalence
    monkeypatch.setattr(symchar.vpart, "check_partition_equivalence",
                        lambda table, n: {**real(table, n), "all_pass": False})
    code, out, err = run_cli(capsys, "vpart", "--algebra", "A1", "--lambda", "2", "--max-n", "2")
    assert code == 2
    assert json.loads(out)["all_pass"] is False
    assert err.startswith("internal inconsistency: ")


def test_weight_table_that_a_reflection_moves_is_internal(capsys, monkeypatch):
    # A Freudenthal table that is not Weyl invariant is a bug, not a user error.
    real = symchar.weightsys._support_closure
    monkeypatch.setattr(symchar.weightsys, "_support_closure",
                        lambda rs, highest: real(rs, highest) - {(-1, -1)})
    code, out, err = run_cli(capsys, "weights", "--algebra", "A2", "--lambda", "1,1")
    assert code == 2
    assert out == ""
    assert err.startswith("internal inconsistency: Freudenthal table: A2: ")


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "symchar", "mult", "--algebra", "A1", "--lambda", "2",
         "--N", "4", "--mu", "0", "--format", "text"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "3"


def test_no_assert_statements_in_package():
    # Invariants raise InconsistencyError so that they survive python -O.
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_private_names_imported_across_modules():
    # A name with a leading underscore is private to its module.
    found = [
        "%s:%d %s" % (path.name, node.lineno, alias.name)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "symchar")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_package_exports_every_pipeline_module():
    # Every public module but the command line is a pipeline module.
    names = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem.startswith("_") or path.stem == "cli":
            continue
        module = importlib.import_module("symchar." + path.stem)
        for name in module.__all__:
            assert getattr(symchar, name) is getattr(module, name), name
        names.extend(module.__all__)
    assert len(symchar.__all__) == len(set(symchar.__all__))
    assert sorted(symchar.__all__) == sorted(names + ["__version__"])


def _module_env():
    """The environment of a fresh process that finds this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")])
    )
    return env


def _run_module(flags, argv):
    """python <flags> -m symchar <argv> in a fresh process that finds this package."""
    return subprocess.run([sys.executable, *flags, "-m", "symchar", *argv],
                          capture_output=True, text=True, env=_module_env())


def test_a_reader_that_leaves_early_gets_exit_1_and_no_traceback():
    # The 7 MB of JSON cannot fit in the pipe, so a write is certain to find it closed.
    child = subprocess.Popen(
        [sys.executable, "-m", "symchar", "pfd", "--algebra", "A2", "--lambda", "3,3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
    )
    assert len(child.stdout.read(100)) == 100
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait() == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "--case", "A1", "--max-n", "4"),
    ("char", "--algebra", "A2", "--lambda", "1,1", "--N", "3"),
], ids=" ".join)
def test_optimized_mode_gives_the_same_output(argv):
    plain, optimized = [_run_module(flags, argv) for flags in ((), ("-O",))]
    assert plain.returncode == 0
    assert plain.stdout
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)


A1_FUNDAMENTAL = ("--algebra", "A1", "--lambda", "1")
# The package modules that each subcommand does not run, so must not load.
_UNUSED = {
    "weights": {"symchar.charformula", "symchar.oracle", "symchar.vpart", "symchar.polyring",
                "symchar.pfdcore"},
    "pfd": {"symchar.charformula", "symchar.oracle", "symchar.vpart"},
    "char": {"symchar.oracle", "symchar.vpart"},
    "mult": {"symchar.oracle", "symchar.vpart"},
    "orbits": {"symchar.oracle", "symchar.vpart"},
    "vpart": {"symchar.oracle"},
    "verify": {"symchar.vpart"},
}
# One valid request of each subcommand.
_REQUESTS = [
    ("weights", *A1_FUNDAMENTAL),
    ("pfd", *A1_FUNDAMENTAL),
    ("char", *A1_FUNDAMENTAL, "--N", "2"),
    ("mult", *A1_FUNDAMENTAL, "--N", "2", "--mu", "0"),
    ("orbits", *A1_FUNDAMENTAL, "--N", "2"),
    ("vpart", *A1_FUNDAMENTAL, "--max-n", "1"),
    ("verify", "--case", "A1", "--max-n", "1"),
]


@pytest.mark.parametrize("argv", _REQUESTS, ids=lambda argv: argv[0])
def test_start_up_loads_only_what_the_subcommand_runs(argv):
    done = _run_module(("-X", "importtime"), argv)
    assert done.returncode == 0
    loaded = {line.rsplit("|", 1)[1].strip()
              for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert "symchar.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
    assert not loaded & (_UNUSED[argv[0]] | {"symchar.univariate"})


@pytest.mark.parametrize("argv", _REQUESTS, ids=lambda argv: argv[0])
def test_one_subcommand_parser_parses_as_the_full_one(argv):
    assert cli._build_parser(argv[0]).parse_args(argv) == cli._build_parser().parse_args(argv)


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    listed = capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0]
    assert listed.split(",") == list(cli._HANDLERS)
