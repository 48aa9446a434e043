import hashlib
import json
import subprocess
import sys

import pytest

from symchar import cli
from symchar.cli import main


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
]


@pytest.mark.parametrize("argv,expected_code,expected_sha", PINNED_OUTPUTS,
                         ids=[" ".join(argv) for argv, _, _ in PINNED_OUTPUTS])
def test_pinned_output(capsys, argv, expected_code, expected_sha):
    code, out, _ = run_cli(capsys, *argv)
    assert code == expected_code
    assert hashlib.sha256(out.encode()).hexdigest() == expected_sha


class TestUserErrors:
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


@pytest.mark.parametrize("error", [KeyError, IndexError])
def test_lookup_errors_are_internal(capsys, monkeypatch, error):
    def broken(args):
        raise error("missing")

    monkeypatch.setitem(cli._HANDLERS, "weights", broken)
    code, out, err = run_cli(capsys, "weights", "--algebra", "A1", "--lambda", "1")
    assert code == 2
    assert out == ""
    assert "internal inconsistency" in err


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "symchar", "mult", "--algebra", "A1", "--lambda", "2",
         "--N", "4", "--mu", "0", "--format", "text"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "3"
