"""The byte-identity sweep of ``tools/cli_digest.py`` as a test.

``tests/cli_digest.txt`` holds one line per request: the sha256 of stdout,
a NUL byte and stderr, the exit code and the argv.  Any change to what the
command line prints or returns on one of those requests fails here; a change
that means to alter an output records the new line in that file.  The
``--help`` lines depend on the argparse of the running Python.

The ``orbits`` sweep of ``tools/orbit_hashes.py`` runs here too: it pins
requests that the digest leaves out, C3(0,1,0) and the one-orbit module
B4(0,0,0,1) at N = 0..3.  ``tools/pfd_hashes.py`` takes minutes and stays
a tool.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_digest = _tool("cli_digest")


def test_every_request_gives_the_recorded_bytes():
    expected = (ROOT / "tests" / "cli_digest.txt").read_text().splitlines()
    assert [cli_digest.line(argv) for argv in cli_digest.requests()] == expected


def test_every_orbits_request_gives_the_recorded_bytes(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # orbit_hashes imports pfd_hashes
    orbit_hashes = _tool("orbit_hashes")
    assert orbit_hashes.main() == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "fdf3a808b7bb3829110969eb14276aac9fb737356b176092785ac61263381256")
