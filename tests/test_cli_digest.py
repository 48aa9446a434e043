"""The byte-identity sweep of ``tools/cli_digest.py`` as a test.

``tests/cli_digest.txt`` holds one line per request: the sha256 of stdout,
a NUL byte and stderr, the exit code and the argv.  Any change to what the
command line prints or returns on one of those requests fails here; a change
that means to alter an output records the new line in that file.  The
``--help`` lines depend on the argparse of the running Python.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


def test_every_request_gives_the_recorded_bytes():
    expected = (ROOT / "tests" / "cli_digest.txt").read_text().splitlines()
    assert [cli_digest.line(argv) for argv in cli_digest.requests()] == expected
