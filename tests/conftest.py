import contextlib
import io

import pytest

from substreetution import cli


@pytest.fixture(scope="session")
def verify_paper_json():
    """One end-to-end `verify-paper --json` run: (exit code, stdout).

    The gate tests and the CLI test read the same run, so the table runs once.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify-paper", "--json"])
    return code, out.getvalue()
