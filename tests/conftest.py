import contextlib
import io
import itertools

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


def _first_sites_by_scan(p, n):
    """Every site in order, keeping the first of each depth-n id: id -> (generation, rank)."""
    first = {}
    for m, row in enumerate(p.subtree_ids(n)):
        for i, cid in enumerate(row):
            first.setdefault(cid, (m, i))
    return first


@pytest.fixture(scope="session")
def first_sites_by_scan():
    """The scan oracle for the node table's class order, and the sites tests classify at."""
    return _first_sites_by_scan


@pytest.fixture(scope="session")
def chunk_keys():
    """Every line of 1, 2, 4 or 8 colors: the keys of each of a system's three chunk tables."""
    return {"".join(c) for n in (1, 2, 4, 8) for c in itertools.product("01", repeat=n)}
