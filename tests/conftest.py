from __future__ import annotations

import pytest

from seclink.demos import webserver_bundle
from seclink.monitor import webserver_mstate
from seclink.worlds import make_world

VALID_REQ = b"GET /index.html HTTP/1.1\r\n\r\n"

# A logging context in source text: log the open, then open a note.
LOGGING_CTX_SOURCE = r"""\log:(bytes -> either unit err).
  case log "Openfile\n" of
    inl u => (case io Openfile "/temp/notes.txt" of inl f => 1 | inr e => 0)
  | inr e => 0
"""


@pytest.fixture(scope="session")
def ws_bundle():
    return webserver_bundle()


@pytest.fixture()
def small_world():
    return make_world(
        files={"/temp/index.html": b"<h1>hi</h1>", "/temp/a.txt": b"alpha"},
        requests=[(1, VALID_REQ), (2, b"junk")],
    )


@pytest.fixture()
def sample_worlds():
    return [
        make_world(files={"/temp/a.txt": b"alpha"}, requests=[]),
        make_world(files={"/temp/a.txt": b"alpha"}, requests=[(1, VALID_REQ)]),
        make_world(files={}, requests=[(1, b"junk"), (2, VALID_REQ)]),
    ]


@pytest.fixture(scope="session")
def ws_desc():
    return webserver_mstate()


@pytest.fixture()
def logging_ctx_file(tmp_path):
    path = tmp_path / "logging.ctx"
    path.write_text(LOGGING_CTX_SOURCE)
    return str(path)
