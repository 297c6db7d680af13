"""Output files that appear whole or not at all.

Standard library only, so that a command which writes just a small text
file (``arch --json``) does not import numpy.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replacing(path):
    """A binary file to write that becomes ``path`` only once it is whole.

    The file is created in ``path``'s own directory and moved there with
    ``os.replace`` when the block ends without error; on an error it is
    removed and an earlier ``path`` stays as it was. ``path`` is never
    partial: it is the earlier file, then absent for the instant between
    removing that file and the move, then the new one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            yield f
        # A rename over an existing file makes ext4 (auto_da_alloc) write
        # the new file back before the rename returns, a wait that grows
        # with the file; a rename to a free name does not wait.
        path.unlink(missing_ok=True)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already once it has replaced ``path``
