"""The one place that writes files and reads artifacts back.

A write goes to a temporary file in the target's directory (made if
missing), which then replaces the target by ``os.replace``: a reader finds
the previous file or the whole new one, never a part, and a failed write
leaves no temporary file. Nothing is fsynced, so this holds against a
failing or killed process, not a power loss. A new file gets the mode
``open(path, "w")`` gives it under the umask. Every ``OSError`` becomes an
``IoError`` (exit code 5) that names the file.
"""

import contextlib
import json
import os
import tempfile
from pathlib import Path

from .errors import IoError


def write_bytes(path, data):
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # ".tmp" keeps a leftover of a killed run out of *.csv/*.json/*.ckpt globs
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                umask = os.umask(0)  # read it: mkstemp made the file 0600
                os.umask(umask)
                os.fchmod(f.fileno(), 0o666 & ~umask)
                f.write(data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e


def write_text(path, text):
    write_bytes(path, text.encode("utf-8"))


def _cell(value):
    return value if isinstance(value, str) else repr(float(value))


def write_csv(path, header, rows):
    """header and every row are sequences of cells: a str as it is, any other
    cell as the repr of its float, which reads back to the same float64."""
    write_text(path, "".join(",".join(map(_cell, cells)) + "\n" for cells in [header, *rows]))


def write_json(path, payload):
    write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_bytes(path):
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e


def read_text(path):
    try:
        return read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as e:
        raise IoError(f"{path} is not UTF-8 text: {e}") from e
