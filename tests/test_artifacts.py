import errno
import io
import json
import os

import numpy as np
import pytest

from tiwlab import artifacts
from tiwlab.errors import IoError
from tiwlab.sampling import read_samples_csv, write_samples_csv


def test_failed_samples_write_leaves_previous_file_whole(tmp_path, monkeypatch):
    on_disk = []

    class PartWriter(io.BufferedWriter):
        # puts the first half of the data on disk, then fails as a full disk does
        def write(self, data):
            super().write(data[:len(data) // 2])
            self.flush()
            on_disk.append(os.fstat(self.fileno()).st_size)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    path = tmp_path / "samples.csv"
    write_samples_csv(path, np.arange(2000.0).reshape(1000, 2))
    before = path.read_bytes()
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: PartWriter(io.FileIO(fd, mode)))
    with pytest.raises(IoError, match="samples.csv"):
        write_samples_csv(path, np.arange(2000.0).reshape(1000, 2) + 0.5)
    assert len(on_disk) == 1 and on_disk[0] > 0  # it failed mid-write
    assert path.read_bytes() == before
    assert read_samples_csv(path).shape == (1000, 2)
    assert os.listdir(tmp_path) == ["samples.csv"]


def test_a_non_number_cell_is_refused_before_any_write(tmp_path, monkeypatch):
    path = tmp_path / "samples.csv"
    write_samples_csv(path, np.arange(2000.0).reshape(1000, 2))
    before = path.read_bytes()
    rows = np.arange(2000.0).reshape(1000, 2).astype(object)
    rows[500, 1] = "not a number"
    writes = []
    monkeypatch.setattr(artifacts, "write_bytes", lambda *args: writes.append(args))
    with pytest.raises(ValueError):
        write_samples_csv(path, rows)
    assert writes == []
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["samples.csv"]


def test_failed_replace_leaves_previous_file_and_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "payload.json"
    artifacts.write_json(path, {"a": 1})
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(IoError, match="payload.json"):
        artifacts.write_json(path, {"a": 2})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["payload.json"]


def test_new_file_mode_follows_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        artifacts.write_text(tmp_path / "atomic.txt", "x\n")
        with open(tmp_path / "plain.txt", "w") as f:
            f.write("x\n")
    finally:
        os.umask(old)
    mode = os.stat(tmp_path / "atomic.txt").st_mode & 0o777
    assert mode == os.stat(tmp_path / "plain.txt").st_mode & 0o777 == 0o640


def test_csv_and_json_formats(tmp_path):
    artifacts.write_csv(tmp_path / "t.csv", ["a", "b"], [["1", "2"], ["3", "4"]])
    assert (tmp_path / "t.csv").read_bytes() == b"a,b\n1,2\n3,4\n"
    artifacts.write_json(tmp_path / "t.json", {"b": [1], "a": 0.5})
    text = (tmp_path / "t.json").read_text()
    assert text == json.dumps({"a": 0.5, "b": [1]}, indent=2) + "\n"


def test_write_creates_the_directory(tmp_path):
    artifacts.write_bytes(tmp_path / "a" / "b" / "blob.ckpt", b"\x00\x01")
    assert artifacts.read_bytes(tmp_path / "a" / "b" / "blob.ckpt") == b"\x00\x01"


def test_os_errors_become_io_errors(tmp_path):
    (tmp_path / "file").write_text("")
    with pytest.raises(IoError, match="cannot write"):
        artifacts.write_text(tmp_path / "file" / "below.txt", "x")
    with pytest.raises(IoError, match="cannot read"):
        artifacts.read_bytes(tmp_path / "missing.ckpt")
    (tmp_path / "latin1.yaml").write_bytes(b"\xff\xfe")
    with pytest.raises(IoError, match="UTF-8"):
        artifacts.read_text(tmp_path / "latin1.yaml")
