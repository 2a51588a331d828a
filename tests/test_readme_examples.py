"""Every usage example in README's Command line section, pinned by sha256.

The digests were recorded from the outputs the examples gave before the
CLI's config reader was rewritten; any change to a README-visible byte
fails here.  `verify` prints deviation figures, so only its PASS lines
are checked.
"""

import hashlib
import re
from pathlib import Path

from qmol.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

#: stdout digest of each example, keyed by its argv after `qmol`
STDOUT_SHA256 = {
    "spectrum --j 25 --d1 1.5625 --d2 1.5625":
        "6aa719d53d791468d96de81fa229356b67a0858fa3473ec7b056dc38d13c1fe9",
    "dynamics --ratio 0.433013 --tmax 1 --steps 500 --out run.csv":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "bell-times --n 1 --m 1 --j 25":
        "4793d8dea4c88c94f0f93f4034b764626e9ebd51fc3f10ade36a54918c574c46",
    "sweep eigen --d1 1.5625 --d2 1.5625 --state 1 --out map.csv --pgm map.pgm":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "sweep tunneling-dynamics --tmax 1 --steps 301 --grid 0:1:201 --out beats.csv":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "sweep detuning-dynamics --ratio 0.433013 --sign -1 --tmax 3 --steps 301 --out det.csv":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}

FILE_SHA256 = {
    "run.csv": "ee74415e9b8c3a9151e80d1518275551fd660b4b36e0ea90b5e272940e62d0a5",
    "map.csv": "bc3e0ecc44cebb70cbae9f8d30adebcac08bb7ce684fa3698c42e5b1217d6a35",
    "map.pgm": "4cc98c7b5999459acfa85b7ba23aa44de87fbfe834f66d9952a593397b710dea",
    "beats.csv": "635c85867830f7d20a06a9874cc317cd4e1e82d5c32f2095758f8b24a518621e",
    "det.csv": "8db0a903258cdf62e28ece36f0c9709746e322033922c5d3d3bd17d551e5afb3",
}


def _readme_examples() -> list[str]:
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line[len("qmol "):] for line in block.splitlines() if line.startswith("qmol ")]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_readme_examples_are_the_pinned_ones():
    assert _readme_examples() == list(STDOUT_SHA256) + ["verify"]


def test_readme_examples_reproduce_pinned_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for example, digest in STDOUT_SHA256.items():
        assert main(example.split()) == 0, example
        captured = capsys.readouterr()
        assert captured.err == "", example
        assert _sha256(captured.out.encode("ascii")) == digest, example
    for name, digest in FILE_SHA256.items():
        assert _sha256((tmp_path / name).read_bytes()) == digest, name


def test_readme_verify_passes_every_check(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    assert all(line.startswith("PASS") for line in lines)
