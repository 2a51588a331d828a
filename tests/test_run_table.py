"""Same bytes: one table of command runs, each pinned by sha256.

Each row is an argv after `qmol` and what `cli.main` gives for it,
in-process and in an empty directory: the exit status, the sha256 of its
stdout and of its stderr, and the sha256 of each file it writes, by name.
The rows are every run of `outputs()` and of its `errors.txt` loop in
`.github/workflows/tests.yml`, a few eigen-map grids those leave out, and
the README's Command line examples (`tests/test_readme_examples.py`
checks that each is a row).  `verify` prints deviation figures, which
BLAS and LAPACK builds may move, so its row pins only each line's
PASS/FAIL word and check name.

A change that means to move printed bytes updates the digests of the rows
it moves, and says which and why.
"""

import hashlib

import pytest

from qmol.cli import main


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


EMPTY = _sha256(b"")

#: argv -> (exit status, stdout sha256, stderr sha256, {file name: sha256})
RUNS = {
    # CI's outputs(), in its order
    "verify":
        (0, "c9b220fb09f21c294c328eee10392c77215681d86481ea6743ccf8e585fb8689", EMPTY, {}),
    "spectrum --j 25 --d1 1.5625 --d2 3 --e1 2 --e2 -1":
        (0, "7f15f0090a79e1614d47fac33afd39dabfe6a67a9192e8f50da88eaaf6f46c6e", EMPTY, {}),
    "bell-times --n 1 --m 1 --j 25":
        (0, "4793d8dea4c88c94f0f93f4034b764626e9ebd51fc3f10ade36a54918c574c46", EMPTY, {}),
    "bell-times --n 2 --m 3":
        (0, "9376ef7c1309d0d064611931425d8d7c19c36c857db4f0d2aa6bf4274d4eae27", EMPTY, {}),
    "bell-times --n 4 --m 7":
        (0, "042fc6facb583a234457df9d444e10150d40df270e12cf4b3649b1b1410320cf", EMPTY, {}),
    "dynamics --ratio 0.433013 --e1 0.5 --tmax 1 --steps 500 --out dynamics.csv":
        (0, EMPTY, EMPTY, {
            "dynamics.csv": "c73677a84320e4e03c8a6187f8906b44603d12bf1aa0427419750231be7c7d12",
        }),
    "sweep eigen --d1 1.5625 --d2 3 --state 1 --out eigen.csv --pgm eigen.pgm":
        (0, EMPTY, EMPTY, {
            "eigen.csv": "417ed1f5d452ac95c59e2d4b822ebae5b677239f482b52e78248329443c5dfcd",
            "eigen.pgm": "85ac7a560115375c25600aac052d96776dd62d9ab38fe89643345765bfb30fd0",
        }),
    "sweep tunneling-dynamics --tmax 1 --steps 301 --grid 0:1:201 --out beats.csv --pgm beats.pgm":
        (0, EMPTY, EMPTY, {
            "beats.csv": "635c85867830f7d20a06a9874cc317cd4e1e82d5c32f2095758f8b24a518621e",
            "beats.pgm": "25707056668608a07033291b0507c64bad6f446aab41b55ca829d7cf574be82e",
        }),
    "sweep detuning-dynamics --ratio 0.433013 --sign -1 --tmax 3 --steps 301 --out det.csv --pgm det.pgm":
        (0, EMPTY, EMPTY, {
            "det.csv": "8db0a903258cdf62e28ece36f0c9709746e322033922c5d3d3bd17d551e5afb3",
            "det.pgm": "16c5d4329ed4484942cd7de7a50ff2879950212a096a7fb395206723636b047a",
        }),
    "dynamics --ratio 0.433013 --e1 0.5 --tmax 3 --steps 20001 --out dynamics-long.csv":
        (0, EMPTY, EMPTY, {
            "dynamics-long.csv": "bdfcde2d7b24f9cc315382ab9366d33597a4361b8464809106947ec4f9967b95",
        }),
    "sweep tunneling-dynamics --tmax 3 --steps 2001 --grid 0.05:1:51 --out beats-long.csv --pgm beats-long.pgm":
        (0, EMPTY, EMPTY, {
            "beats-long.csv": "e0ee53c71f4754eccb9d1a9cfacaa1c9fc1f4c9f12b73bf728494491414c3e27",
            "beats-long.pgm": "9e78de9aa2d15dc8ee131b08b4022e9e119957c35adc47a35119915023610506",
        }),
    "sweep detuning-dynamics --ratio 0.433013 --sign 1 --tmax 3 --steps 2001 --grid=-20:20:26 --out det-long.csv --pgm det-long.pgm":
        (0, EMPTY, EMPTY, {
            "det-long.csv": "a8fa61b5bade07878b9d43c281d20570f8823672776d9b313a8b4fad59bb002f",
            "det-long.pgm": "34fca5af4bad77408a22a1ca159192d11a957101c817a73e7811d6c54d03976e",
        }),
    "dynamics --init PsiPlus --d1 3 --d2 1 --e1 2 --e2 -1 --tmax 2 --steps 1001 --out dynamics-psiplus.csv":
        (0, EMPTY, EMPTY, {
            "dynamics-psiplus.csv": "12493757d298d547c42b1acff12489cfffde14452ac2985a28d5eda00a9c838b",
        }),
    "sweep detuning-dynamics --init PhiMinus --d1 2 --d2 2 --sign 1 --tmax 2 --steps 501 --grid=-10:10:21 --out det-phiminus.csv --pgm det-phiminus.pgm":
        (0, EMPTY, EMPTY, {
            "det-phiminus.csv": "610a8fb1370579dab814a7165a24b00c8b0836ace78bacb0d889e8213c013fb2",
            "det-phiminus.pgm": "6cf2b75e3d714bd0e50332e641e42fb84f91d9132958882f9c008183b6f34e40",
        }),
    "sweep eigen --d1 1.5625 --d2 3 --state 0 --grid=-25:25:51 --out eigen-0.csv --pgm eigen-0.pgm":
        (0, EMPTY, EMPTY, {
            "eigen-0.csv": "b424538fe8501faf4f804abbcda81f4c6e916cdbb10daae2e8ecf6eb3a131626",
            "eigen-0.pgm": "5580db73e8d29f20ccf7cfa23c963273b6624ee1cac6b36db3114200b70587d1",
        }),
    "sweep eigen --d1 1.5625 --d2 3 --state 3 --grid=-25:25:51 --out eigen-3.csv --pgm eigen-3.pgm":
        (0, EMPTY, EMPTY, {
            "eigen-3.csv": "ebe98081dd994b2d24e7de0b63aa9fb9035a45bea82a917df9ae84faacbee939",
            "eigen-3.pgm": "b13c3d56481df8e305555fa4873f986b42b62bc856f20d61c97c4ef67f2c5325",
        }),
    "spectrum --ratio 0.433013":
        (0, "0808a8fd8cf8d981d35d643d0333fe26be183a1e6d489fca01274318379d8ccd", EMPTY, {}),
    "sweep eigen --d1 0 --d2 0 --state 1 --grid=-25:25:51 --out eigen-zero.csv --pgm eigen-zero.pgm":
        (0, EMPTY, EMPTY, {
            "eigen-zero.csv": "b9bec55e8f3eb990c86c90bca43a6267eae60fa2854610657f147460ef7c5a64",
            "eigen-zero.pgm": "27e16f5a5941e2b17d4c9518fad4106448fadfdfd14638a50cc33c9df18824e1",
        }),
    "spectrum --j 25":
        (0, "c0da2d9bd353314f54e743885d72dbf8a23d389eca31923b208a4422cf961493", EMPTY, {}),
    "sweep eigen --d1 6.25 --d2 3.125 --state 2 --out eigen-unequal.csv --pgm eigen-unequal.pgm":
        (0, EMPTY, EMPTY, {
            "eigen-unequal.csv": "75d53c523609e043fa94ed8d5c5d3e349d322a14437e0f738107ca5f787a7b49",
            "eigen-unequal.pgm": "ea213dc134da0cc9f3c9b650c964a4a690613303322645f7899a568ec5ff3642",
        }),
    "dynamics --ratio 0.433013 --tmax 2.05 --steps 20001 --out dynamics-ties.csv":
        (0, EMPTY, EMPTY, {
            "dynamics-ties.csv": "312cdbdbc29a24ad3ac66b347aed080f088466265f820cfac5d8cb249e9b792a",
        }),
    "dynamics --ratio 0.433013 --tmax 25 --steps 2001 --out dynamics-25ns.csv":
        (0, EMPTY, EMPTY, {
            "dynamics-25ns.csv": "ad96f6516cc993578011d217547f4482e76b9612cf73b902ee879aa394ac837f",
        }),
    # CI's errors.txt loop: input errors, and a negative flag value in exponent form
    "sweep tunneling-dynamics --steps 1":
        (2, EMPTY, "7ea03b9f31a28afd09ce08cc42e93901ff443b458c83eaeafafe8324cfe7537a", {}),
    "bell-times --n 31830989 --m 1":
        (2, EMPTY, "8cefe2625786cc8d1bd04d05c0bce60beeb4fb4fbdc8476d1a6c4ae7fa7ad884", {}),
    "sweep eigen --grid=0:1:1":
        (2, EMPTY, "338c61badefe2ca844358ebb1a6f40af5a53f6d13528d216fd0a08e5fac95feb", {}),
    "sweep tunneling-dynamics --e1 1":
        (2, EMPTY, "163630b993486b107f9d328d64762236d03c16795d7d34e4112dad06d2e1ac46", {}),
    "sweep detuning-dynamics --d1 1 --d2 2":
        (2, EMPTY, "bef7b2bb69cfaa626d39d9035dca0f549e5a25a3bba47612255dd5b6c672546c", {}),
    "spectrum --e1 -1e-3":
        (0, "d4161de2381e342f6bd29217c256ee6f353f2eaa13e3cadbc6465d61e84509e0", EMPTY, {}),
    "spectrum --j 1e-320 --d1 3e-321":
        (2, EMPTY, "32b5a12472a28c506f67113152501266b5f1f59e21611ed13cfca4723f984795", {}),
    # eigen maps on grids whose x range is not lo = -hi (odd and even n), and an
    # even-n grid that is, at equal tunnelings
    "sweep eigen --d1 1.5625 --d2 1.5625 --state 1 --grid=-10:30:31 --out eigen-odd.csv --pgm eigen-odd.pgm":
        (0, EMPTY, EMPTY, {
            "eigen-odd.csv": "4e5ef4ceba43d7d691ad1326d6d87f0e21c46f67e5698360d6ce914a14d19600",
            "eigen-odd.pgm": "5cdbb3a66dea64430287842731adaa26c1ba0e894f24b2f88c5ba4058f5198f7",
        }),
    "sweep eigen --d1 6.25 --d2 3.125 --state 2 --grid=-30:10:50 --out eigen-even.csv --pgm eigen-even.pgm":
        (0, EMPTY, EMPTY, {
            "eigen-even.csv": "d41f16ec732663d0ab8063164d7515277868db7930af8ca6cde0106232887390",
            "eigen-even.pgm": "0dcc3b9f74eab90ad2f58d04790ca88137154cdf3994140901edb7ad67a2e5ce",
        }),
    "sweep eigen --d1 1.5625 --d2 1.5625 --state 2 --grid=-25:25:50 --out eigen-even-sym.csv --pgm eigen-even-sym.pgm":
        (0, EMPTY, EMPTY, {
            "eigen-even-sym.csv": "f5a11d7419fad58a218641c3a502587b5144a001f7eff20f5cfd392e29db2064",
            "eigen-even-sym.pgm": "962441a0cb0a1cdd78271becd951a930552cf74cd1a86cd4db3dee5e536f0247",
        }),
    # README's Command line examples that CI's outputs() does not run
    "spectrum --j 25 --d1 1.5625 --d2 1.5625":
        (0, "6aa719d53d791468d96de81fa229356b67a0858fa3473ec7b056dc38d13c1fe9", EMPTY, {}),
    "dynamics --ratio 0.433013 --tmax 1 --steps 500 --out run.csv":
        (0, EMPTY, EMPTY, {
            "run.csv": "ee74415e9b8c3a9151e80d1518275551fd660b4b36e0ea90b5e272940e62d0a5",
        }),
    "sweep eigen --d1 1.5625 --d2 1.5625 --state 1 --out map.csv --pgm map.pgm":
        (0, EMPTY, EMPTY, {
            "map.csv": "bc3e0ecc44cebb70cbae9f8d30adebcac08bb7ce684fa3698c42e5b1217d6a35",
            "map.pgm": "4cc98c7b5999459acfa85b7ba23aa44de87fbfe834f66d9952a593397b710dea",
        }),
    "sweep tunneling-dynamics --tmax 1 --steps 301 --grid 0:1:201 --out beats.csv":
        (0, EMPTY, EMPTY, {
            "beats.csv": "635c85867830f7d20a06a9874cc317cd4e1e82d5c32f2095758f8b24a518621e",
        }),
    "sweep detuning-dynamics --ratio 0.433013 --sign -1 --tmax 3 --steps 301 --out det.csv":
        (0, EMPTY, EMPTY, {
            "det.csv": "8db0a903258cdf62e28ece36f0c9709746e322033922c5d3d3bd17d551e5afb3",
        }),
}


def _verdicts(out: bytes) -> bytes:
    """verify's lines cut before their deviation figures: "PASS  <check name>"."""
    return b"".join(line.split(b"  (")[0] + b"\n" for line in out.splitlines())


@pytest.mark.parametrize("argv", RUNS)
def test_run_reproduces_pinned_bytes(argv, tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    code = main(argv.split())
    out, err = capsysbinary.readouterr()
    if argv == "verify":
        out = _verdicts(out)
    files = {path.name: _sha256(path.read_bytes()) for path in sorted(tmp_path.iterdir())}
    assert (code, _sha256(out), _sha256(err), files) == RUNS[argv]
