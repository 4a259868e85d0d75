"""The README's CLI examples, run as written.

Every line of the README's `sh` block of `riccigap` commands (continued lines
joined) runs in-process through CliRunner in a temporary directory, after the
test writes the input files the commands name: A.csv, D.csv, B.csv,
tensor.json, and rows.json, which is the README's own JSON block.  Each
command must exit 0, and the sha256 of its standard output and of every file
it writes must equal the pin table, so neither the README nor the CLI's
bytes can drift unnoticed.  A line of that block that is neither a comment
nor a `riccigap` command fails the test.
"""

import hashlib
import json
import pathlib
import re
import shlex

import numpy as np
import pytest
from click.testing import CliRunner

from riccigap.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# (subcommand, sha256 of stdout, {written file: sha256}), in README order.  Taken with
# Python 3.11.7, numpy 2.4.6 and scipy 1.17.1, whose BLAS is scipy-openblas 0.3.31
# (OpenBLAS, x86-64 with AVX-512); every pin is the same at OPENBLAS_NUM_THREADS 1
# and 2.  Another BLAS, numpy build or CPU may round differently and move a pin.
PINS = [
    ("kappa", "912fbd446baa8a0f5a821e281ba934814f77470e7ffc5cf9502032c2a64e1d9e", {}),
    ("kappa", "9734ebd6d41536b5d3a5085553b15544d72c25b784a2083468b428a502443de0", {}),
    ("kappa", "a9e307ebeecf6aa07bedce857e3cc6ffb1dc803efbcfafef5878cb7364c9d6db", {}),
    ("coupling", "47232576d2fd96afa4c460bca40c512812966f71ee6d94a86efd205e1934f700",
     {"C0.csv": "2cfe3033b8b64923ff980920ee26784628adcabdeb913251d396ee8ebc3e58ad"}),
    ("simulate", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     {"paths.csv": "19dc89abb3600a7ab36f776f420bdb63b622ff23dbbfccad3f29f64633ef915b",
      "summary.json": "b0375c529144427a7ce32eae68b3a0a32e692ae25fcc89da7c53e036e206d230"}),
    ("spectrum", "b8837b40328b6bebc9608f017e3c7fe1395e2b2b9a1c1fd37f79d527461e367f", {}),
    ("bounds", "ebdb3de51a7f03a196f25b111c5173efbbe4a02049f6263aa9710bc792ac3dd4", {}),
    ("check-h", "b96f91f44bf644aed34bfb7f9a237eeb7208340ab0bd647c5c7171b44682398e", {}),
    ("variance", "04ad7e6d1f8e723e152f9471ec0f59ae606ed074071528d6deebca183d4f857c", {}),
    ("sweep", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     {"sweep.csv": "dc884b58881b4d658df367b3c4a74da9d5bebaf490fc34d1cc494897337dcbbe"}),
]


def _readme_commands() -> list[list[str]]:
    """The argument lists of the README's riccigap commands, in order."""
    blocks = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
              if re.search(r"^riccigap ", b, re.M)]
    assert len(blocks) == 1, "expected one sh block of riccigap commands"
    commands = []
    for line in re.sub(r"\\\n\s*", " ", blocks[0]).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        assert line.startswith("riccigap "), f"README line is not a riccigap command: {line!r}"
        commands.append(shlex.split(line)[1:])
    return commands


def _write_inputs(root: pathlib.Path):
    """The files the README's commands read."""
    np.savetxt(root / "A.csv", [[2.0, 0.3], [0.3, 1.0]], delimiter=",")
    np.savetxt(root / "D.csv", [[1.0, 0.5, -0.2], [0.0, 0.7, 0.4]], delimiter=",")
    np.savetxt(root / "B.csv", [[1.5, 0.2, 0.0], [0.2, 1.0, -0.1], [0.0, -0.1, 0.8]],
               delimiter=",")
    (root / "tensor.json").write_text(json.dumps({"kn_pairs": [[np.eye(3).tolist(),
                                                                np.eye(3).tolist()]]}))
    rows = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
    (root / "rows.json").write_text(rows)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_readme_commands_keep_their_pinned_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    inputs = {p.name for p in tmp_path.iterdir()}
    runner = CliRunner()
    got = []
    for args in _readme_commands():
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        res = runner.invoke(main, args, catch_exceptions=False)
        assert res.exit_code == 0, (args, res.output)
        written = {p.name: _sha(p.read_bytes()) for p in sorted(tmp_path.iterdir())
                   if p.name not in inputs and before.get(p.name) != p.read_bytes()}
        got.append((args[0], _sha(res.stdout_bytes), written))
    assert got == PINS, json.dumps(got, indent=1)


@pytest.mark.parametrize("line", ["pip install riccigap", "riccigap kappa --manifold 'x"])
def test_a_readme_line_that_is_not_a_riccigap_command_fails(line, monkeypatch):
    text = README.read_text().replace("# the gap plus every", line + "\n# the gap plus every")
    monkeypatch.setattr(pathlib.Path, "read_text", lambda self, *a, **k: text)
    with pytest.raises((AssertionError, ValueError)):
        _readme_commands()
