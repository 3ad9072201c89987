"""The OpenBLAS idle timeout the package sets, and outputs that do not depend on it."""

import os
import subprocess
import sys

import pytest

from embalign.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
VARIABLE = "OPENBLAS_THREAD_TIMEOUT"


def _env(timeout=None):
    env = {k: v for k, v in os.environ.items() if k != VARIABLE}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if timeout is not None:
        env[VARIABLE] = timeout
    return env


@pytest.mark.parametrize("preset, first, expected", [
    (None, "", "20"),          # unset: the package's default
    ("7", "", "7"),            # the user's own setting wins
    (None, "import numpy; ", "None"),  # numpy already loaded: the environment is left alone
])
def test_import_sets_the_timeout_only_before_numpy(preset, first, expected):
    code = f"{first}import embalign, os; print(os.environ.get({VARIABLE!r}))"
    done = subprocess.run([sys.executable, "-c", code], env=_env(preset),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == expected


def _outputs(directory):
    """``{relative path: bytes}`` of every file under ``directory``."""
    files = {}
    for parent, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, directory)] = f.read()
    return files


def test_outputs_are_byte_identical_across_timeouts(tmp_path):
    # the timeout decides only when an idle worker sleeps, never what a product sums
    views = {}
    for name, seed in (("eval", "1"), ("train", "2")):
        out = tmp_path / name
        assert main(["synth", "--ids", "30", "--per-id", "5", "--dim", "32", "--intrinsic-dim", "8",
                     "--views", "3", "--spread", "0.2", "--seed", seed, "--out", str(out)]) == 0
        views[name] = [str(out / f"view{v}.emb") for v in range(3)]
    ev, tr = views["eval"], views["train"]
    commands = {
        "eval-id": ["eval-id", "--source", ev[0], "--target", ev[1], "--seeds", "0,1"],
        "eval-verif": ["eval-verif", "--source", ev[0], "--target", ev[1], "--train-source", tr[0],
                       "--train-target", tr[1], "--genuine-cap", "200", "--impostor-cap", "1000",
                       "--seeds", "0,1"],
        "matrix": ["matrix", "--inputs", *ev, "--seeds", "0,1"],
    }
    written = {}
    for timeout in ("4", "28"):
        root = tmp_path / f"timeout{timeout}"
        for name, argv in commands.items():
            subprocess.run([sys.executable, "-m", "embalign.cli", *argv,
                            "--out-dir", str(root / name)],
                           env=_env(timeout), capture_output=True, text=True, check=True)
        written[timeout] = _outputs(root)
    assert {path.split(os.sep)[0] for path in written["4"]} == set(commands)
    assert written["4"] == written["28"]
