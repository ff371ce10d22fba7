"""Running the program from the checkout: child processes and the in-process import."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
TIMEOUT_S = 60


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """The program's processes, run one at a time by bench/launcher.py."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py")), str(TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)

    def run(self, argv: list[str], out: Path, err: Path) -> tuple[float, float, int]:
        """Run one child to its end: (wall s, peak RSS MB, exit code)."""
        self._proc.stdin.write(json.dumps({"argv": argv, "out": str(out), "err": str(err)}) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended early")
        done = json.loads(reply)
        return done["wall"], done["rss_mb"], done["code"]

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=TIMEOUT_S)
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def probe(code: str) -> str:
    """stdout of `python -c code` run against the checkout's program."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, env=child_env(),
                          cwd=ROOT, timeout=TIMEOUT_S, check=True, text=True).stdout


def time_import(module: str = "fibtree") -> float:
    """Time to import a module in a fresh interpreter, measured inside it."""
    seconds, path = probe(
        f"import sys, time; t = time.perf_counter(); import {module}; "
        "print(time.perf_counter() - t, sys.modules['fibtree'].__file__)").split()
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"fibtree imported from {path}, not from {SRC}")
    return float(seconds)


def import_program():
    """Import fibtree into this process from the checkout's src/."""
    sys.path.insert(0, str(SRC))
    import fibtree
    if not Path(fibtree.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"fibtree imported from {fibtree.__file__}, not from {SRC}")
    return fibtree
