import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibtree

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# The SHA-256 of each demo's stdout.  A plain literal: the compat job in
# .github/workflows/tests.yml reads it with ast and checks every demo on
# every supported Python version.
DEMO_DIGESTS = {
    "cluster_metrics.py": "2154ac6052407aa3d17be069e1c589b9da4ef17be970d6042f1a0427b72cacea",
    "expansions.py": "ef0e251f5ca966d8e9925f67ee201b416e22bb1fe0bb877b79b913f60633e8bf",
    "hat_dialogues.py": "8ec8fab90d9cafffa8974a3d8cc71a7b4a81dc6c794f7a7f1b0706a7d89f1615",
    "stern_brocot.py": "b7ddf413dc00585b1cf28957f4519cc61c1421ec01dafa68f47b818d8ce35f7d",
    "theorem_scans.py": "fbfa31e9e09ee1235fc6fb1912cb91569607e957ed4caee0cc1da6bbbafe7848",
    "tree_walk.py": "c29a5df41a431076028b7a35b7ade327a548b204c4d626245b5229a42c203fbf",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_matches_its_digest(name):
    src = str(Path(fibtree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]
