import os
import re
import subprocess
import sys
from pathlib import Path

import noise_id

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves():
    missing = [name for name in noise_id.__all__ if not hasattr(noise_id, name)]
    assert missing == []


def test_readme_quick_tour_runs():
    # the README's python blocks, run as one script, so that a signature
    # change cannot leave them stale
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(Path(noise_id.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
