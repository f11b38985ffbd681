import sys
from pathlib import Path

# the tracer tests wrap the real noise_id modules from the source tree
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
