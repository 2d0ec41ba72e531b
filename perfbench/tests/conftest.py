import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))
