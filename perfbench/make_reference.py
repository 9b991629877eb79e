"""Write the reference outputs the correctness gate compares against.

    python3 perfbench/make_reference.py

For each workload config (fig1-desk-w2 shares fig1-desk's), runs one
single-worker call at the workload's default seed and reference trial count
and stores the output under ``perfbench/reference/``. Existing files are
kept. Run it only on the commit whose results are the reference: a later run
would hide any drift since then.
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, call, reference_path  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for wl in WORKLOADS.values():
            path = reference_path(wl)
            if path.exists():
                continue
            path.parent.mkdir(exist_ok=True)
            text, _ = call(wl, wl.default_seed, wl.ref_trials, Path(tmp), workers=1)
            path.write_text(text)
            print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
