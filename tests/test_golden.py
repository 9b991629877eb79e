"""Golden rates.csv files: the engine's output pinned byte for byte.

Each file under tests/data is the rates.csv of one tiny config. A change that
moves a single byte of it is a numerical change and has to be declared as
one. To regenerate the files after such a change, run

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from netmimo.allocation import PolicySpec
from netmimo.cli import ExperimentConfig, run_experiment

DATA = Path(__file__).resolve().parent / "data"

# name: (config, workers). At gamma 0.2 the cooperation radius is 1.25, so on
# the 2x2 grid the data mask drops exactly the diagonal neighbours.
GOLDEN = {
    "grid2_mask": (
        dict(
            seed=5,
            layout_kind="grid",
            grid_side=2,
            gamma=0.2,
            snr_db=[20.0, 40.0],
            trials=30,
            policies=[
                PolicySpec("perfect"),
                PolicySpec("distance"),
                PolicySpec("uniform"),
                PolicySpec("cluster", cluster_size=1),
                PolicySpec("zero"),
            ],
            data_mask=True,
        ),
        1,
    ),
    "random5_w2": (
        dict(
            seed=17,
            layout_kind="random",
            random_k=5,
            random_side=3.0,
            gamma=0.6,
            snr_db=[30.0, 60.0],
            trials=24,
            policies=[PolicySpec("perfect"), PolicySpec("distance", alpha=0.75), PolicySpec("conventional")],
        ),
        2,
    ),
}


def _rates_csv(name: str, outdir: Path) -> bytes:
    fields, workers = GOLDEN[name]
    run_experiment(ExperimentConfig(output=str(outdir), **fields), workers=workers)
    return (outdir / "rates.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rates_csv_matches_golden(name, tmp_path):
    assert _rates_csv(name, tmp_path) == (DATA / f"{name}_rates.csv").read_bytes()


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    for golden in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as tmp:
            (DATA / f"{golden}_rates.csv").write_bytes(_rates_csv(golden, Path(tmp)))
        print(f"wrote {DATA / f'{golden}_rates.csv'}")
