"""Golden files: the engine's and the oracle's output pinned byte for byte.

Each *_rates.csv file under tests/data is the rates.csv of one tiny config;
verify_seed7_trials200.csv holds every verify check's measured value and
bound in repr, so a last-bit move shows. A change that moves a single byte
of either is a numerical change and has to be declared as one. To regenerate
the files after such a change, run

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from netmimo.allocation import PolicySpec
from netmimo.cli import ExperimentConfig, run_experiment
from netmimo.oracle import run_verification

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
    # K = 16 with the fig1-desk policies: the largest matrices of any golden
    # file, and enough trials per point to fill several trial chunks.
    "grid4_fig1": (
        dict(
            seed=11,
            layout_kind="grid",
            grid_side=4,
            gamma=0.6,
            snr_db=[30.0, 70.0],
            trials=10,
            policies=[
                PolicySpec("perfect"),
                PolicySpec("distance"),
                PolicySpec("uniform"),
                PolicySpec("cluster", cluster_size=4),
            ],
        ),
        1,
    ),
    # Rejection-heavy at K = 16 on two workers: each 3-trial chunk at 20 dB
    # mixes accepted and rejected trials (10 of 26 rejected), and the point
    # needs a top-up round; 60 dB rejects none.
    "grid4_reject_w2": (
        dict(
            seed=1,
            layout_kind="grid",
            grid_side=4,
            gamma=0.6,
            snr_db=[20.0, 60.0],
            trials=16,
            cond_threshold=300.0,
            max_rejection_rate=0.5,
            policies=[
                PolicySpec("perfect"),
                PolicySpec("distance"),
                PolicySpec("uniform"),
                PolicySpec("cluster", cluster_size=4),
            ],
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


VERIFY_GOLDEN = DATA / "verify_seed7_trials200.csv"


def _verify_csv() -> str:
    rows = [f"{r.name},{r.measured!r},{r.bound!r}\n" for r in run_verification(seed=7, trials=200)]
    return "check,measured,bound\n" + "".join(rows)


def test_verify_checks_match_golden():
    assert _verify_csv() == VERIFY_GOLDEN.read_text()


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    for golden in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as tmp:
            (DATA / f"{golden}_rates.csv").write_bytes(_rates_csv(golden, Path(tmp)))
        print(f"wrote {DATA / f'{golden}_rates.csv'}")
    VERIFY_GOLDEN.write_text(_verify_csv())
    print(f"wrote {VERIFY_GOLDEN}")
