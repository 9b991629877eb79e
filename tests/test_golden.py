"""Golden files: the engine's, the allocations' and the oracle's output
pinned byte for byte.

Each *_rates.csv file under tests/data is the rates.csv of one tiny config;
each sizes_*.csv is the table of one `sizes` call, and bits_grid4_sha256.csv
holds the SHA-256 of every policy's bit table behind them;
verify_seed7_trials200.csv and verify_seed7_trials800.csv hold every verify
check's measured value and bound in repr, so a last-bit move shows. A
change that moves a single byte of any of them is a numerical change and
has to be declared as one. To regenerate the files after such a change, run

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
from pathlib import Path

import pytest

from netmimo.allocation import PolicySpec, build_allocation
from netmimo.cli import ExperimentConfig, main, parse_policy, run_experiment
from netmimo.evaluation import db_to_linear
from netmimo.oracle import run_verification
from netmimo.topology import place_grid

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


# name: the --policies tokens of a `sizes` call on the 4x4 grid at gamma 0.6,
# 20 and 60 dB. uniform:conventional has a call of its own, since its rows
# read like those of uniform.
SIZES_GOLDEN = {
    "sizes_grid4": ["conventional", "distance", "distance:0.75", "uniform", "cluster:4", "zero"],
    "sizes_grid4_uniform_conventional": ["uniform:conventional"],
}
SIZES_ARGS = ["sizes", "--grid-side", "4", "--gamma", "0.6", "--snr-db", "20", "60"]


def _sizes_csv(name: str, outdir: Path) -> bytes:
    table = outdir / "sizes.csv"
    assert main([*SIZES_ARGS, "--policies", *SIZES_GOLDEN[name], "--output", str(table)]) == 0
    return table.read_bytes()


@pytest.mark.parametrize("name", sorted(SIZES_GOLDEN))
def test_size_table_matches_golden(name, tmp_path):
    assert _sizes_csv(name, tmp_path) == (DATA / f"{name}.csv").read_bytes()


BITS_GOLDEN = DATA / "bits_grid4_sha256.csv"


def _bits_sha256() -> str:
    """The SHA-256 of the bytes of every policy's bit table behind the size
    golden files, and of the perfect policy's."""
    layout = place_grid(4)
    rows = ["policy,snr_db,sha256\n"]
    for token in ["perfect", *SIZES_GOLDEN["sizes_grid4"], *SIZES_GOLDEN["sizes_grid4_uniform_conventional"]]:
        for db in (20.0, 60.0):
            bits = build_allocation(parse_policy(token), layout, 0.6, db_to_linear(db)).bits
            rows.append(f"{token},{db:g},{hashlib.sha256(bits.tobytes()).hexdigest()}\n")
    return "".join(rows)


def test_bit_tables_match_golden():
    assert _bits_sha256() == BITS_GOLDEN.read_text()


VERIFY_GOLDEN = DATA / "verify_seed7_trials200.csv"
# The benchmark's call shape: run_verification at its defaults.
VERIFY800_GOLDEN = DATA / "verify_seed7_trials800.csv"


def _verify_csv(trials: int = 200) -> str:
    rows = [f"{r.name},{r.measured!r},{r.bound!r}\n" for r in run_verification(seed=7, trials=trials)]
    return "check,measured,bound\n" + "".join(rows)


def test_verify_checks_match_golden():
    assert _verify_csv() == VERIFY_GOLDEN.read_text()


def test_verify_checks_at_800_trials_match_golden():
    assert _verify_csv(800) == VERIFY800_GOLDEN.read_text()


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    for golden in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as tmp:
            (DATA / f"{golden}_rates.csv").write_bytes(_rates_csv(golden, Path(tmp)))
        print(f"wrote {DATA / f'{golden}_rates.csv'}")
    for golden in sorted(SIZES_GOLDEN):
        with tempfile.TemporaryDirectory() as tmp:
            (DATA / f"{golden}.csv").write_bytes(_sizes_csv(golden, Path(tmp)))
        print(f"wrote {DATA / f'{golden}.csv'}")
    BITS_GOLDEN.write_text(_bits_sha256())
    print(f"wrote {BITS_GOLDEN}")
    VERIFY_GOLDEN.write_text(_verify_csv())
    print(f"wrote {VERIFY_GOLDEN}")
    VERIFY800_GOLDEN.write_text(_verify_csv(800))
    print(f"wrote {VERIFY800_GOLDEN}")
