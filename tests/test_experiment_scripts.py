"""What the experiment scripts print and write, on canned runs."""

import pytest

from conftest import load_script
from saflex.trainer import MetricsRow, metrics_csv

sweep_script = load_script("jitter_sweep")
label_noise_script = load_script("label_noise_exp")

# seeds 0-4 move a run's accuracy by 0.00-0.04: every mean is the seed-0
# accuracy + 0.02, and every std is sqrt(2e-4) = 0.0141
_SEED_SHIFT = 0.01


def _history(test_acc):
    return [MetricsRow(epoch, 0.5, 0.4, test_acc, 1.0, 0.0, 0.0, 0.25) for epoch in range(2)]


def test_jitter_sweep_prints_the_table_and_writes_one_csv_per_run(tmp_path, monkeypatch, capsys):
    def run_point(mode, sigma, seed):
        acc = {"none": 0.8, "naive": 0.9 - sigma / 10, "saflex": 0.9}[mode]
        return _history(acc + _SEED_SHIFT * seed)

    monkeypatch.setattr(sweep_script, "run_point", run_point)
    sweep_script.main(["--out", str(tmp_path)])
    assert capsys.readouterr().out == (
        "no augmentation: 0.8200 +- 0.0141\n"
        " sigma            naive           saflex\n"
        "  0.25   0.8950 +-0.0141   0.9200 +-0.0141\n"
        "  0.50   0.8700 +-0.0141   0.9200 +-0.0141\n"
        "  1.00   0.8200 +-0.0141   0.9200 +-0.0141\n"
        "  2.00   0.7200 +-0.0141   0.9200 +-0.0141\n"
        "  4.00   0.5200 +-0.0141   0.9200 +-0.0141\n"
    )
    names = {f"none_seed{seed}.csv" for seed in range(5)} | {
        f"{mode}_sigma{tag}_seed{seed}.csv"
        for mode in ("naive", "saflex")
        for tag in ("0p25", "0p5", "1p0", "2p0", "4p0")
        for seed in range(5)
    }
    assert {p.name for p in tmp_path.iterdir()} == names
    assert (tmp_path / "naive_sigma0p25_seed3.csv").read_bytes() == (
        metrics_csv(_history(0.9 - 0.025 + 3 * _SEED_SHIFT)).encode())


def test_label_noise_prints_accuracies_and_relabel_rates(monkeypatch, capsys):
    def run_mode(mode, seed):
        acc = {"none": 0.8, "naive": 0.7, "saflex": 0.9}[mode] + _SEED_SHIFT * seed
        return acc, dict(hit=seed, miss=1, changed=seed + 1, total=10 * (seed + 1))

    monkeypatch.setattr(label_noise_script, "run_mode", run_mode)
    label_noise_script.main([])
    assert capsys.readouterr().out == (
        "none   : 0.8200 +- 0.0141\n"
        "naive  : 0.7200 +- 0.0141\n"
        "saflex : 0.9200 +- 0.0141\n"
        # pooled over runs: 15 of 150 samples relabeled, 10 of them corrupted
        "relabeled 0.100 of augmented samples; precision vs corruption mask 0.667\n"
    )


@pytest.mark.parametrize("script, flag", [(sweep_script, "--sigmas"),
                                          (label_noise_script, "--seeds")],
                         ids=["jitter_sweep", "label_noise_exp"])
def test_the_scripts_take_no_flag_but_out(script, flag, capsys):
    with pytest.raises(SystemExit):
        script.main([flag, "1"])
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
