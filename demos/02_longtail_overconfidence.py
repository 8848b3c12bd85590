"""
Long-tailed data makes plain cross-entropy over-confident
=========================================================

Generate synthetic blob datasets with increasing imbalance factors, train a
one-stage cross-entropy model on each, and watch the expected calibration
error climb while confidence outpaces accuracy.

Runs in well under a minute on one core.
"""

import numpy as np

from ltcalib.calib import ece, reliability_bins
from ltcalib.data import gen_gaussian_blobs, make_longtail_profile
from ltcalib.trainer import TrainConfig, run

CFG = dict(
    stage1_epochs=15,
    stage1_schedule={"kind": "multistep", "milestones": [10, 13], "factor": 0.1},
    mixup_stage1=False,
    stage2_epochs=0,  # one-stage: no classifier retraining
    seed=0,
)

print(f"{'beta':>6} {'test acc%':>10} {'ece%':>8} {'direction':>16}")
last = None
for n_min in (500, 50, 5):  # beta = 1, 10, 100
    counts = make_longtail_profile(500, n_min, 10)
    ds = gen_gaussian_blobs(counts, dim=16, spread=0.45, seed=0)
    result = run(TrainConfig(**CFG), ds)
    model = result["model"]
    log = model.prediction_log(ds.test_features, ds.test_labels)
    report = ece(log, 15)
    print(f"{ds.imbalance_factor:6.0f} {result['final']['accuracy']:10.2f} "
          f"{report.ece_percent:8.2f} {report.direction:>16}")
    last = log

# reliability diagram (text form) for the most imbalanced run
print("\nreliability bins at beta=100 (confidence vs accuracy):")
for row in reliability_bins(last, 15):
    if row["count"] == 0:
        continue
    bar = "#" * int(row["accuracy"] * 40)
    print(f"  ({row['bin_lo']:.2f},{row['bin_hi']:.2f}] n={row['count']:4d} "
          f"conf={row['confidence']:.2f} acc={row['accuracy']:.2f} {bar}")
