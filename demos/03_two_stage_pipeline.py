"""
The full two-stage recipe, end to end
=====================================

Stage 1 trains the backbone with instance-balanced batches and mixup.
Stage 2 freezes the backbone, lets the batch-norm running statistics shift
to the class-balanced input distribution, and retrains only the classifier
head with label-aware smoothing.

Compares the result against a plain one-stage baseline on the same data and
inspects the per-class weight norms of the retrained head.
"""

import numpy as np

from ltcalib.data import gen_gaussian_blobs, make_longtail_profile
from ltcalib.trainer import TrainConfig, run

ds = gen_gaussian_blobs(make_longtail_profile(500, 5, 10), dim=16, spread=0.45, seed=300)
print(f"dataset: 10 classes, beta={ds.imbalance_factor:.0f}, splits "
      f"many/medium/few = {[ds.splits.count(t) for t in ('many', 'medium', 'few')]}")

shared = dict(
    stage1_epochs=25,
    stage1_schedule={"kind": "multistep", "milestones": [17, 22], "factor": 0.1},
    eps1=0.3, eps_k=0.0, lr_ratio_dw=0.5,
    bn_warm_steps=300, bn_concurrent=False,
    seed=300,
)

plain = run(TrainConfig(**shared, mixup_stage1=False, shift_bn=False, stage2_epochs=0), ds)
full = run(TrainConfig(**shared, mixup_stage1=True, shift_bn=True, stage2_loss="las"), ds)

print(f"\n{'':14} {'acc%':>7} {'few acc%':>9} {'ece%':>7}")
for name, res in (("one-stage CE", plain), ("two-stage", full)):
    f = res["final"]
    print(f"{name:14} {f['accuracy']:7.2f} {f['acc_few']:9.2f} {f['ece']:7.2f}")

# compare per-class classifier norms before and after retraining: the head
# rescales columns to counter the head-class bias of stage 1
head = full["model"].classifier
eff, raw = head.weight_norms()
print(f"\n{'class':>5} {'count':>6} {'stage-1 |w|':>12} {'retrained |w|':>14}")
for j, (c, r, e) in enumerate(zip(ds.class_counts, raw, eff)):
    print(f"{j:5d} {c:6d} {r:12.3f} {e:14.3f}")

raw_cv = np.std(raw) / np.mean(raw)
eff_cv = np.std(eff) / np.mean(eff)
print(f"\nnorm spread (std/mean): stage-1 {raw_cv:.3f} -> retrained {eff_cv:.3f}")
