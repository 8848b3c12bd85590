"""Two-stage long-tailed classification with calibration measurement.

Submodules:
  tensor  - float64 tensors with reverse-mode autodiff
  data    - synthetic long-tailed datasets, samplers, mixup
  net     - linear / batch-norm / ReLU layers and the MLP backbone
  losses  - soft-target CE, weighted CE, label-aware smoothing
  head    - the classifier: the head (cRT / LWS / generalized) and its Stage-1 form
  calib   - ECE, reliability bins, split accuracy, probability distributions
  trainer - the two-stage pipeline and ablation grid
  artifacts - atomic file writes in one JSON and one CSV format
  cli     - command-line interface
"""

from .calib import PredictionLog, ece, reliability_bins, split_accuracy
from .data import LongTailedDataset, Sampler, gen_gaussian_blobs, make_longtail_profile, mixup_batch
from .head import GeneralizedHead
from .losses import (
    SmoothingSchedule,
    las_optimal_logit_gap,
    las_targets,
    related_fn_eval,
    soft_ce_loss,
    weighted_ce_loss,
)
from .net import Backbone, BackboneConfig, BatchNorm, Linear
from .tensor import Tensor, matmul, relu, softmax
from .trainer import TrainConfig, evaluate, run, run_ablation_grid, train_stage1, train_stage2

__version__ = "0.1.0"
