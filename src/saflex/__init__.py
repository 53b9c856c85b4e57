"""saflex: validation-guided reweighting and relabeling of augmented samples.

Each training iteration scores every augmented sample's candidate labels
by how well a descent step on them aligns with the validation gradient,
then assigns soft labels and keep-weights in closed form before the
parameter update.
"""

from .augment import AugmenterSpec, apply_augmenter
from .core import (
    SaflexConfig,
    SaflexOutput,
    closed_form_assignment,
    combined_step_gradient,
    pi_scores,
    saflex_assign,
    saflex_gradient,
    validation_gradient,
)
from .data import Batch, Dataset, SplitSpec, gen_two_gaussians, gen_two_moons, load_csv, split
from .losses import (
    ContrastiveBatch,
    ce_from_logits,
    ce_grad_logits,
    hard_ce,
    infonce_loss,
    normalize_rows,
    one_hot,
    weighted_soft_ce,
    weighted_soft_clip,
)
from .nn import (
    CHECKPOINT_MAGIC,
    ForwardCache,
    ModelParams,
    ParamGrad,
    init_mlp,
    jvp_logits_batch,
    load_checkpoint,
    mlp_backward,
    mlp_forward,
    param_dot,
    save_checkpoint,
    sgd_step,
    softmax,
)
from .oracle import (
    Assignment,
    assignment_objective,
    enumerate_optimum_scores,
    finite_diff,
    post_step_val_loss,
)
from .trainer import DivergenceError, MetricsRow, RunConfig, evaluate, train

__version__ = "0.1.0"
