"""Unsupervised point-cloud feature learning via balanced OT soft clustering."""

from .cloud import (PointCloud, default_palette, downsample_random, export_labeled_ply,
                    load_cloud, normalize)
from .clustering import (Prototypes, SolverConfig, TransportPlan,
                         assign_l2_labels, assign_soft_labels, compute_cost,
                         compute_prototypes, point_block, sinkhorn)
from .encoder import (EncoderConfig, EncoderParams, ForwardTrace, backward, forward,
                      init_params, load_checkpoint, save_checkpoint)
from .errors import (CheckpointError, ConfigError, DivisibilityError, NumericalError,
                     OtcluError, ParseError, ShapeError, SizeError)
from .losses import LossReport, logit_gradient, orth_loss, soft_ce_loss, total_loss
from .trainer import (EStepResult, TrainConfig, TrainState, e_step, lr_at_epoch,
                      m_step, pretrain)

__version__ = "0.1.0"
