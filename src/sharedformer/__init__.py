"""Parameter-shared Conformer pretraining with per-iteration depth sampling,
shallow-layer inference, and layer-similarity diagnostics."""

from .autodiff import Tensor, grad_check, precision, set_default_dtype
from .encoder import (ConformerConfig, LayerTrace, ParameterStore,
                      conformer_block, forward, param_count, sample_depth,
                      sli_forward)
from .features import (FeatureSequence, LabeledCorpus, load_features,
                       save_features, synth_corpus)
from .masking import MaskConfig, MaskPlan, apply_masks, plan_masks
from .training import (TrainConfig, TrainResult, TrainState, adam_step,
                       mpc_loss, noam_lr, predictor_apply, train)
from .diagnostics import (ConsistencyReport, FlopReport, GradDecomposition,
                          ProbeResult, flop_report, gradient_decomposition,
                          layer_transitions, linear_probe, project_2d,
                          sli_sweep)

__version__ = "0.1.0"
