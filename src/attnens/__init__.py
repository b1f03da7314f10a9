"""Channel-gated CNN classifiers with transfer learning and ensembling.

Small, dependency-light library: hand-written layers with verified
gradients, a channel-attention block, an SGD-with-momentum trainer, a
synthetic dataset generator, checkpointing, and weighted-average prediction
ensembles.  See the demos directory for narrative walkthroughs.
"""

import os as _os
import sys as _sys

from .errors import ConfigError

# Cap BLAS thread pools before numpy is first imported anywhere in the
# package.  0 or unset leaves the backend's own default in place.
_BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _requested_threads() -> int:
    """The BLAS thread count ``ATTN_ENS_THREADS`` asks for; 0 when unset.

    Surrounding blanks and leading zeros are dropped, so ``01`` asks for 1.
    Anything but a non-negative ASCII integer raises ConfigError; the CLI
    checks this at startup (exit 2), while importing the package skips the
    cap with a ``RuntimeWarning`` that names the value.
    """
    value = _os.environ.get("ATTN_ENS_THREADS", "0")
    stripped = value.strip()
    if not (stripped.isascii() and stripped.isdigit()):
        raise ConfigError(
            f"ATTN_ENS_THREADS must be a non-negative integer (0 = auto), got {value!r}"
        )
    return int(stripped)


try:
    _threads = _requested_threads()
except ConfigError as _error:
    import warnings

    warnings.warn(
        f"{_error}: the BLAS thread cap is skipped and BLAS keeps its own thread count",
        RuntimeWarning,
    )
    _threads = 0
if _threads:
    for _var in _BLAS_THREAD_VARS:
        _os.environ.setdefault(_var, str(_threads))
    if "numpy" in _sys.modules:
        import warnings

        warnings.warn(
            "ATTN_ENS_THREADS is set but numpy was imported before attnens: BLAS keeps "
            "its own thread count, and evaluate and train run in one process",
            RuntimeWarning,
        )

# Whether the cap holds BLAS to one thread: it is 1, no variable was already
# set to another count, and numpy had not loaded BLAS before the cap was set.
# trainer.evaluate then splits its batches over the idle cores, and
# trainer.train a frozen-backbone epoch's frozen prefix.
_one_blas_thread = (
    _threads == 1
    and "numpy" not in _sys.modules
    and all(_os.environ[_var] == "1" for _var in _BLAS_THREAD_VARS)
)

from .attention import AttentionConfig, ca_backward, ca_forward
from .checkpoint import load_checkpoint, load_model, save_model
from .data import Dataset, Sample, crop_bbox, load_dataset, read_label_table
from .ensemble import (
    EnsembleSpec,
    PredictionMatrix,
    accuracy,
    combine,
    per_class_accuracy,
    read_matrix,
    select_best_k,
    write_matrix,
)
from .errors import (
    AlignmentError,
    CheckpointError,
    ConfigError,
    IngestError,
    ManifestError,
    MatrixParseError,
    MissingBboxError,
    NumericError,
    PrecisionError,
    ShapeError,
    TransferError,
    UnsupportedVersionError,
)
from .gradcheck import AuditRow, audit_gradients, grad_check, numeric_gradient, relative_error
from .imageops import AugmentConfig, AugmentDraw, augment, draw_augment_params, resize_bilinear
from .layers import ForwardMode, LayerParams
from .model import (
    ConvBlockConfig,
    Model,
    ModelConfig,
    build_model,
    desk_config,
    forward,
    paper_config,
    transfer,
)
from .ppm import read_ppm, write_ppm
from .synth import SynthSpec, synth_dataset, write_synth_dataset
from .trainer import (
    EpochStats,
    TrainConfig,
    cross_entropy,
    evaluate,
    sgd_momentum_step,
    train,
    write_history_csv,
)

__version__ = "0.1.0"
