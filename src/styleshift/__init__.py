"""Style-statistics manipulation for domain generalization.

Training-time style balancing equalizes per-class domain counts inside each
mini-batch by restyling redundant samples; test-time style shifting
renormalizes out-of-distribution test samples to the nearest source-domain
style before prediction. A small convolutional network, a synthetic
multi-domain dataset and an experiment harness make every mechanism testable
at desk scale.
"""

__version__ = "0.1.0"

from .tensor_core import (
    EPS_STD,
    ChannelStats,
    channel_mean,
    channel_std,
    channel_stats,
    style_vector,
)
from .style_ops import adain, efdm, efdmix, sample_lambda
from .style_balance import (
    BatchMeta,
    MovePlan,
    compute_targets,
    move_slots,
    pick_style_carriers,
    select_samples,
    style_balance_batch,
)
from .test_time_shift import (
    OFF,
    PROPOSED,
    SHIFT_ALL,
    SINGLE_DOMAIN,
    DomainRegistry,
    ShiftDecision,
    ShiftMode,
    build_registry,
    decide,
    load_registry,
    nearest_sample,
    pseudo_domains,
    registry_from_styles,
    save_registry,
    ts_apply,
)
from .micro_net import MicroNet, NetConfig, TrainConfig, evaluate, train
from .domain_data import (
    DatasetManifest,
    DomainStyle,
    ImbalanceSpec,
    apply_imbalance,
    gen_dataset,
    load_manifest,
    read_pnm,
    save_manifest,
    source_styles,
    target_style,
    write_pnm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
