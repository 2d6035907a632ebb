"""Counterfactual explanations for black-box classifiers.

Searches an attribute-informed latent space by gradient descent to find a
nearby instance the classifier places in a desired class, and ships the
training, baseline, metric, and application layers needed to evaluate that
search end to end.
"""

__version__ = "0.1.0"

from .applications import (
    RankedAttribute,
    RetrainReport,
    attribute_interaction_ranking,
    augment_with_counterfactuals,
    mean_attribute_ranking,
    retrain_comparison,
    strip_augmentation,
)
from .datasets import AttributedDataset, SynthSpec, generate, load_dataset, save_dataset
from .engine import (
    CounterfactualLoss,
    CounterfactualResult,
    LossTrace,
    PerturbConfig,
    attribute_preservation,
    counterfactual_loss,
    gradient_sign_attack,
    input_space_descent,
    latent_descent,
    latent_random_search,
    read_results_jsonl,
    write_pgm,
    write_results_jsonl,
)
from .errors import (
    ConfigurationError,
    DimensionError,
    FormatError,
    InvariantViolation,
    NumericalError,
    PartialResultWarning,
    TrainingError,
    TrainingQualityWarning,
    UnsupportedVersionError,
)
from .metrics import (
    BenchmarkRecipe,
    BenchmarkReport,
    Method,
    MethodStats,
    SweepPoint,
    alpha_sweep,
    benchmark_recipe,
    build_methods,
    flipping_ratio,
    latent_perturbation_ratio,
    latent_threshold,
    run_benchmark,
)
from .models import (
    Discriminator,
    GenerativeConfig,
    GenerativeModel,
    LatentPoint,
    TargetModel,
    TrainConfig,
    decode,
    encode,
    load_discriminator,
    load_generative,
    load_target,
    save_discriminator,
    save_generative,
    save_target,
    train_discriminator,
    train_generative,
    train_target,
)
from .nn import (
    DenseNetwork,
    GradientTape,
    Layer,
    build_network,
    cross_entropy,
    forward,
    forward_trace,
    l2_distance,
    parameter_digest,
    sgd_step,
    vjp,
)
