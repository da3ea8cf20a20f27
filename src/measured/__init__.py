"""Masked measurement prediction toolkit.

Reconstructs the number, unit, and physical dimension hidden behind
``[#NUM]``/``[#UNIT]`` masks in text.  The package provides SI dimension and
unit algebra, measurement corpus ingestion and masking, a family of joint
number/unit/dimension probabilistic models over a pluggable text encoder,
gradient training, and an evaluation harness.
"""

from measured.data import (
    DatasetSplit,
    IngestResult,
    MeasurementExample,
    exponent_bin,
    fewshot_sample,
    ingest,
    parse_convert_template,
    split,
    stats,
    tokenize,
)
from measured.encoding import EncoderConfig, HashedNgramEncoder, export_embeddings
from measured.evaluation import EvalReport, evaluate, hungarian_map, log_mae
from measured.model import (
    MeasurementModel,
    ModelSpec,
    Prediction,
    load_model,
    save_model,
)
from measured.synth import SynthConfig, generate_records
from measured.training import TrainConfig, train
from measured.units import (
    BASE_DIMENSIONS,
    Dimension,
    IncompatibleDimensions,
    Unit,
    UnitRegistry,
    UnknownDimension,
    UnknownUnit,
    convert,
    default_registry,
    load_registry,
    manhattan_distance,
    parse_registry,
)

__version__ = "0.1.0"
