"""dmidas: long-horizon time-series forecasting with doubly-residual blocks,
pooled inputs and interpolated low-dimensional forecast coefficients.
"""

from .engine import (GradCheckReport, GradientTape, Tensor, affine, grad_check,
                     interp_upsample, interpolation_matrix, loss, pool1d, project,
                     relu)
from .errors import (ConfigError, DataError, DmidasError, NumericsError,
                     ShapeError, TrainingError)
from .params import OptimizerState, Param, ParameterStore, adam_step, l1_penalty
from .blocks import (BlockConfig, BlockOutput, PoolSpec, block_forward,
                     generic_basis, harmonic_basis, midas_basis, polynomial_basis)
from .model import (ForecastBundle, MlpConfig, ModelConfig, StackConfig,
                    build_any, build_mlp_baseline, build_model, count_parameters,
                    expressivity_schedule, generic_twin, load_checkpoint,
                    save_checkpoint)
from .data import (CsvSchema, GaussianNoise, LinearTrend, Series, Sinusoid,
                   SyntheticSpec, TimeSeriesDataset, export_results,
                   generate_synthetic, load_csv, multifreq_v1, save_dataset_csv)
from .training import (EnsembleConfig, TrainConfig, TrainResult, Window,
                       ensemble_forecast, make_windows, median_abs_scales,
                       normalize, prepared_windows, split_tail, train,
                       train_ensemble)
from .metrics import (BenchmarkProtocol, MetricsReport, ModelSpec, mae,
                      relative_improvement, render_table, rmse, run_benchmark,
                      score_windows, seasonal_naive_forecast)
from .search import (Choice, IntRange, LogUniform, SearchSpace, Trial,
                     default_search_space, random_search, sample_config)

__version__ = "0.1.0"
