"""Local average consensus on 1D sensor chains: simulator, oracles, analysis."""

from .analysis import (BandwidthResult, GainEstimate, GlobalAverage, MatchedRho, NoiseReport,
                       bandwidth, h_exp, h_window, k_temporal_exp, k_temporal_window,
                       measure_gain, monte_carlo_noise, noise_var_exp, noise_var_global,
                       noise_var_window, settle_rounds, variance_match_rho)
from .arbitrary_weights import (BandedWeighting, FBState, WeightReport, WeightTable,
                                fb_transition, glue, validate_weights)
from .chain import (AlgorithmSpec, Boundary, ChainConfig, ConsensusTrace, MessageRecord,
                    Ring, Truncated, ZeroHalo, audit_locality, run, trace_to_csv)
from .dynamic_rules import (DynamicExponential, DynamicWindow, assemble_y,
                            dyn_exp_transition, z_slot_transition)
from .errors import (DivergedError, HistoryError, NeedsMoreSensorsError, OutOfDomainError,
                     TerminatedError, ValidationError)
from .fields import (Constant, Cosine, Impulse, MeasurementField, Noise, SpatialCosine,
                     SumField, TableField, TemporalCosine, evaluate_field, evaluate_grid,
                     random_space_time_table, random_spatial_table)
from .spacing import (ExpGaps, SpacingDraw, SpacingMCReport, SpacingModel, SpacingMoments,
                      UniformGaps, k_poisson, k_uniform, monte_carlo_spacing,
                      sample_spacings, spacing_moments, table_from_draw, weighted_target)
from .static_rules import (AsymmetricWeighting, ExponentialWeighting, FiniteWindow,
                           PerSensorWindow, asym_transition, exp_transition,
                           variable_window_transition, window_transition)

__version__ = "0.1.0"
