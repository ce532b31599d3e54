#!/usr/bin/env python3
"""Measured versus analytic gains: spatial harmonics and temporal frequencies.

Runs the exponential rule on a ring of spatial cosines and the time-varying
exponential rule on temporal cosines, then prints simulated/closed-form gain
pairs side by side.
"""
import argparse
import math

from lacsim import (ChainConfig, DynamicExponential, ExponentialWeighting,
                    MeasurementField, Ring, SpatialCosine, TemporalCosine, h_exp,
                    k_temporal_exp, measure_gain, run, settle_rounds)


def spatial_sweep(n, rho, harmonics):
    settle = settle_rounds(ExponentialWeighting(rho))
    cfg = ChainConfig(n=n, boundary=Ring(), rounds=settle)
    print(f"spatial, rho={rho}, ring n={n}, settle={settle}")
    print(f"{'omega':>10} {'analytic':>12} {'measured':>12} {'phase':>10}")
    for m in harmonics:
        omega = 2 * math.pi * m / n
        field = MeasurementField(SpatialCosine(1.0, omega))
        trace = run(cfg, field, ExponentialWeighting(rho))
        est = measure_gain(trace, field, omega, "spatial", settle)
        print(f"{omega:10.5f} {h_exp(rho, omega):12.8f} {est.gain:12.8f} {est.phase:10.2e}")


def temporal_sweep(rho, omegas):
    settle = settle_rounds(DynamicExponential(rho))
    print(f"temporal, rho={rho}, settle={settle}")
    print(f"{'omega':>10} {'analytic':>12} {'measured':>12} {'phase':>10}")
    for omega in omegas:
        span = max(math.ceil(4 * math.pi / omega), 64)
        cfg = ChainConfig(n=5, boundary=Ring(), rounds=settle + span)
        field = MeasurementField(TemporalCosine(1.0, omega))
        trace = run(cfg, field, DynamicExponential(rho))
        est = measure_gain(trace, field, omega, "temporal", settle)
        print(f"{omega:10.5f} {k_temporal_exp(rho, omega)[0]:12.8f} "
              f"{est.gain:12.8f} {est.phase:10.5f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rho", type=float, default=0.9)
    parser.add_argument("--n", type=int, default=256)
    args = parser.parse_args()
    spatial_sweep(args.n, args.rho, (1, 2, 4, 8, 16, 32))
    print()
    temporal_sweep(args.rho, (0.02, 0.05, 0.1, 0.2, 0.5, 1.0))


if __name__ == "__main__":
    main()
