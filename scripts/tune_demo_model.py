#!/usr/bin/env python3
"""Parameter chooser for the shipped two-state demo model.

Sweeps burst-rate parameter sets, runs the exact factor flow for each, and
reports which candidates keep every numerical guard clear: sigma~2 must stay
inside (TOL_DEGEN-safe, 1 - TOL_SAT) over [t_seed, t_f], and the flow must
track the finely integrated propagator to the stated budget. The shipped
defaults, the keyword defaults of `svdflow.models.two_state_demo`, come
from this sweep.
"""

import argparse
import itertools
import sys

import numpy as np

from svdflow.config import RunConfig, build_generator
from svdflow.errors import NumericalGuardError
from svdflow.runner import oracle_propagators, run_qsvd
from svdflow.svdeom import TOL_DEGEN, TOL_SAT, reconstruct_phi


def evaluate(params, budget):
    cfg = RunConfig(model_params=params).validate()
    gen = build_generator(cfg)
    try:
        result = run_qsvd(cfg, gen)
    except NumericalGuardError as exc:
        return {"ok": False, "reason": f"{type(exc).__name__}: {exc}"}
    oracles = oracle_propagators(cfg, gen)
    flow_err = max(np.abs(reconstruct_phi(f) - phi).max()
                   for f, phi in zip(result.factors, oracles))
    tildes = np.array([f.tilde[1] for f in result.factors])
    ok = (flow_err <= budget
          and tildes.max() <= 1.0 - TOL_SAT
          and (1.0 - tildes).min() >= TOL_DEGEN)
    return {"ok": ok, "flow_err": flow_err,
            "tilde2_range": (float(tildes.min()), float(tildes.max())),
            "max_dP_D": result.summary["max_abs_dP_D"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=float, default=1e-4,
                        help="max allowed factor-flow propagator error")
    parser.add_argument("--k0", type=float, nargs="+", default=[4.0, 8.5, 16.0],
                        help="donor->acceptor burst rates to try (k0_ad = k0/2)")
    parser.add_argument("--tau", type=float, nargs="+",
                        default=[0.006, 0.012, 0.05],
                        help="burst decay times to try")
    args = parser.parse_args(argv)

    best = None
    for k0, tau in itertools.product(args.k0, args.tau):
        params = {"k0_da": k0, "k0_ad": k0 / 2.0, "tau_da": tau, "tau_ad": tau}
        verdict = evaluate(params, args.budget)
        tag = "OK " if verdict["ok"] else "bad"
        if "flow_err" in verdict:
            print(f"{tag} k0={k0:6.2f} tau={tau:6.3f}  "
                  f"flow_err={verdict['flow_err']:.2e}  "
                  f"tilde2 in [{verdict['tilde2_range'][0]:.3f}, "
                  f"{verdict['tilde2_range'][1]:.3f}]")
        else:
            print(f"{tag} k0={k0:6.2f} tau={tau:6.3f}  {verdict['reason']}")
        if verdict["ok"] and (best is None
                              or verdict["flow_err"] < best[1]["flow_err"]):
            best = (params, verdict)

    if best is None:
        print("no candidate satisfied all guards")
        return 1
    print("\nbest candidate:", best[0])
    print(f"flow error {best[1]['flow_err']:.2e}, "
          f"max |dP_D| {best[1]['max_dP_D']:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
