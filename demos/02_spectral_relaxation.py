"""Relaxation on uniform chains and trees: closed forms against the ODE.

Shows the eigenvalue hierarchy of the uniform-chain rate matrix, compares
the closed-form autocorrelation with direct integration of dP/dt = eps*P,
evaluates the survival probability, and from it M*(1 - survival), then
switches to explicit tree topologies where relaxation turns into a sum of
exponentials, one per hierarchy level.
"""

import numpy as np

from ultradiffusion.fitting import UltradiffusionParams
from ultradiffusion.generator import build_generator
from ultradiffusion.oracle import ProbabilityVector, integrate_master_equation
from ultradiffusion.spectral import (
    TreeModel,
    autocorrelation_chain,
    caterpillar_tree,
    chain_spectrum,
    space_from_tree,
    survival_probability,
    tree_autocorrelation,
)
from ultradiffusion.traces import uniform_grid
from ultradiffusion.ultrametric import uniform_chain

T_N = 8
MU = 0.3
M = 500


def banner(title: str) -> None:
    print(f"\n=== {title} ===")


def star_tree(n: int, height: float) -> TreeModel:
    # Trees are numbered in depth-first pre-order: the root, then its n leaves.
    return TreeModel([-1] + [0] * n, [height] + [0.0] * n)


def main() -> None:
    banner(f"Spectrum of the {T_N}-state uniform chain, mu = {MU}")
    spec = chain_spectrum(T_N, MU)
    print("eigenvalues, slowest first:")
    print(np.array2string(spec.eigenvalues, precision=4, suppress_small=True))
    print("one zero mode (the stationary state); the rest form a hierarchy")
    print(f"of time scales from {1 / abs(spec.eigenvalues[1]):.2f} down to "
          f"{1 / abs(spec.eigenvalues[-1]):.3f}")

    banner("Closed-form autocorrelation vs integrated master equation")
    window = 5.0 / abs(spec.eigenvalues[1])
    grid = uniform_grid(window, 60)
    gen = build_generator(uniform_chain(T_N), MU)
    p0 = ProbabilityVector.characteristic(T_N, 1)
    trajectory = integrate_master_equation(gen, p0, grid)
    closed = autocorrelation_chain(spec, 1, grid)
    gap = np.max(np.abs(trajectory[:, 0] - closed))
    print(f"start in state 1, integrate over five relaxation times "
          f"({window:.1f} time units, 60 points)")
    print(f"largest |closed form - ODE| = {gap:.3e}")
    print(f"long-time limit 1/t_N = {1 / T_N:.4f}; "
          f"closed form at t = {grid[-1]:.1f}: {closed[-1]:.4f}")

    banner("Survival and expected responses")
    params = UltradiffusionParams(t_N=T_N, mu=MU, M=M)
    times = np.array([0.0, window / 5, window])
    surv = survival_probability(T_N, MU, times)
    expect = params.M * (1.0 - surv)
    print(f"{'t':>8}{'survival':>12}{'E[responses]':>14}")
    for t, s, r in zip(times, surv, expect):
        print(f"{t:>8.2f}{s:>12.4f}{r:>14.2f}")
    print(f"saturation level: M * (t_N - 1)/t_N = {M * (T_N - 1) / T_N:.1f} of {M}")

    banner("Star tree: single relaxation scale")
    star = star_tree(6, 1.5)
    t = np.array([0.0, 0.5, 2.0])
    vals = tree_autocorrelation(star, 1, t)
    n = star.n_leaves
    rate = n * np.exp(-1.5)
    analytic = 1 / n + (1 - 1 / n) * np.exp(-t * rate)
    print(f"six leaves under one root at height 1.5; relaxation rate {rate:.4f}")
    print(f"tree formula:  {np.array2string(vals, precision=6)}")
    print(f"closed form:   {np.array2string(analytic, precision=6)}")

    banner("Caterpillar tree reproduces the uniform chain")
    cat = caterpillar_tree(5, 0.4)
    space = space_from_tree(cat)
    chain = uniform_chain(5)
    print("one leaf per spine level; leaf-to-leaf distances are 0.4 times")
    print("the chain distances:")
    print(f"max |tree dist - 0.4 * chain dist| = "
          f"{np.max(np.abs(space.dist - 0.4 * chain.dist)):.3e}")

    banner("Binary tree: late-time power-law flavor")
    # Pre-order: each internal node at height h is followed by its left
    # subtree, then its right one.
    tree = TreeModel(
        [-1, 0, 1, 2, 2, 1, 5, 5, 0, 8, 9, 9, 8, 12, 12],
        [3.0, 2.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
    )
    late = np.linspace(10.0, 40.0, 7)
    vals = tree_autocorrelation(tree, 1, late)
    print("depth-3 binary tree, unit level spacing, 8 leaves")
    print(f"{'t':>8}{'P_leaf(t)':>14}")
    for t_k, v in zip(late, vals):
        print(f"{t_k:>8.1f}{v - 1 / tree.n_leaves:>14.6f}")
    print("(stationary part 1/8 subtracted; decay is a sum of three scales)")


if __name__ == "__main__":
    main()
