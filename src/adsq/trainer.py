"""Alternating training loop: label network first, then rounds of weight
updates and discrete code updates for both image networks.

Per outer round: (optionally) refresh the label network and its cached
supervision, run ``t_img`` weight epochs per image network with codes
fixed, then one coordinate-descent sweep of each code matrix with weights
fixed; each code matrix is a plain float64 array of +-1, updated in place.
Each phase logs one ``log_row`` of the terms its objective returns by name.
The learning rate walks a geometric grid, one point per round, clamped at
the last point. In the symmetric variant a single image network backs both
halves of the final code.
"""

import os
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .bstep import bstep_sweep
from .codes import pack, quantize_sign, write_codes
from .config import HyperParams, Variant
from .data import Dataset
from .encoder import MomentumSGD, forward_rows, init_params, save_params
from .errors import DataError, TrainingError
from .fileio import write_csv
from .imgnet import full_objective, wstep_epoch
from .labelnet import init_head, labelnet_loss, train_labelnet

MODEL_FILES = ("label.net", "imgx.net", "imgy.net")
CODE_FILES = ("codes_x.adsqb", "codes_y.adsqb")
LOG_FILE = "train_log.csv"

CONVERGENCE_TOL = 1e-4
CONVERGENCE_PATIENCE = 2

# fixed stream ids feeding per-purpose RNGs derived from the run seed
_STREAM_LABEL_INIT = 0
_STREAM_HEAD_INIT = 1
_STREAM_IMGX_INIT = 2
_STREAM_IMGY_INIT = 3
_STREAM_LABEL_BATCH = 4
_STREAM_IMGX_BATCH = 5
_STREAM_IMGY_BATCH = 6


def subseed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


@dataclass
class LogRow:
    round: int
    phase: str
    loss_total: float
    j1: float
    j2: float
    j3: float
    j4: float
    asym: float = 0.0


def log_row(rnd, phase, terms) -> LogRow:
    """One log row from an objective's weighted terms, given in log-column
    order (``labelnet_loss`` fills j1..j4, ``full_objective`` also asym)."""
    return LogRow(rnd, phase, sum(terms.values()), *terms.values())


@dataclass
class TrainState:
    label_params: object
    imgx_params: object
    imgy_params: object
    codes_x: np.ndarray  # n x k_half float64, entries +-1
    codes_y: np.ndarray
    supervision: object
    rounds_run: int = 0
    history: list = field(default_factory=list)
    log_rows: list = field(default_factory=list)


def convergence_check(history, tol: float = CONVERGENCE_TOL,
                      patience: int = CONVERGENCE_PATIENCE) -> bool:
    """True once the relative round-to-round change stayed below ``tol``
    for ``patience`` consecutive rounds."""
    if len(history) < patience + 1:
        return False
    tail = history[-(patience + 1):]
    for prev, cur in zip(tail[:-1], tail[1:]):
        rel = abs(cur - prev) / max(abs(prev), np.finfo(np.float64).tiny)
        if rel >= tol:
            return False
    return True


def train(dataset: Dataset, hp: HyperParams) -> TrainState:
    """Run the full alternating procedure; see the module docstring."""
    symmetric = hp.variant is Variant.SYMMETRIC

    if dataset.n < hp.batch_size:
        raise DataError(f"n >= batch_size required, got n={dataset.n} < "
                        f"batch_size={hp.batch_size}")

    label_dims = [dataset.num_classes, *hp.encoder_hidden, hp.semantic_dim, hp.k_half]
    img_dims = [dataset.dim, *hp.encoder_hidden, hp.semantic_dim, hp.k_half]

    label_params = init_params(label_dims, subseed(hp.seed, _STREAM_LABEL_INIT))
    head = init_head(dataset.num_classes, hp.k_half, subseed(hp.seed, _STREAM_HEAD_INIT))
    imgx_params = init_params(img_dims, subseed(hp.seed, _STREAM_IMGX_INIT))
    imgy_params = imgx_params if symmetric else init_params(
        img_dims, subseed(hp.seed, _STREAM_IMGY_INIT))

    label_rng = np.random.default_rng(subseed(hp.seed, _STREAM_LABEL_BATCH))
    imgx_rng = np.random.default_rng(subseed(hp.seed, _STREAM_IMGX_BATCH))
    imgy_rng = np.random.default_rng(subseed(hp.seed, _STREAM_IMGY_BATCH))

    opt_label = MomentumSGD(label_params.arrays + [head.weight, head.bias],
                            hp.momentum, hp.weight_decay)
    opt_x = MomentumSGD(imgx_params.arrays, hp.momentum, hp.weight_decay)
    opt_y = None if symmetric else MomentumSGD(imgy_params.arrays, hp.momentum,
                                               hp.weight_decay)

    state = TrainState(label_params=label_params, imgx_params=imgx_params,
                       imgy_params=imgy_params, codes_x=None, codes_y=None,
                       supervision=None)

    def run_phase(rnd, phase, fn, *args):
        try:
            return fn(*args)
        except TrainingError as exc:
            raise TrainingError(f"round {rnd}, phase {phase}: {exc}") from exc

    def label_phase(rnd, lr):
        state.supervision = train_labelnet(label_params, head, dataset, hp,
                                           epochs=hp.t_label, lr=lr, rng=label_rng,
                                           optimizer=opt_label)
        state.log_rows.append(log_row(rnd, "label", labelnet_loss(
            state.supervision, head, dataset.patterns, hp)))

    def img_row(rnd, phase, outs, codes) -> LogRow:
        row = log_row(rnd, phase, full_objective(outs, dataset, codes, state.supervision, hp))
        state.log_rows.append(row)
        return row

    def wstep(rnd, lr, tag, params, codes, opt, rng):
        for _ in range(hp.t_img):
            wstep_epoch(params, dataset, codes, state.supervision, hp,
                        lr=lr, rng=rng, optimizer=opt)
        outs = forward_rows(params, dataset.features)
        img_row(rnd, f"wstep_{tag}", outs, codes)
        return outs

    def bstep(rnd, tag, outs, codes) -> float:
        bstep_sweep(codes, outs.u, dataset.patterns, hp)
        return img_row(rnd, f"bstep_{tag}", outs, codes).loss_total

    run_phase(0, "label", label_phase, 0, hp.lr_for_round(0))

    # warm-start codes from the current (still untrained) networks
    state.codes_x = quantize_sign(forward_rows(imgx_params, dataset.features).u)
    state.codes_y = state.codes_x if symmetric else quantize_sign(
        forward_rows(imgy_params, dataset.features).u)

    nets = [("x", imgx_params, state.codes_x, opt_x, imgx_rng)]
    if not symmetric:
        nets.append(("y", imgy_params, state.codes_y, opt_y, imgy_rng))

    for rnd in range(hp.outer_rounds):
        lr = hp.lr_for_round(rnd)
        if rnd > 0 and hp.refresh_labelnet:
            run_phase(rnd, "label", label_phase, rnd, lr)
        full = [run_phase(rnd, f"wstep_{tag}", wstep, rnd, lr, tag, params, codes, opt, rng)
                for tag, params, codes, opt, rng in nets]
        # one full-set forward per network and round serves its wstep row, its
        # B-step and its bstep row: the weights do not move in between
        totals = [run_phase(rnd, f"bstep_{tag}", bstep, rnd, tag, outs, codes)
                  for (tag, _, codes, _, _), outs in zip(nets, full)]
        state.history.append(sum(totals))
        state.rounds_run = rnd + 1
        if convergence_check(state.history):
            break
    return state


def save_run(state: TrainState, outdir) -> list:
    """Write model files, per-network training codes, and the log CSV.
    Returns the list of paths written."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for name, params in zip(MODEL_FILES,
                            (state.label_params, state.imgx_params, state.imgy_params)):
        path = os.path.join(outdir, name)
        save_params(path, params)
        paths.append(path)
    for name, codes in zip(CODE_FILES, (state.codes_x, state.codes_y)):
        path = os.path.join(outdir, name)
        write_codes(path, pack(codes))
        paths.append(path)
    log_path = os.path.join(outdir, LOG_FILE)
    write_csv(log_path, [f.name for f in fields(LogRow)], map(astuple, state.log_rows))
    paths.append(log_path)
    return paths
