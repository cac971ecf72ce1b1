"""Alternating training loop. The codes are warm-started once, from the
signs of the untrained image networks' outputs; then each outer round
refreshes the label network and its cached supervision, runs ``t_img``
weight epochs per image network with codes fixed, then one coordinate-descent
sweep of each code matrix with weights fixed; each code matrix is a plain
float64 array of +-1, updated in place. With 0 rounds nothing trains.
``run_phase`` is the one call site of every phase: it names a phase's
``TrainingError`` by round and phase and logs one ``log_row`` of the terms
the phase's objective returns by name; a B-step's row takes the terms that
do not read the codes from the W-step row before it (``recoded_objective``).
The learning rate walks a geometric grid, one point per round, clamped at
the last point. Every run takes exactly ``hp.outer_rounds`` rounds. The
image networks are built in one loop, network i (x, then y) seeded from the
streams ``_STREAM_IMGX_INIT + i`` and ``_STREAM_IMGX_BATCH + i``; in the
symmetric variant the one network x backs both halves of the final code.
The ``TrainState`` is built once, when the rounds end.
"""

import os
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .bstep import bstep_sweep
from .codes import pack, write_codes
from .config import HyperParams, Variant
from .data import Dataset
from .encoder import MomentumSGD, flat_copy, forward_rows, init_params, save_params
from .errors import DataError, TrainingError
from .fileio import write_csv
from .imgnet import full_objective, recoded_objective, wstep_epoch
from .labelnet import ClassifierHead, init_head, labelnet_loss, train_labelnet
from .numerics import check_finite

MODEL_FILES = ("label.net", "imgx.net", "imgy.net")
CODE_FILES = ("codes_x.adsqb", "codes_y.adsqb")
LOG_FILE = "train_log.csv"

# fixed stream ids feeding per-purpose RNGs derived from the run seed
_STREAM_LABEL_INIT = 0
_STREAM_HEAD_INIT = 1
_STREAM_IMGX_INIT = 2  # the y network's is 3
_STREAM_LABEL_BATCH = 4
_STREAM_IMGX_BATCH = 5  # the y network's is 6


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
    rounds_run: int = 0
    log_rows: list = field(default_factory=list)


@np.errstate(over="ignore", invalid="ignore")
def train(dataset: Dataset, hp: HyperParams) -> TrainState:
    """Run the full alternating procedure; see the module docstring."""
    if dataset.n < hp.batch_size:
        raise DataError(f"n >= batch_size required, got n={dataset.n} < "
                        f"batch_size={hp.batch_size}")

    dims = [*hp.encoder_hidden, hp.semantic_dim, hp.k_half]
    label_params = init_params([dataset.num_classes, *dims], subseed(hp.seed, _STREAM_LABEL_INIT))
    head = init_head(dataset.num_classes, hp.k_half, subseed(hp.seed, _STREAM_HEAD_INIT))
    label_arrays = flat_copy(label_params.arrays + [head.weight, head.bias])  # one buffer
    label_params, head = label_params.on(label_arrays), ClassifierHead(*label_arrays[-2:])
    label_rng = np.random.default_rng(subseed(hp.seed, _STREAM_LABEL_BATCH))
    opt_label = MomentumSGD(label_arrays, hp.momentum, hp.weight_decay)

    # one image network per tag; the symmetric variant's one backs both halves
    nets = []
    for i, tag in enumerate("x" if hp.variant is Variant.SYMMETRIC else "xy"):
        params = init_params([dataset.dim, *dims], subseed(hp.seed, _STREAM_IMGX_INIT + i))
        nets.append((tag, params, MomentumSGD(params.arrays, hp.momentum, hp.weight_decay),
                     np.random.default_rng(subseed(hp.seed, _STREAM_IMGX_BATCH + i))))
    log_rows = []

    def run_phase(rnd, phase, fn, *args):
        """``fn(*args)`` returns (result, terms); the terms make the phase's log row."""
        try:
            result, terms = fn(*args)
        except TrainingError as exc:
            raise TrainingError(f"round {rnd}, phase {phase}: {exc}") from exc
        log_rows.append(log_row(rnd, phase, terms))
        return result, terms

    def label_phase(lr):
        sup = train_labelnet(label_params, head, dataset, hp, epochs=hp.t_label, lr=lr,
                             rng=label_rng, optimizer=opt_label)
        return sup, labelnet_loss(sup, head, dataset.patterns, hp)

    def wstep(lr, sup, params, opt, rng, codes):
        for _ in range(hp.t_img):
            wstep_epoch(params, dataset, codes, sup, hp, lr=lr, rng=rng, optimizer=opt)
        outs = forward_rows(params, dataset.features)
        return outs, full_objective(outs, dataset, codes, sup, hp)

    def bstep(outs, terms, codes):
        bstep_sweep(codes, outs.u, dataset.patterns, hp)
        return codes, recoded_objective(terms, outs, dataset, codes, hp)

    # warm-start codes: the signs, sign(0) = +1, of the still untrained networks' outputs
    codes = [np.where(check_finite(forward_rows(params, dataset.features).u,
                                   f"warm-start outputs of network {tag}") >= 0, 1.0, -1.0)
             for tag, params, _, _ in nets]
    for rnd in range(hp.outer_rounds):
        lr = hp.lr_for_round(rnd)
        sup, _ = run_phase(rnd, "label", label_phase, lr)
        full = [run_phase(rnd, f"wstep_{tag}", wstep, lr, sup, params, opt, rng, c)
                for (tag, params, opt, rng), c in zip(nets, codes)]
        # one full-set forward per network and round serves its wstep row, its B-step and
        # its bstep row: the weights do not move in between, so only the code terms rerun
        for (tag, *_), (outs, terms), c in zip(nets, full, codes):
            run_phase(rnd, f"bstep_{tag}", bstep, outs, terms, c)
    return TrainState(label_params, nets[0][1], nets[-1][1], codes[0], codes[-1],
                      hp.outer_rounds, log_rows)


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
