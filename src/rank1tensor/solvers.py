"""Alternating solvers for the best rank-one approximation problem.

Four methods maximize f(x_1, ..., x_d) = <T, x_1 (x) ... (x) x_d> over the
product of unit spheres:

* ``als``   - cyclic single-mode updates: replace x_i by the normalized
  contraction of T against all other current vectors.
* ``asvd``  - pair updates: replace (x_i, x_j) by the top singular pair of
  the matrix obtained by contracting every other mode. One pair step gains
  at least as much as the better of the two single-mode steps.
* ``mals``  - greedy variant of ``als``: evaluate the candidate update for
  every not-yet-updated mode, apply the best, repeat until each mode has
  been updated once. Guarantees accumulation at points maximal in every
  single mode (1-semi-maximal).
* ``masvd`` - greedy variant of ``asvd`` for 3-mode tensors: per step, for
  each not-yet-fixed mode k, the candidate freezes x_k and replaces the
  other two vectors by the top singular pair of the contracted matrix.
  Guarantees accumulation at points maximal in every pair of modes.
  A candidate depends on x_k alone, so a solve keeps it until x_k changes:
  the candidate a sweep applies last is still valid when the next sweep
  starts, and that sweep looks it up, making five pair steps instead of six
  (a Newton finish attempt drops every kept candidate).

Every candidate-generating contraction counts as one optimization call,
however the candidate is obtained (a masvd candidate looked up from the
previous sweep counts too); a solve records the calls, and each sub-step's
objective, in the columns of a :class:`SolverTrace`. The single-mode
methods form their contractions with :func:`kernels.contract_each`: an als
sweep is one dimension-tree pass and each mals round computes all of its
stale candidates in one call. A mals sweep keeps the tensor contracted over
the modes it has applied, and each round extends that by the modes applied
since. So an als sweep reads the tensor twice and a mals sweep 3 times,
whatever d. At d >= 4 an asvd pair step that contracts first a mode the
next step also contracts keeps that one-mode contraction, and the next step
starts from it (:func:`_pair_plan`, fixed per d), across sweeps too: a
d = 4 sweep reads the tensor 3 times instead of 6, and a d = 5 sweep 5
times instead of 10. At d = 3 every pair step contracts the whole tensor.
The pair steps take the top singular pair from
:func:`linalg.top_singular_triple`, which does not depend on the current
iterate.
All methods share one stopping rule: after each full sweep, stop when the
change in fit = f/|T| drops below ``fitchange_tol``, or when
``max_iterations`` sweeps have run. A fit-change stop places a tuple only
about sqrt(fitchange_tol) from stationarity, and the alternating methods
close the rest of the way only linearly. So a tight solve, one whose
fitchange_tol lies below ``TIGHT_FIT_CHANGE`` = 1e-6 and whose target
fitchange_tol^(3/4) |T| lies above eps |T|, also has a Newton finish on the
product of spheres (Zhang & Golub, SIMAX 2001; Absil, Mahony & Sepulchre
2008, ch. 6): after a sweep whose fit change is below ``NEWTON_FIT_CHANGE``
= 1e-4 (a tuple then lies about 1e-2 |T| from stationarity, where Newton
needs three or four steps), Newton steps run until the stationarity residual
max_i |v_i - (x_i . v_i) x_i| is certified at or below that target, and the
solve stops with ``converged_by`` "stationary". When a step is rejected the
solve sweeps on, and tries again only once the fit change has halved. A
tight sweep that would stop on its fit change before any attempt was made
first makes one, and stops "stationary" if it is certified. Every other
solve, the default among them, never reaches the finish and is the same bit
for bit as a solve without it.

The problem is homogeneous: solving c*T gives c*lambda at the same axes. A
tensor whose sum of squares overflows or underflows is solved as
T / max|T| and its results are scaled back (:func:`core.read_scaled`).
:func:`sweep` runs one sweep of any method from a given tuple, on the
tensor that gate returns; unit vectors do not depend on the scale, so
nothing is scaled back.
"""

import functools
import math
import numbers
import time
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels, linalg
from .core import (
    UnitTuple,
    as_dims,
    f_from_arrays,
    mode_residual,
    read_scaled,
    residual_from,
    split_scale,
    tangent_basis,
    tangent_hessian,
)
from .errors import (
    BreakdownError,
    DegenerateInputError,
    InvalidInputError,
    UnsupportedError,
)

METHODS = ("als", "asvd", "mals", "masvd")
INITS = ("random", "hosvd")

#: a contraction below this norm is treated as an exact breakdown
BREAKDOWN_NORM = 1e-300
_EPS = float(np.finfo(np.float64).eps)
#: a solve is tight, and has a Newton finish, when its fitchange_tol is
#: below this; every other solve is unchanged bit for bit
TIGHT_FIT_CHANGE = 1e-6
#: a tight solve hands over to the finish after a sweep whose fit change is
#: below this
NEWTON_FIT_CHANGE = 1e-4
#: a Newton step may lower f by this much relative to |T| (rounding)
NEWTON_F_SLACK = 4 * _EPS


@dataclass
class SolverConfig:
    """Knobs for :func:`solve`; defaults follow the shared convergence rule
    (at most 10 sweeps, stop when the fit changes by less than 1e-4)."""

    method: str = "als"
    max_iterations: int = 10
    fitchange_tol: float = 1e-4
    init: str = "random"
    seed: object = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown method {self.method!r}")
        iterations = self.max_iterations
        if not isinstance(iterations, numbers.Integral) or iterations < 1:
            raise InvalidInputError(
                f"max_iterations must be an integer >= 1, got {iterations!r}"
            )
        tol = self.fitchange_tol
        if not (isinstance(tol, numbers.Real) and tol > 0):
            raise InvalidInputError(
                f"fitchange_tol must be a positive number, got {tol!r}"
            )
        if self.init not in INITS:
            raise InvalidInputError(f"unknown init {self.init!r}")


#: (modes, chosen, candidate keys) of a sub-step: one immutable tuple per
#: distinct value, shared by every trace; bounded, since the key sets of
#: mals can number 2^d
_SHARED_STEPS = {}
_SHARED_STEPS_MAX = 4096


class SolverTrace:
    """The objective values of a solve, stored by column.

    Per sub-step: ``f_after`` and ``steps``, a shared ``(modes, chosen,
    keys)`` tuple, where ``keys`` are the modes whose candidate values a
    greedy method compared; those values follow one another in
    ``candidates``, in key order. Per sweep: the cumulative ``opt_calls``,
    ``wall_seconds``, and ``sweep_ends``, the number of sub-steps recorded
    by the end of the sweep. So sweep k (from 0) holds the sub-steps
    ``sweep_ends[k - 1]`` (0 for k = 0) up to ``sweep_ends[k]``, and its
    final objective is ``f_after[sweep_ends[k] - 1]``.
    """

    __slots__ = (
        "f_initial",
        "f_after",
        "steps",
        "candidates",
        "opt_calls",
        "wall_seconds",
        "sweep_ends",
        "_calls",
    )

    def __init__(self, f_initial=0.0):
        self.f_initial = f_initial
        self.f_after = array("d")
        self.steps = []
        self.candidates = array("d")
        self.opt_calls = array("q")
        self.wall_seconds = array("d")
        self.sweep_ends = array("q")
        self._calls = 0  # running optimization-call count

    def __repr__(self):
        return f"SolverTrace(f_initial={self.f_initial!r}, sweeps={len(self.sweep_ends)})"

    def _record(self, f, modes, chosen=None, candidates=None):
        step = (modes, chosen, () if candidates is None else tuple(candidates))
        shared = _SHARED_STEPS.get(step)
        if shared is None:
            shared = step
            if len(_SHARED_STEPS) < _SHARED_STEPS_MAX:
                _SHARED_STEPS[step] = step
        self.steps.append(shared)
        self.f_after.append(f)
        if candidates is not None:
            self.candidates.extend(candidates.values())

    def _end_sweep(self, wall_seconds):
        self.opt_calls.append(self._calls)
        self.wall_seconds.append(wall_seconds)
        self.sweep_ends.append(len(self.f_after))

    def f_sequence(self):
        """All objective values in order: initial, then one per sub-step."""
        yield self.f_initial
        yield from self.f_after


@dataclass
class Rank1Result:
    """Output of :func:`solve`: lambda >= 0, unit axes, and quality metrics
    with lambda^2 + residual^2 = |T|^2."""

    lambda_: float
    axes: UnitTuple
    fit: float
    residual: float
    converged_by: str  # "fitchange" | "stationary" | "max_iterations"
    iterations: int
    optimization_calls: int
    trace: SolverTrace
    #: the stationarity residual / |T| that the Newton finish certified;
    #: None unless converged_by is "stationary"
    stationarity: Optional[float] = None


def init_random(dims, seed=0):
    """Uniformly random point on the sphere product (normalized Gaussians),
    deterministic per seed (a ``np.random.Generator`` is drawn from in
    place); a random-start :func:`solve` starts from the same draw."""
    return UnitTuple(_draw_unit_vectors(_rng(seed), as_dims(dims)))


def _rng(seed):
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"invalid seed {seed!r}: {exc}") from None


def _draw_unit_vectors(rng, dims):
    # one standard normal draw per mode, normalized; a zero draw is redrawn
    vecs = []
    for m in dims:
        while True:
            g = rng.standard_normal(m)
            n = math.sqrt(np.dot(g, g))
            if n > 0.0:
                break
        vecs.append(g / n)
    return vecs


def init_hosvd(t):
    """Per-mode top left singular vector of the unfolding (higher-order SVD
    start). More expensive than a random start but often closer. A tensor
    whose sum of squares overflows or underflows is read as T / max|T|,
    which has the same singular vectors."""
    arr, _, nrm2 = split_scale(t.array)
    if nrm2 == 0.0:
        raise DegenerateInputError("cannot initialize from the zero tensor")
    return UnitTuple(_hosvd_vectors(arr))


def _hosvd_vectors(arr):
    # per mode i, the top left singular vector of the mode-i unfolding
    # (core.unfold): mode i on the rows, the other modes in increasing order
    # on the columns, C-contiguous
    return [
        linalg.top_singular_triple(np.moveaxis(arr, i, 0).reshape(m, -1)).u
        for i, m in enumerate(arr.shape)
    ]


def default_pair_schedule(d):
    """Pair visiting order for the pair-update methods.

    At d=3 step k is the pair without mode k: masvd's candidate k, which
    freezes x_k. For d>3 all C(d,2) pairs are arranged greedily so that
    consecutive pairs are index-disjoint when possible, falling back to the
    lexicographically first unused pair; at d=4 that is (0,1), (2,3), (0,2),
    (1,3), (0,3), (1,2).
    ``diagnostics.check_semi_max(level=2)`` checks the pairs in this order.
    """
    if d < 3:
        raise UnsupportedError("pair schedules need at least 3 modes")
    if d == 3:
        return [(1, 2), (0, 2), (0, 1)]
    unused = [(i, j) for i in range(d) for j in range(i + 1, d)]
    schedule = [unused.pop(0)]
    while unused:
        prev = set(schedule[-1])
        pick = next((p for p in unused if not prev.intersection(p)), unused[0])
        unused.remove(pick)
        schedule.append(pick)
    return schedule


def _normalized(i, v):
    # the single-mode update from the mode-i contraction v: (|v|, v / |v|);
    # sqrt(v.v) is what np.linalg.norm computes, without its Python overhead
    nv = math.sqrt(np.dot(v, v))
    if nv < BREAKDOWN_NORM:
        raise BreakdownError(f"mode-{i} contraction collapsed to zero")
    return nv, v / nv


def _pair_triple(mat, i, j, trace):
    # the top singular triple of the pair (i, j)'s contracted matrix
    trace._calls += 1
    try:
        return linalg.top_singular_triple(mat)
    except DegenerateInputError as exc:
        raise BreakdownError(f"pair ({i},{j}) contraction collapsed to zero") from exc


@functools.lru_cache(maxsize=32)
def _pair_plan(d):
    """Per step of ``default_pair_schedule(d)``: ``(i, j, start, kept)``.

    ``start`` is None or the modes of the intermediate that the previous
    step kept, which this step contracts down to its matrix. ``kept`` is None
    or the modes of the intermediate that this step keeps for the next one:
    it contracts first the highest mode that both steps contract, whose
    vector neither step changes, and then the rest from there. A step that
    starts from an intermediate keeps none, and the last step keeps one for
    the next sweep's first unless that step keeps one itself. At d = 3 no two
    steps contract a common mode, so every step contracts the tensor whole.
    """
    schedule = default_pair_schedule(d)
    n = len(schedule)
    contracted = [set(range(d)) - {i, j} for i, j in schedule]
    kept = [None] * n
    for s in range(n):
        common = contracted[s] & contracted[(s + 1) % n]
        if common and kept[s - 1] is None and not (s == n - 1 and kept[0] is not None):
            kept[s] = tuple(m for m in range(d) if m != max(common))
    return tuple((i, j, kept[s - 1], kept[s]) for s, (i, j) in enumerate(schedule))


def _als_sweep(arr, vecs, trace, _cache):
    def update(i, v):
        f, vecs[i] = _normalized(i, v)
        trace._calls += 1
        trace._record(f, (i,))

    kernels.contract_each(arr, vecs, range(arr.ndim), update)
    return trace.f_after[-1]


def _asvd_sweep(arr, vecs, trace, cache):
    # Each step takes the intermediate the step before it kept (see
    # _pair_plan), which the solve's ``cache`` holds across sweeps too, so a
    # sweep's first step starts from the last one's. A step with none to
    # take, as the first sweep's first step or any step after a Newton
    # finish attempt, contracts the whole tensor.
    shape = arr.shape
    f = None
    for i, j, start, kept in _pair_plan(arr.ndim):
        partial = cache.pop("partial", None)
        if partial is None and kept is not None:
            partial = cache["partial"] = kernels.contract_partial(
                arr, shape, vecs, range(arr.ndim), kept
            )
            start = kept
        if partial is None:
            mat = kernels.contract_all_but_two(arr, vecs, i, j)
        else:
            mat = kernels.contract_partial(partial, shape, vecs, start, (i, j))
            mat = mat.reshape(shape[i], shape[j])
        triple = _pair_triple(mat, i, j, trace)
        vecs[i], vecs[j] = triple.u, triple.v
        f = triple.sigma
        trace._record(f, (i, j))
    return f


def _mals_sweep(arr, vecs, trace, cache):
    # Every remaining candidate depends on the mode just applied, so a round
    # recomputes all of them, at one tuple and in one call, or none when
    # that mode's vector did not change; the first round fills every entry
    # of ``cache``, so nothing is carried between sweeps. An applied mode
    # keeps its vector for the rest of the sweep, so ``partial`` keeps the
    # tensor contracted over the applied modes, laid out over the modes
    # ``over``, and a round contracts only the modes applied since the last.
    shape = arr.shape
    remaining = list(range(arr.ndim))
    partial, over = arr, range(arr.ndim)
    changed = True
    f = None

    def record(i, v):
        cache[i] = _normalized(i, v)

    while remaining:
        if changed:
            partial = kernels.contract_partial(partial, shape, vecs, over, remaining)
            over = tuple(remaining)
            kernels.contract_each(arr, vecs, over, record, partial)
            trace._calls += len(remaining)
        candidates = {i: cache[i][0] for i in remaining}
        best = max(remaining, key=lambda i: (candidates[i], -i))
        f, vector = cache[best]
        changed = (vecs[best] != vector).any()
        vecs[best] = vector
        trace._record(f, (best,), best, candidates)
        remaining.remove(best)
    return f


def _masvd_sweep(arr, vecs, trace, cache):
    # Candidate k freezes x_k and replaces the other two vectors, the pair
    # pairs[k], by the top singular pair of the contracted matrix; it
    # depends on x_k only, so the solve's ``cache`` keeps it, across sweeps
    # too, until x_k changes. A candidate carried into a sweep still counts
    # as an optimization call.
    pairs = default_pair_schedule(3)
    trace._calls += len(cache)
    remaining = [0, 1, 2]
    while remaining:
        candidates = {}
        best = None
        for k in remaining:
            entry = cache.get(k)
            if entry is None:
                i, j = pairs[k]
                mat = kernels.contract_all_but_two(arr, vecs, i, j)
                triple = _pair_triple(mat, i, j, trace)
                entry = cache[k] = (triple.sigma, triple.u, triple.v)
            candidates[k] = entry[0]
            # the largest value, and the lowest mode on ties
            if best is None or entry[0] > best[0]:
                best, chosen = entry, k
        f, u_new, v_new = best
        i, j = pairs[chosen]
        for m, new in ((i, u_new), (j, v_new)):
            if (vecs[m] != new).any():
                cache.pop(m, None)
        vecs[i], vecs[j] = u_new, v_new
        trace._record(f, (i, j), chosen, candidates)
        remaining.remove(chosen)
    return f


def _f_and_stationarity(vecs, contractions):
    # f and max_i |v_i - (x_i . v_i) x_i|
    s = 0.0
    for x, v in zip(vecs, contractions):
        f, r = mode_residual(x, v)
        s = max(s, r)
    return f, s


def _newton_step(arr, vecs, contractions, f):
    # one Newton step from the tuple whose contractions and objective are
    # given: (new vectors, their contractions), or None when H is not
    # positive definite. With block 0 first, H = [[f/2 I, C^T], [C, H_R]] is
    # positive definite iff f > 0 and S = H_R - (2/f) C C^T is, so only S is
    # factored: theta_R solves S theta_R = (g_R - (2/f) C g_0) / 2, and
    # theta_0 = (g_0 - 2 C^T theta_R) / f
    if not f > 0.0:
        return None
    bases = [tangent_basis(x) for x in vecs]
    h = tangent_hessian(arr, vecs, bases, f)
    n0 = bases[0].shape[1]
    c = h[n0:, :n0]
    schur = h[n0:, n0:]  # H_R, overwritten by S
    schur -= (2.0 / f) * (c @ c.T)
    try:
        np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        return None
    g = np.concatenate([q.T @ v for q, v in zip(bases, contractions)])
    theta_r = np.linalg.solve(schur, 0.5 * (g[n0:] - (2.0 / f) * (c @ g[:n0])))
    theta = np.concatenate([(g[:n0] - 2.0 * (c.T @ theta_r)) / f, theta_r])
    new, start = [], 0
    for x, q in zip(vecs, bases):
        y = x + q @ theta[start : start + q.shape[1]]
        start += q.shape[1]
        y /= math.sqrt(np.dot(y, y))
        new.append(y)
    return new, kernels.all_contractions(arr, new)


def _newton_finish(arr, vecs, trace, target, slack):
    """Newton steps from ``vecs`` until the stationarity residual is at most
    ``target``; returns that residual, or None once a step is rejected.

    A step solves H theta = g / 2, with H from :func:`core.tangent_hessian`
    at Householder bases Q_i and g the stacked Q_i^T v_i, and retracts each
    x_i + Q_i theta_i to its sphere. It is rejected when H is not positive
    definite (the Hessian is not negative definite), or when at the new
    tuple f falls by more than ``slack`` or the residual does not fall. An
    accepted step replaces ``vecs`` and is recorded as one sub-step over all
    modes; a rejected one leaves both unchanged. Each contraction counts as
    an optimization call: d per gradient pass, d(d - 1)/2 per Hessian.
    """
    d = len(vecs)
    contractions = kernels.all_contractions(arr, vecs)
    trace._calls += d
    f, s = _f_and_stationarity(vecs, contractions)
    while s > target:
        step = _newton_step(arr, vecs, contractions, f)
        trace._calls += d * (d - 1) // 2
        if step is None:
            return None
        trace._calls += d
        new, new_contractions = step
        f_new, s_new = _f_and_stationarity(new, new_contractions)
        if f_new < f - slack or not s_new < s:
            return None
        vecs[:] = new
        trace._record(f_new, tuple(range(d)))
        f, s, contractions = f_new, s_new, new_contractions
    return s


def _check_method_dims(method, d):
    if method in ("asvd", "masvd") and d < 3:
        raise UnsupportedError(f"{method} needs at least 3 modes, got {d}")
    if method == "masvd" and d != 3:
        raise UnsupportedError(f"masvd is defined for 3-mode tensors, got {d}")


#: method -> ``sweep(arr, vecs, trace, cache)``, which runs one sweep and
#: returns f; ``cache`` is one dict per solve, where masvd keeps its
#: candidates by frozen mode and asvd the intermediate its last step kept,
#: emptied after every Newton finish attempt
_SWEEPS = {
    "als": _als_sweep,
    "asvd": _asvd_sweep,
    "mals": _mals_sweep,
    "masvd": _masvd_sweep,
}


def sweep(t, u, method):
    """One sweep of ``method`` from the tuple ``u``; returns the new tuple.

    T is read through :func:`core.read_scaled`, as :func:`solve` reads it:
    a tensor whose sum of squares overflows or underflows is swept as
    T / max|T|, which gives the same unit vectors. Raises
    :class:`InvalidInputError` for an unknown method or a norm beyond the
    float64 range, :class:`DimensionError` for a tuple of other dims and
    :class:`UnsupportedError` for a method not defined at T's mode count.
    """
    if method not in METHODS:
        raise InvalidInputError(f"unknown method {method!r}")
    arr, _, _ = read_scaled(t, u)
    _check_method_dims(method, arr.ndim)
    vecs = list(u.vectors)
    _SWEEPS[method](arr, vecs, SolverTrace(), {})
    return UnitTuple(vecs)


def solve(t, cfg=None, initial=None):
    """Run the configured alternating method on a nonzero tensor.

    ``initial`` overrides the configured initialization with an explicit
    start tuple. Returns a :class:`Rank1Result` with sign-normalized
    lambda >= 0 and a full per-sub-step trace; the traced objective sequence
    is nondecreasing.
    """
    cfg = cfg or SolverConfig()
    arr, scale, nrm2 = read_scaled(t, initial)
    if nrm2 == 0.0:
        raise DegenerateInputError("the zero tensor has no rank-one direction")
    _check_method_dims(cfg.method, arr.ndim)
    nrm = math.sqrt(nrm2)

    # a start with f = 0 is no error: the first sweep works from
    # contractions, and an all-zero one is a BreakdownError
    if initial is not None:
        vecs = [v.copy() for v in initial.vectors]
    elif cfg.init == "random":
        vecs = _draw_unit_vectors(_rng(cfg.seed), arr.shape)
    else:
        vecs = _hosvd_vectors(arr)
    trace = SolverTrace(f_from_arrays(arr, vecs))
    one_sweep = _SWEEPS[cfg.method]
    cache = {}

    # the Newton finish's target: None unless the solve is tight and the
    # target lies above rounding, so every other solve never reaches it. A
    # tight solve tries the finish after a sweep whose fit change is below
    # NEWTON_FIT_CHANGE, again only once the fit change has halved after a
    # rejection, and once before a fit-change stop if it has not tried yet.
    tol = cfg.fitchange_tol
    target = tol**0.75 * nrm if tol < TIGHT_FIT_CHANGE and tol**0.75 > _EPS else None
    retry_below = NEWTON_FIT_CHANGE
    tried = False
    stationarity = None
    fit_prev = trace.f_initial / nrm
    converged_by = "max_iterations"
    for _ in range(cfg.max_iterations):
        started = time.perf_counter()
        fit = one_sweep(arr, vecs, trace, cache) / nrm
        change = abs(fit - fit_prev)
        stop = change < tol
        if target is not None and change < retry_below and not (stop and tried):
            tried = True
            s = _newton_finish(arr, vecs, trace, target, NEWTON_F_SLACK * nrm)
            cache.clear()  # an accepted step may have moved any vector
            if s is None:
                retry_below = change / 2
            else:
                converged_by, stationarity = "stationary", s / nrm
            fit = trace.f_after[-1] / nrm
        if stop and stationarity is None:
            converged_by = "fitchange"
        trace._end_sweep(time.perf_counter() - started)
        if converged_by != "max_iterations":
            break
        fit_prev = fit

    lam = f_from_arrays(arr, vecs)
    if lam < 0.0:  # flip one axis; the objective is odd in each vector
        vecs[0] = -vecs[0]
        lam = -lam
    axes = UnitTuple._adopt(vecs)
    residual = residual_from(nrm2, lam)
    if scale != 1.0:
        _rescale_trace(trace, scale)
    return Rank1Result(
        lambda_=scale * lam,
        axes=axes,
        fit=lam / nrm,
        residual=scale * residual,
        converged_by=converged_by,
        iterations=len(trace.sweep_ends),
        optimization_calls=trace.opt_calls[-1],
        trace=trace,
        stationarity=stationarity,
    )


def _rescale_trace(trace, scale):
    # objective values of a solve on T / scale, in the units of T
    trace.f_initial *= scale
    trace.f_after = array("d", [scale * f for f in trace.f_after])
    trace.candidates = array("d", [scale * v for v in trace.candidates])
